"""Write plate_reference.csv, the oracle of the plate-large workload.

No closed form exists for the plate, so its reference is the same model
(same coating fit, same angles) solved on a mesh REFINE times finer than
the workload's.  ``rcs_err_dB`` on plate-large is then the mean |dB| between
the workload's curve and this one: it moves when a change to quadrature,
special functions or the solve moves the answer, as on the cylinders.

    python3 bench/make_plate_reference.py     # from the repository root

It takes a few minutes and under 1 GB.  Rerun it only when the model of
the workload changes, never to absorb a change in the solver's answer.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFINE = 3


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import dataclasses
    import json

    import workloads
    from hoibc2d import cli

    base = workloads.WORKLOADS["plate-large"]
    fine = dataclasses.replace(base, n_elements=REFINE * base.n_elements)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(HERE, "out"))
    try:
        path = os.path.join(work, "plate.json")
        with open(path, "w") as fh:
            json.dump(fine.config(), fh)
        code = cli.main(["solve", "--config", path, "--out", work, "--quiet"])
        if code != 0:
            raise SystemExit(f"reference solve failed with exit code {code}")
        shutil.copyfile(os.path.join(work, "rcs.csv"), base.reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {base.reference} from {fine.n_elements} elements")


if __name__ == "__main__":
    main()
