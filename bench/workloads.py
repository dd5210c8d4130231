"""The three benchmark workloads: inputs from a seed, one operation, checks.

Every workload calls the package only through module attributes
(``assembly.assemble_blocks(...)``, never a name imported into this file),
so the traced run sees each call through the wrappers that
:mod:`tracing` installs.

An operation returns an :class:`Outcome`: its echo-width curves, its mean
error against a reference in dB, and the output checks it missed.  The
benchmark counts an operation with a missed check as failed.
"""

import csv
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from hoibc2d import analysis, assembly, cli, geometry, impedance

# Coated conductor of the paper's cylinder experiments: PEC core of radius
# A under a coating of thickness D, at a 1 m wavelength.
A, D = 1.0, 0.1
EPS_R, MU_R = 4.0 - 0.5j, 1.0
K0 = 2.0 * np.pi

HERE = os.path.dirname(os.path.abspath(__file__))
PLATE_REFERENCE = os.path.join(HERE, "plate_reference.csv")


@dataclass
class Outcome:
    curves: dict                      # name -> sigma [dB(m)] array
    rcs_err_dB: float                 # mean |dB| against the reference
    problems: list = field(default_factory=list)


def _coating():
    return impedance.CoatingSpec(EPS_R, MU_R, D)


def _series_spec():
    return analysis.SeriesSolutionSpec(A, D, EPS_R, MU_R, K0)


def _nonfinite(curves):
    return [f"{name}: non-finite echo width"
            for name, sigma in curves.items() if not np.all(np.isfinite(sigma))]


class Workload:
    def release(self, inp):
        """Remove whatever ``inputs`` left on disk."""


@dataclass(frozen=True)
class OrdersCylinder(Workload):
    """Accept 06: one kernel pass, then TE/TM x IBC0/1/2 against the series."""

    n_elements: int = 512
    n_angles: int = 360
    name = "orders-cylinder"

    def inputs(self, seed):
        # the seed turns the incidence; sizes and k0 never depend on it
        rng = np.random.default_rng(seed)
        phi_inc = float(rng.integers(0, 360))
        angles = np.arange(self.n_angles) * (360.0 / self.n_angles)
        return {"phi_inc_deg": phi_inc, "angles": angles}

    def operation(self, inp):
        mesh = geometry.mesh_circle(A + D, self.n_elements)
        blocks = assembly.assemble_blocks(mesh, K0)
        spec = _series_spec()
        phi = inp["phi_inc_deg"]
        curves, err, worst = {}, {}, {}
        for pol in ("TE", "TM"):
            exact = analysis.series_coated_cylinder(
                spec, pol, inp["angles"], phi_inc_deg=phi)
            wave = assembly.IncidentWave(pol=pol, k0=K0,
                                         phi_inc=np.deg2rad(phi))
            for order in ("IBC0", "IBC1", "IBC2"):
                cf = impedance.fit_coefficients(_coating(), pol, K0, order,
                                                method="pade")
                pattern, _ = analysis.solve_and_pattern(
                    mesh, cf, wave, inp["angles"], blocks=blocks)
                cmp = analysis.compare_rcs(pattern, exact)
                key = f"{pol}_{order}"
                curves[key] = pattern.sigma
                err[key] = cmp.mean_abs_dB
                worst[key] = cmp.max_abs_dB
        problems = _nonfinite(curves)
        if not err["TE_IBC0"] > err["TE_IBC1"] >= err["TE_IBC2"]:
            problems.append("TE errors break IBC0 > IBC1 >= IBC2: "
                            f"{err['TE_IBC0']:.4f} {err['TE_IBC1']:.4f} "
                            f"{err['TE_IBC2']:.4f} dB")
        for key in ("TM_IBC1", "TM_IBC2"):
            if not worst[key] <= 1.0:
                problems.append(f"{key} is {worst[key]:.4f} dB off the "
                                "series (limit 1 dB)")
        return Outcome(curves, float(np.mean(list(err.values()))), problems)


@dataclass(frozen=True)
class MonostaticCylinder(Workload):
    """Accept 08: one factorization, one solve and far field per look angle."""

    n_elements: int = 128
    n_angles: int = 3600
    name = "monostatic-cylinder"

    def inputs(self, seed):
        # the seed shifts the start of the look-angle grid inside one step
        rng = np.random.default_rng(seed)
        step = 360.0 / self.n_angles
        start = float(rng.uniform(0.0, step))
        return {"angles": start + step * np.arange(self.n_angles)}

    def operation(self, inp):
        mesh = geometry.mesh_circle(A + D, self.n_elements)
        cf = impedance.fit_coefficients(_coating(), "TE", K0, "IBC1",
                                        method="pade")
        pattern = analysis.monostatic_sweep(mesh, cf, inp["angles"],
                                            kind="angle", k0=K0)
        exact = analysis.series_coated_cylinder(
            _series_spec(), "TE", inp["angles"], mode="monostatic")
        cmp = analysis.compare_rcs(pattern, exact)
        curves = {"TE_IBC1": pattern.sigma}
        problems = _nonfinite(curves)
        spread = float(np.ptp(pattern.sigma))
        if not spread <= 0.05:
            problems.append(f"look-angle spread {spread:.3e} dB above 0.05 dB")
        return Outcome(curves, cmp.mean_abs_dB, problems)


@dataclass(frozen=True)
class PlateLarge(Workload):
    """Coated plate 30 wavelengths long, TM IBC2, through the command line.

    The oracle is ``plate_reference.csv``: the same model solved on a mesh
    four times finer (see ``make_plate_reference.py``).
    """

    n_elements: int = 384
    wavelengths: float = 30.0
    n_angles: int = 1440
    frequency: float = 6.8e9
    reference: str = PLATE_REFERENCE  # None: no oracle (warm-up, reference)
    name = "plate-large"

    def config(self):
        lam0 = 299792458.0 / self.frequency
        return {
            "geometry": {"kind": "plate", "length": self.wavelengths * lam0,
                         "n_elements": self.n_elements},
            "coating": {"eps_r": [10.0, -5.0], "mu_r": 1.0, "d": 0.004},
            "frequency": self.frequency,
            "polarization": "TM",
            "ibc": {"order": 2, "fit_method": "pade"},
            # broadside: the wave travels along -y onto the +y face
            "sweep": {"kind": "bistatic", "phi_inc_deg": 270.0,
                      "angles_deg": {"start": 0.0, "stop": 360.0,
                                     "step": 360.0 / self.n_angles}},
            "outputs": {"rcs": "rcs.csv", "currents": "currents.csv"},
        }

    def inputs(self, seed):
        # the broadside plate has nothing the seed may vary without
        # breaking its mirror check; every seed gets the same inputs
        work = tempfile.mkdtemp(prefix="plate-", dir=_scratch_dir())
        path = os.path.join(work, "plate.json")
        with open(path, "w") as fh:
            json.dump(self.config(), fh)
        return {"config": path, "work": work}

    def release(self, inp):
        shutil.rmtree(inp["work"], ignore_errors=True)

    def operation(self, inp):
        out = tempfile.mkdtemp(prefix="out-", dir=inp["work"])
        try:
            code = cli.main(["solve", "--config", inp["config"],
                             "--out", out, "--quiet"])
            if code != 0:
                return Outcome({}, float("nan"), [f"cli exit code {code}"])
            with open(os.path.join(out, "rcs.csv")) as fh:
                pattern = analysis.rcs_csv_parse(fh.read())
            with open(os.path.join(out, "currents.csv")) as fh:
                rows = list(csv.DictReader(
                    line for line in fh if not line.startswith("#")))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        curves = {"TM_IBC2": pattern.sigma}
        problems = _nonfinite(curves)
        if pattern.sigma.size != self.n_angles:
            problems.append(f"{pattern.sigma.size} angles, "
                            f"expected {self.n_angles}")
        else:
            # broadside on a plate centred on x = 0: sigma(phi) = sigma(180-phi)
            lin = 10.0 ** (pattern.sigma / 10.0)
            mirror = lin[(self.n_angles // 2 - np.arange(self.n_angles))
                         % self.n_angles]
            asym = float(np.max(np.abs(lin - mirror)) / np.max(lin))
            if not asym <= 1e-9:
                problems.append(f"mirror asymmetry {asym:.3e} above 1e-9")
        if len(rows) != self.n_elements + 1:
            problems.append(f"{len(rows)} current rows, "
                            f"expected {self.n_elements + 1}")
        else:
            for row in (rows[0], rows[-1]):
                vals = [float(row[k]) for k in ("Re_J", "Im_J", "Re_M", "Im_M")]
                if any(v != 0.0 for v in vals):
                    problems.append(f"endpoint node {row['node']} carries "
                                    f"current {vals}")
        err = float("nan")
        if self.reference is not None and not problems:
            with open(self.reference) as fh:
                ref = analysis.rcs_csv_parse(fh.read())
            err = analysis.compare_rcs(pattern, ref).mean_abs_dB
        return Outcome(curves, err, problems)


def _scratch_dir():
    path = os.path.join(HERE, "out")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS = {w.name: w for w in (OrdersCylinder(), MonostaticCylinder(),
                                 PlateLarge())}

# Miniatures of each workload on the same code paths, run once before
# timing so lazy imports and first-call costs land in set-up.
WARMUPS = {
    "orders-cylinder": OrdersCylinder(n_elements=24, n_angles=12),
    "monostatic-cylinder": MonostaticCylinder(n_elements=24, n_angles=12),
    "plate-large": PlateLarge(n_elements=24, wavelengths=2.0, n_angles=16,
                              reference=None),
}
