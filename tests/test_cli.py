"""Command-line driver tests: configs, subcommands, files, exit codes.

Commands run in-process through ``main`` so exit codes and stdout are
asserted directly; one subprocess test covers the module entry point.
Determinism is checked at the byte level because the output files double
as regression fixtures.
"""

import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import hoibc2d
from hoibc2d import analysis
from hoibc2d.analysis import (
    SeriesSolutionSpec,
    rcs_csv_parse,
    rcs_csv_text,
    series_coated_cylinder,
    series_pec_cylinder,
)
from hoibc2d.cli import main, parse_config
from hoibc2d.errors import ValidationError
from hoibc2d.impedance import CoatingSpec, eval_rational, fit_coefficients

COARSE = {"start": 0.0, "stop": 360.0, "step": 5.0}

CYLINDER = {
    "geometry": {"kind": "circle", "radius": 1.0, "n_elements": 48},
    "coating": {"eps_r": [4.0, -0.5], "mu_r": 1.0, "d": 0.1},
    "frequency": 299792458.0,
    "polarization": "TE",
    "ibc": {"order": 1, "fit_method": "pade"},
    "sweep": {"kind": "bistatic", "phi_inc_deg": 0.0, "angles_deg": COARSE},
}

PLATE = {
    "geometry": {"kind": "plate", "length": 0.15, "n_elements": 64},
    "coating": {"eps_r": [4.0, -0.5], "mu_r": 1.0, "d": 0.004},
    "frequency": 6.8e9,
    "polarization": "TE",
    "ibc": {"order": 1},
    "sweep": {"kind": "bistatic",
              "angles_deg": {"start": 0.0, "stop": 181.0, "step": 1.0}},
}


def put(tmp_path, name, obj, **override):
    merged = json.loads(json.dumps(obj))
    for key, value in override.items():
        section, _, field = key.partition(".")
        if field:
            merged.setdefault(section, {})[field] = value
        else:
            merged[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(merged), encoding="utf-8")
    return str(path)


def run(*argv):
    return main(list(argv))


# --- config parsing ----------------------------------------------------------

def test_parse_rejects_and_names_every_bad_field():
    raw = {
        "geometry": {"kind": "sphere", "radius": -1.0, "n_elements": 2},
        "coating": {"eps_r": [4.0, 0.5], "d": 0.1},
        "frequency": 3.0e8,
        "k0": 6.28,
        "polarization": "TQ",
    }
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    for name in ("frequency", "geometry.kind", "coating.eps_r", "polarization",
                 "geometry.n_elements"):
        assert name in err.value.fields


def test_parse_lambda0_reference():
    raw = json.loads(json.dumps(CYLINDER))
    raw["lambda0_reference"] = 299792458.0
    raw["geometry"]["radius"] = "1 lambda0"
    raw["coating"]["d"] = "0.1*lambda0"
    cfg = parse_config(raw)
    assert cfg.size == pytest.approx(1.0, rel=1e-15)
    assert cfg.d == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(ValidationError, match="lambda0_reference"):
        parse_config({**raw, "lambda0_reference": None})


def test_parse_flag_overrides_win():
    cfg = parse_config(json.loads(json.dumps(CYLINDER)),
                       pol="tm", ibc="2", fit="taylor")
    assert (cfg.pol, cfg.ibc_order, cfg.fit_method) == ("TM", "IBC2", "taylor")


def test_malformed_json_exits_2_without_output(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"geometry": ', encoding="utf-8")
    out = tmp_path / "out"
    assert run("solve", "--config", str(bad), "--out", str(out),
               "--quiet") == 2
    assert not out.exists()


@pytest.mark.parametrize("field, override", [
    ("sweep.angles_deg", {"sweep.angles_deg": {"start": 0.0, "stop": 360.0,
                                               "step": 0.0}}),
    ("sweep.angles_deg", {"sweep.angles_deg": {"start": 0.0, "stop": 360.0,
                                               "step": -5.0}}),
    ("sweep.angles_deg", {"sweep.angles_deg": {"start": 10.0, "stop": 10.0,
                                               "step": 1.0}}),
    ("sweep.angles_deg", {"sweep.angles_deg": []}),
    ("sweep.angles_deg", {"sweep": {"kind": "monostatic-angle",
                                    "angles_deg": []}}),
    ("sweep.phi_inc_deg", {"sweep.phi_inc_deg": "north"}),
    ("geometry", {"geometry": "circle"}),
    ("coating", {"coating": 4.0}),
    ("ibc", {"ibc": [1]}),
    ("sweep", {"sweep": "bistatic"}),
    ("table", {"table": 3}),
    ("series", {"series": "n_max"}),
    ("coating.eps_r", {"coating.eps_r": [float("nan"), -0.5]}),
    ("coating.eps_r", {"coating.eps_r": "nan"}),
    ("coating.d", {"coating.d": float("nan")}),
    ("frequency", {"frequency": float("inf")}),
    ("lambda0_reference", {"lambda0_reference": float("inf")}),
    ("geometry.n_elements", {"geometry.n_elements": float("inf")}),
    ("series.n_max", {"series.n_max": float("inf")}),
    ("geometry.n_elements", {"geometry.n_elements": 64.9}),
    ("geometry.n_elements", {"geometry.n_elements": 6}),
    ("series.n_max", {"series.n_max": 40.7}),
    ("geometry.radius", {"geometry.radius": float("nan")}),
    ("sweep.phi_inc_deg", {"sweep.phi_inc_deg": float("nan")}),
    ("sweep.phi_inc_deg", {"sweep.phi_inc_deg": "inf"}),
    ("sweep.angles_deg", {"sweep.angles_deg": [0.0, float("nan"), 10.0]}),
    ("sweep.angles_deg", {"sweep.angles_deg": [10.0, 5.0, 20.0]}),
    ("sweep.frequencies_hz", {"sweep": {"kind": "monostatic-frequency",
                                        "frequencies_hz": [2e8, 1e8, 3e8]}}),
    ("table.theta_deg", {"table.theta_deg": [float("nan")]}),
    ("table.theta_deg", {"table.theta_deg": [0.0, 45.0, 90.0]}),
    ("table.theta_deg", {"table.theta_deg": [-10.0, 45.0]}),
    ("lambda0_reference", {"lambda0_reference": -3e8}),
    ("lambda0_reference", {"lambda0_reference": -3e8,
                           "geometry.radius": "1 lambda0",
                           "coating.d": "0.1 lambda0"}),
    ("frequency", {"frequency": -3e8}),
    ("ibc.collocation_angles", {"ibc": {"order": 1, "fit_method": "collocation",
                                        "collocation_angles": [20.0, 40.0,
                                                               60.0, 80.0]}}),
    ("ibc.collocation_angles", {"ibc": {"order": 2, "fit_method": "collocation",
                                        "collocation_angles": [30.0, 60.0]}}),
    ("ibc.collocation_angles", {"ibc": {"order": 1, "fit_method": "collocation",
                                        "collocation_angles": [30.0, 90.0]}}),
], ids=["step-zero", "step-negative", "start-equals-stop", "empty-list",
        "monostatic-empty", "phi-inc-text", "geometry-string",
        "coating-number", "ibc-list", "sweep-string", "table-number",
        "series-string", "eps-nan", "eps-nan-text", "thickness-nan",
        "frequency-inf", "lambda0-inf", "n-elements-inf", "n-max-inf",
        "n-elements-fraction", "n-elements-below-mesh-floor", "n-max-fraction",
        "radius-nan", "phi-inc-nan", "phi-inc-inf-text", "angle-nan",
        "angles-not-increasing", "frequencies-not-increasing",
        "theta-nan", "theta-90", "theta-negative", "lambda0-negative",
        "lambda0-negative-lengths",
        "frequency-negative", "colloc-count-ibc1", "colloc-count-ibc2",
        "colloc-range"])
def test_unusable_config_exits_2_without_output(tmp_path, field, override):
    cfg = put(tmp_path, "bad.json", CYLINDER, **override)
    with open(cfg, encoding="utf-8") as fh:
        raw = json.load(fh)
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert err.value.fields.count(field) == 1
    out = tmp_path / "out"
    assert run("solve", "--config", cfg, "--out", str(out), "--quiet") == 2
    assert not out.exists()


def test_collocation_angles_message_prints_plain_floats():
    raw = json.loads(json.dumps(CYLINDER))
    raw["ibc"] = {"order": 1, "fit_method": "collocation",
                  "collocation_angles": [30, 90]}
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert "got [30.0, 90.0]" in str(err.value)
    assert "np." not in str(err.value)


# --- oracle ------------------------------------------------------------------

def test_oracle_matches_library(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("oracle", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    pat = rcs_csv_parse((tmp_path / "oracle_te.csv").read_text())
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0,
                              2.0 * np.pi * 299792458.0 / 299792458.0)
    ref = series_coated_cylinder(spec, "TE", np.arange(0.0, 360.0, 5.0))
    assert np.max(np.abs(pat.sigma - ref.sigma)) <= 1e-12
    assert "n_max" in pat.meta and "tail_ratio" in pat.meta
    assert float(pat.meta["tail_ratio"]) <= 1e-10


def test_oracle_frozen_paper_curve(tmp_path):
    # regenerated bit-identically: the full 1-degree TE curve for the
    # thick lossy coating, pinned by hash after validation against the
    # solver, the mode-by-mode impedance equivalence and the same series
    # on mpmath Bessel values (test_series_independent_of_bessel_library)
    cfg = put(tmp_path, "c.json", CYLINDER,
              **{"sweep.angles_deg": {"start": 0.0, "stop": 360.0, "step": 1.0}})
    assert run("oracle", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    digest = hashlib.sha256((tmp_path / "oracle_te.csv").read_bytes())
    assert digest.hexdigest() == \
        "542e24750802d32c8f3a5d857020b97db581a276a74f71df49069972d5ea72bc"


def test_oracle_evaluates_the_series_once(tmp_path, monkeypatch):
    # one coated-cylinder series: Bessel J/Y at k0 b, k1 b and k1 a, for
    # the curve and the tail_ratio header alike
    calls = []
    bessel_jy = analysis.bessel_jy

    def counted(*args):
        calls.append(args)
        return bessel_jy(*args)

    monkeypatch.setattr("hoibc2d.analysis.bessel_jy", counted)
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("oracle", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    assert len(calls) == 3


def test_oracle_overflowing_series_exits_3(tmp_path):
    # a lossy coating whose Bessel values overflow (|Im k1 b| ~ 740) is a
    # numerical failure (TruncationError), not an unusable config
    cfg = put(tmp_path, "c.json", CYLINDER, polarization="TM",
              frequency=100.0 * 299792458.0 / (2.0 * np.pi),
              **{"coating.eps_r": [10.0, -100.0]})
    out = tmp_path / "out"
    assert run("oracle", "--config", cfg, "--out", str(out), "--quiet") == 3
    assert not (out / "oracle_tm.csv").exists()


def test_oracle_pec_degeneration(tmp_path):
    cfg = put(tmp_path, "pec.json", CYLINDER, coating={"d": 0.0},
              polarization="TM")
    assert run("oracle", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    pat = rcs_csv_parse((tmp_path / "oracle_tm.csv").read_text())
    ref = series_pec_cylinder(1.0, 2.0 * np.pi, "TM",
                              np.arange(0.0, 360.0, 5.0), n_max=22)
    assert np.max(np.abs(pat.sigma - ref.sigma)) <= 1e-12


def test_oracle_refuses_plates(tmp_path):
    cfg = put(tmp_path, "p.json", PLATE)
    assert run("oracle", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 2


# --- solve -------------------------------------------------------------------

def test_solve_writes_curve_and_currents(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    pat = rcs_csv_parse((tmp_path / "rcs_te_ibc1.csv").read_text())
    assert pat.angles.size == 72
    assert pat.meta["pol"] == "TE" and pat.meta["ibc"] == "IBC1"
    assert "geometry" in pat.meta
    for volatile in ("rcond", "residual", "assembly_seconds",
                     "compose_seconds", "solve_seconds"):
        assert volatile not in pat.meta
    body = [ln for ln in (tmp_path / "currents_te_ibc1.csv").read_text()
            .splitlines() if not ln.startswith("#")]
    assert body[0] == "node,x,y,Re_J,Im_J,Re_M,Im_M"
    assert len(body) == 1 + 48


def test_solve_deterministic_bytes(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    for sub in ("a", "b"):
        assert run("solve", "--config", cfg, "--out", str(tmp_path / sub),
                   "--quiet") == 0
    for name in ("rcs_te_ibc1.csv", "currents_te_ibc1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_solve_orders_share_geometry_hash(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    hashes = set()
    for ibc in ("0", "1", "2"):
        assert run("solve", "--config", cfg, "--out", str(tmp_path),
                   "--ibc", ibc, "--quiet") == 0
        pat = rcs_csv_parse((tmp_path / f"rcs_te_ibc{ibc}.csv").read_text())
        hashes.add(pat.meta["geometry"])
    assert len(hashes) == 1


def test_solve_plate_endpoints_pinned(tmp_path):
    cfg = put(tmp_path, "p.json", PLATE)
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "currents_te_ibc1.csv").read_text().splitlines()
            if ln and not ln.startswith(("#", "node"))]
    first, last = rows[0], rows[-1]
    assert first[3:] == ["0.0", "0.0", "0.0", "0.0"]
    assert last[3:] == ["0.0", "0.0", "0.0", "0.0"]
    interior = rows[len(rows) // 2]
    assert any(float(v) != 0.0 for v in interior[3:])


def test_solve_monostatic_angle(tmp_path):
    cfg = put(tmp_path, "m.json", CYLINDER,
              sweep={"kind": "monostatic-angle",
                     "angles_deg": [0.0, 45.0, 90.0]})
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    pat = rcs_csv_parse((tmp_path / "rcs_te_ibc1.csv").read_text())
    # a circle cannot tell incidence directions apart
    assert np.max(pat.sigma) - np.min(pat.sigma) <= 1e-6
    assert not (tmp_path / "currents_te_ibc1.csv").exists()


def test_solve_monostatic_frequency(tmp_path):
    cfg = put(tmp_path, "f.json", CYLINDER,
              **{"geometry.radius": 0.044, "geometry.n_elements": 40,
                 "coating.d": 0.0015,
                 "sweep": {"kind": "monostatic-frequency",
                           "frequencies_hz": [3.0e9, 3.5e9, 4.0e9]}})
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    pat = rcs_csv_parse((tmp_path / "rcs_te_ibc1.csv").read_text())
    assert pat.meta["axis"] == "freq_GHz"
    assert np.array_equal(pat.angles, [3.0, 3.5, 4.0])
    assert np.all(np.isfinite(pat.sigma))


def test_solve_resonant_coating_exits_3(tmp_path):
    # lossless quarter-wave layer: the layer impedance has a pole and
    # the fit must refuse rather than emit garbage
    cfg = put(tmp_path, "r.json", CYLINDER,
              coating={"eps_r": 1.0, "mu_r": 1.0, "d": 0.25})
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 3


def test_solve_failing_far_field_tail_exits_3(tmp_path, monkeypatch):
    # too few far-field modes for the circle: refused, no curve written
    monkeypatch.setattr("hoibc2d.analysis._mode_count", lambda z: 3)
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("solve", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 3
    assert not list(tmp_path.glob("rcs_*.csv"))


@pytest.mark.parametrize("base", ["circle", "plate"])
def test_solve_above_memory_exits_2_naming_n_elements(tmp_path, monkeypatch,
                                                      caplog, base):
    # a mesh whose solve would not fit in memory is refused before the
    # kernel pass, with the config field to change
    monkeypatch.setattr("hoibc2d.assembly._available_memory", lambda: 2**16)
    cfg = put(tmp_path, "c.json", CYLINDER if base == "circle" else PLATE)
    with caplog.at_level(logging.ERROR, logger="hoibc2d"):
        assert run("solve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet") == 2
    assert "geometry.n_elements" in caplog.text
    assert not list(tmp_path.glob("rcs_*.csv"))


@pytest.mark.parametrize("sweep", ["bistatic", "monostatic-frequency"])
def test_solve_too_coarse_exits_2_before_fit(tmp_path, monkeypatch, caplog,
                                             sweep):
    # 16 elements on a 1 m circle at 3 GHz, k0 h ~ 27 (a frequency sweep
    # is refused at its last frequency, not at the configured one):
    # refused with the config field to change, before any coefficient fit
    fits = []
    monkeypatch.setattr("hoibc2d.cli.fit_coefficients",
                        lambda *a, **k: fits.append(a))
    override = {"geometry.n_elements": 16, "frequency": 3.0e9}
    if sweep != "bistatic":
        override = {"geometry.n_elements": 16, "frequency": 1.0e9,
                    "sweep": {"kind": sweep,
                              "frequencies_hz": [1.0e9, 2.0e9, 3.0e9]}}
    cfg = put(tmp_path, "c.json", CYLINDER, **override)
    with caplog.at_level(logging.ERROR, logger="hoibc2d"):
        assert run("solve", "--config", cfg, "--out", str(tmp_path),
                   "--quiet") == 2
    assert "geometry.n_elements" in caplog.text
    assert "k0*h = 26.986" in caplog.text
    assert fits == []
    assert not list(tmp_path.glob("rcs_*.csv"))


# --- impedance table ---------------------------------------------------------

def test_impedance_table_structure(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("impedance-table", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    text = (tmp_path / "impedance_table_te.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0].split(",") == [
        "theta_deg", "Re_Zexact", "Im_Zexact", "Re_Zibc0", "Im_Zibc0",
        "Re_Zibc1", "Im_Zibc1", "Re_Zibc2", "Im_Zibc2",
        "err_ibc0", "err_ibc1", "err_ibc2"]
    assert len(lines) == 1 + 90
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    # every fit interpolates the exact impedance at normal incidence
    assert float(row0[-3]) == 0.0
    assert float(row0[-2]) <= 1e-10 and float(row0[-1]) <= 1e-10
    # second run, identical bytes
    assert run("impedance-table", "--config", cfg, "--out",
               str(tmp_path / "again"), "--quiet") == 0
    assert (tmp_path / "again" / "impedance_table_te.csv").read_text() == text


def test_impedance_table_fit_override(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("impedance-table", "--config", cfg, "--out", str(tmp_path),
               "--fit", "collocation", "--quiet") == 0
    text = (tmp_path / "impedance_table_te.csv").read_text()
    assert "# fit_method=collocation" in text


def test_impedance_table_taylor(tmp_path):
    """The Taylor fit exists for TE IBC1 only: it fits the configured order
    and Pade fits the others."""
    cfg = put(tmp_path, "c.json", CYLINDER,
              ibc={"order": 1, "fit_method": "taylor"})
    assert run("impedance-table", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    text = (tmp_path / "impedance_table_te.csv").read_text()
    assert "# fit_method_by_order=IBC0:pade,IBC1:taylor,IBC2:pade" in text
    k0 = float(text.split("# k0=")[1].split()[0])
    coating = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    for method, column in (("taylor", 5), ("pade", 7)):
        order = "IBC1" if method == "taylor" else "IBC2"
        fit = fit_coefficients(coating, "TE", k0, order, method=method)
        for ln in lines[1:]:
            row = [float(v) for v in ln.split(",")]
            z = eval_rational(fit, -np.sin(np.deg2rad(row[0])) ** 2)
            assert (row[column], row[column + 1]) == (z.real, z.imag)


def test_impedance_table_configured_angles(tmp_path):
    """The configured angles belong to the configured order: the IBC1
    columns interpolate Z there, IBC2 keeps its default nodes."""
    cfg = put(tmp_path, "c.json", CYLINDER,
              ibc={"order": 1, "fit_method": "collocation",
                   "collocation_angles": [25.0, 65.0]})
    assert run("impedance-table", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    text = (tmp_path / "impedance_table_te.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = {float(r[0]): [float(v) for v in r[1:]]
            for r in (ln.split(",") for ln in lines[1:])}

    def rel_err(deg, column):
        v = rows[deg]
        return abs(complex(v[column], v[column + 1]) - complex(v[0], v[1])) \
            / abs(complex(v[0], v[1]))

    for deg in (25.0, 65.0):
        assert rel_err(deg, 4) <= 1e-10          # IBC1
    for deg in (20.0, 40.0, 60.0, 80.0):
        assert rel_err(deg, 6) <= 1e-10          # IBC2
    # not the IBC1 default nodes (30 and 60 degrees)
    assert rel_err(30.0, 4) > 1e-6


# --- check -------------------------------------------------------------------

def test_check_reports_and_exits_zero(tmp_path, capsys):
    cfg = put(tmp_path, "c.json", CYLINDER)
    assert run("check", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    out = capsys.readouterr().out
    assert "suc.applicable=True" in out
    assert "suc.passed=" in out
    assert "wellposed.passed=" in out
    # the lossy-coating fit fails some equality clauses, and that must
    # not turn into a nonzero exit: the checker reports, never enforces
    assert "pass=False" in out
    assert (tmp_path / "check_te_ibc1.txt").read_text() == out


def test_check_ibc0_not_applicable(tmp_path, capsys):
    cfg = put(tmp_path, "c.json", CYLINDER, ibc={"order": 0})
    assert run("check", "--config", cfg, "--out", str(tmp_path),
               "--quiet") == 0
    out = capsys.readouterr().out
    assert "suc.applicable=False" in out
    assert "wellposed.applicable=False" in out


# --- compare -----------------------------------------------------------------

def test_compare_identical_files(tmp_path, capsys):
    cfg = put(tmp_path, "c.json", CYLINDER)
    run("oracle", "--config", cfg, "--out", str(tmp_path), "--quiet")
    f = str(tmp_path / "oracle_te.csv")
    assert run("compare", f, f, "--threshold-db", "1e-12", "--quiet") == 0
    out = capsys.readouterr().out
    assert "compare.max_abs_dB=0.0" in out
    assert "compare.passed=True" in out


def test_compare_converged_truncations_agree(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    run("oracle", "--config", cfg, "--out", str(tmp_path), "--quiet")
    deeper = put(tmp_path, "c2.json", CYLINDER, series={"n_max": 40},
                 outputs={"rcs": "oracle_deep.csv"})
    run("oracle", "--config", deeper, "--out", str(tmp_path), "--quiet")
    assert run("compare", str(tmp_path / "oracle_te.csv"),
               str(tmp_path / "oracle_deep.csv"),
               "--threshold-db", "1e-6", "--quiet") == 0


def test_compare_threshold_failure_exits_4(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    run("oracle", "--config", cfg, "--out", str(tmp_path), "--quiet")
    other = put(tmp_path, "tm.json", CYLINDER, polarization="TM")
    run("oracle", "--config", other, "--out", str(tmp_path), "--quiet")
    assert run("compare", str(tmp_path / "oracle_te.csv"),
               str(tmp_path / "oracle_tm.csv"),
               "--threshold-db", "0.5", "--quiet") == 4


def test_compare_grid_mismatch_exits_2(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    run("oracle", "--config", cfg, "--out", str(tmp_path), "--quiet")
    finer = put(tmp_path, "fine.json", CYLINDER,
                **{"sweep.angles_deg": {"start": 0.0, "stop": 360.0,
                                        "step": 1.0}},
                outputs={"rcs": "oracle_fine.csv"})
    run("oracle", "--config", finer, "--out", str(tmp_path), "--quiet")
    assert run("compare", str(tmp_path / "oracle_te.csv"),
               str(tmp_path / "oracle_fine.csv"), "--quiet") == 2


def test_compare_missing_file_exits_2(tmp_path):
    cfg = put(tmp_path, "c.json", CYLINDER)
    run("oracle", "--config", cfg, "--out", str(tmp_path), "--quiet")
    assert run("compare", str(tmp_path / "oracle_te.csv"),
               str(tmp_path / "nope.csv"), "--quiet") == 2


# --- round trip and plumbing ---------------------------------------------------

def test_rcs_csv_parse_roundtrip():
    from hoibc2d.analysis import RcsPattern
    pat = RcsPattern(angles=[0.0, 0.5, 2.0], sigma=[-1.5, 3.25, 0.0],
                     meta={"pol": "TM", "axis": "angle_deg", "ibc": "exact"})
    back = rcs_csv_parse(rcs_csv_text(pat))
    assert np.array_equal(back.angles, pat.angles)
    assert np.array_equal(back.sigma, pat.sigma)
    assert back.meta["pol"] == "TM"
    with pytest.raises(ValidationError, match="no data rows"):
        rcs_csv_parse("# pol=TE\n")
    with pytest.raises(ValidationError, match="header"):
        rcs_csv_parse("bogus,columns,here\n0.0,1.0,2.0\n")


def test_quiet_gates_info_logging(tmp_path, caplog):
    cfg = put(tmp_path, "c.json", CYLINDER)
    pkg = logging.getLogger("hoibc2d")
    old = pkg.level
    try:
        with caplog.at_level(logging.DEBUG):
            run("impedance-table", "--config", cfg, "--out", str(tmp_path),
                "--quiet")
            quiet_records = [r for r in caplog.records
                             if r.levelno == logging.INFO]
            caplog.clear()
            run("impedance-table", "--config", cfg, "--out", str(tmp_path))
            loud_records = [r for r in caplog.records
                            if r.levelno == logging.INFO]
    finally:
        pkg.setLevel(old)
    assert not quiet_records
    assert loud_records


def test_module_entry_point():
    # the child finds the package wherever this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(hoibc2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hoibc2d.cli", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("impedance-table", "check", "solve", "oracle", "compare"):
        assert sub in proc.stdout
