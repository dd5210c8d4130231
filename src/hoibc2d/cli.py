"""Command-line driver: fit tables, coefficient checks, solves, references.

Configs are single JSON files with metric units throughout (meters,
hertz, degrees).  A top-level ``lambda0_reference`` frequency lets any
length be written as a string like ``"0.1 lambda0"``, converted at parse
time; everything downstream sees meters.  For circles the geometry
``radius`` is the conductor radius — the solver meshes the coating
surface at ``radius + coating.d``, which is also where the boundary
condition lives.

Result files are written atomically (temp file + rename) and are
byte-identical across runs of the same config.  Run diagnostics —
condition estimates, timings — go to the log, never into result files.
"""

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (
    SeriesSolutionSpec,
    _coated_cylinder_pattern,
    compare_rcs,
    cylinder_modes,
    monostatic_sweep,
    rcs_csv_parse,
    rcs_csv_text,
    solve_and_pattern,
)
from .assembly import IncidentWave, _check_resolution, check_memory
from .errors import HoibcError, MeshError, UsageError, ValidationError
from .geometry import _MIN_ELEMENTS, contour_hash, mesh_circle, mesh_plate
from .impedance import (
    CoatingSpec,
    eval_rational,
    exact_impedance,
    fit_coefficients,
    suc_check_ibc1,
    suc_check_ibc2,
    wellposedness_check,
)
from .specfun import C0

log = logging.getLogger("hoibc2d.cli")

ORDERS = ("IBC0", "IBC1", "IBC2")
FIT_METHODS = ("taylor", "pade", "collocation")


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run description; lengths in meters, k0 in 1/m."""

    kind: str                     # circle | plate
    size: float                   # conductor radius or plate length
    n_elements: int
    eps_r: complex
    mu_r: complex
    d: float                      # coating thickness; 0 only for references
    k0: float
    pol: str
    ibc_order: str
    fit_method: str
    collocation_deg: Optional[tuple]
    sweep_kind: str               # bistatic | monostatic-angle | monostatic-frequency
    phi_inc_deg: float
    angles_deg: Optional[np.ndarray]
    frequencies_hz: Optional[np.ndarray]
    table_theta_deg: np.ndarray
    n_max: Optional[int]
    outputs: dict

    def coating(self):
        return CoatingSpec(self.eps_r, self.mu_r, self.d)


def _finite(value):
    """float(value); ValueError unless it is a finite number."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _whole(value):
    """int(value); ValueError unless it is a whole number (a number with a
    fractional part is not truncated)."""
    n = int(value)
    if isinstance(value, float) and n != value:
        raise ValueError(f"{value!r} is not a whole number")
    return n


def _as_complex(value, name, bad):
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(_finite(value[0]), _finite(value[1]))
        z = complex(value.replace(" ", "") if isinstance(value, str)
                    else float(value))
        return complex(_finite(z.real), _finite(z.imag))
    except (TypeError, ValueError):
        bad.append((name, f"{name}: cannot read {value!r} as a finite "
                          "complex number"))
        return 0j


def _as_length(value, name, lam0, bad):
    """The length in meters; NaN once a fault is recorded, so that no
    later comparison records the same field again."""
    if isinstance(value, str):
        parts = value.replace("*", " ").split()
        if len(parts) == 2 and parts[1] == "lambda0":
            if lam0 is None:
                bad.append((name, f"{name}: {value!r} needs lambda0_reference"))
                return np.nan
            try:
                return _finite(parts[0]) * lam0
            except ValueError:
                pass
        bad.append((name, f"{name}: cannot read {value!r} as a length"))
        return np.nan
    try:
        return _finite(value)
    except (TypeError, ValueError):
        bad.append((name, f"{name}: cannot read {value!r} as a length"))
        return np.nan


def _as_grid(value, name, bad):
    if isinstance(value, dict):
        try:
            grid = np.arange(_finite(value["start"]), _finite(value["stop"]),
                             _finite(value["step"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            bad.append((name, f"{name}: grid spec needs finite start/stop "
                              "and a nonzero step"))
            return None
    else:
        try:
            grid = np.asarray([_finite(v) for v in value], dtype=float)
        except (TypeError, ValueError):
            bad.append((name, f"{name}: cannot read {value!r} as finite "
                              "numbers"))
            return None
    if grid.size == 0:
        bad.append((name, f"{name}: {value!r} holds no values"))
        return None
    return grid


def _section(raw, name, bad):
    """The sub-object ``raw[name]``; {} when absent or not an object."""
    value = raw.get(name, {})
    if isinstance(value, dict):
        return value
    bad.append((name, f"{name} must be a JSON object, got {value!r}"))
    return {}


def load_config(path, pol=None, ibc=None, fit=None):
    """Read and validate a JSON config; CLI flags override config fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}", fields=("config",))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}",
                              fields=("config",))
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object", fields=("config",))
    return parse_config(raw, pol=pol, ibc=ibc, fit=fit)


def parse_config(raw, pol=None, ibc=None, fit=None):
    bad = []

    lam_ref = raw.get("lambda0_reference")
    lam0 = None
    if lam_ref is not None:
        try:
            lam0 = C0 / _finite(lam_ref)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        if lam0 is None or lam0 <= 0.0:
            bad.append(("lambda0_reference", f"lambda0_reference: {lam_ref!r} "
                                             "is not a positive frequency"))
            lam0 = 1.0      # placeholder, so lambda0 lengths add no clause

    # exactly one of frequency / k0
    freq, k0 = raw.get("frequency"), raw.get("k0")
    if (freq is None) == (k0 is None):
        bad.append(("frequency", "exactly one of frequency or k0 is required"))
        k0_val = 1.0
    elif freq is not None:
        try:
            k0_val = 2.0 * np.pi * _finite(freq) / C0
        except (TypeError, ValueError):
            bad.append(("frequency",
                        f"frequency: {freq!r} is not a finite number"))
            k0_val = 1.0
        if k0_val <= 0.0:
            bad.append(("frequency", "frequency must be positive"))
    else:
        try:
            k0_val = _finite(k0)
        except (TypeError, ValueError):
            bad.append(("k0", f"k0: {k0!r} is not a finite number"))
            k0_val = 1.0
        if k0_val <= 0.0:
            bad.append(("k0", "wavenumber must be positive"))

    geo = _section(raw, "geometry", bad)
    kind = str(geo.get("kind", "")).lower()
    if kind not in ("circle", "plate"):
        bad.append(("geometry.kind",
                    f"geometry.kind must be circle or plate, got {geo.get('kind')!r}"))
    size_field = "radius" if kind == "circle" else "length"
    size = _as_length(geo.get(size_field, geo.get("size")),
                      f"geometry.{size_field}", lam0, bad)
    if size <= 0.0:
        bad.append((f"geometry.{size_field}",
                    f"geometry.{size_field} must be positive"))
    try:
        n_elements = _whole(geo.get("n_elements"))
        if n_elements < _MIN_ELEMENTS:
            bad.append(("geometry.n_elements", "geometry.n_elements must be "
                                               f"at least {_MIN_ELEMENTS}"))
    except (TypeError, ValueError, OverflowError):
        bad.append(("geometry.n_elements",
                    f"geometry.n_elements: {geo.get('n_elements')!r} is not an integer"))
        n_elements = _MIN_ELEMENTS

    coat = _section(raw, "coating", bad)
    eps_r = _as_complex(coat.get("eps_r", 1.0), "coating.eps_r", bad)
    mu_r = _as_complex(coat.get("mu_r", 1.0), "coating.mu_r", bad)
    d = _as_length(coat.get("d", 0.0), "coating.d", lam0, bad)
    if eps_r.imag > 0.0:
        bad.append(("coating.eps_r", "Im(eps_r) > 0 is a gain medium"))
    if mu_r.imag > 0.0:
        bad.append(("coating.mu_r", "Im(mu_r) > 0 is a gain medium"))
    if d < 0.0:
        bad.append(("coating.d", "coating thickness cannot be negative"))

    pol_val = (pol or raw.get("polarization", "")).upper()
    if pol_val not in ("TE", "TM"):
        bad.append(("polarization",
                    f"polarization must be te or tm, got {pol_val or None!r}"))
        pol_val = "TE"

    ibc_cfg = _section(raw, "ibc", bad)
    order_raw = ibc if ibc is not None else ibc_cfg.get("order", 1)
    order = str(order_raw).upper()
    if order in ("0", "1", "2"):
        order = f"IBC{order}"
    if order not in ORDERS:
        bad.append(("ibc.order", f"ibc.order must be 0, 1, or 2, got {order_raw!r}"))
        order = "IBC1"
    method = (fit or ibc_cfg.get("fit_method", "pade")).lower()
    if method not in FIT_METHODS:
        bad.append(("ibc.fit_method",
                    f"ibc.fit_method must be one of {FIT_METHODS}, got {method!r}"))
        method = "pade"
    colloc = ibc_cfg.get("collocation_angles")
    if colloc is not None:
        grid = _as_grid(colloc, "ibc.collocation_angles", bad)
        colloc = tuple(grid.tolist()) if grid is not None else None
    need = 2 * ORDERS.index(order)          # IBC0 fits no angles
    if colloc and need and len(colloc) != need:
        bad.append(("ibc.collocation_angles",
                    f"ibc.collocation_angles: {order} collocation takes "
                    f"{need} angles, got {len(colloc)}"))
    elif colloc and not all(0.0 < t < 90.0 for t in colloc):
        bad.append(("ibc.collocation_angles",
                    "ibc.collocation_angles: angles must lie in (0, 90) "
                    f"degrees, got {list(colloc)}"))

    sweep = _section(raw, "sweep", bad)
    sweep_kind = str(sweep.get("kind", "bistatic")).lower()
    angles = None
    freqs = None
    try:
        phi_inc = _finite(sweep.get("phi_inc_deg", 0.0))
    except (TypeError, ValueError):
        bad.append(("sweep.phi_inc_deg", "sweep.phi_inc_deg: "
                    f"{sweep.get('phi_inc_deg')!r} is not a finite number"))
        phi_inc = 0.0
    if sweep_kind in ("bistatic", "monostatic-angle"):
        angles = _as_grid(sweep.get("angles_deg",
                                    {"start": 0.0, "stop": 360.0, "step": 1.0}),
                          "sweep.angles_deg", bad)
    elif sweep_kind == "monostatic-frequency":
        freqs = _as_grid(sweep.get("frequencies_hz"), "sweep.frequencies_hz", bad)
    else:
        bad.append(("sweep.kind",
                    "sweep.kind must be bistatic, monostatic-angle, or "
                    f"monostatic-frequency, got {sweep.get('kind')!r}"))
    for name, grid in (("sweep.angles_deg", angles),
                       ("sweep.frequencies_hz", freqs)):
        if grid is not None and np.any(np.diff(grid) <= 0.0):
            bad.append((name, f"{name}: values must be strictly increasing"))

    table = _section(raw, "table", bad)
    theta = _as_grid(table.get("theta_deg",
                               {"start": 0.0, "stop": 90.0, "step": 1.0}),
                     "table.theta_deg", bad)
    if theta is not None and not np.all((theta >= 0.0) & (theta < 90.0)):
        bad.append(("table.theta_deg", "table.theta_deg: angles must lie in "
                                       f"[0, 90) degrees, got {theta.tolist()}"))

    series = _section(raw, "series", bad)
    n_max = series.get("n_max")
    if n_max is not None:
        try:
            n_max = _whole(n_max)
        except (TypeError, ValueError, OverflowError):
            bad.append(("series.n_max", f"series.n_max: {n_max!r} is not an integer"))
            n_max = None

    outputs = _section(raw, "outputs", bad)

    if bad:
        raise ValidationError("; ".join(msg for _, msg in bad),
                              fields=tuple(name for name, _ in bad))
    return RunConfig(
        kind=kind, size=size, n_elements=n_elements,
        eps_r=eps_r, mu_r=mu_r, d=d, k0=k0_val,
        pol=pol_val, ibc_order=order, fit_method=method,
        collocation_deg=colloc, sweep_kind=sweep_kind, phi_inc_deg=phi_inc,
        angles_deg=angles, frequencies_hz=freqs, table_theta_deg=theta,
        n_max=n_max, outputs=dict(outputs),
    )


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".part-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    log.info("wrote %s", path)


def _fit_method(cfg, order):
    """The Taylor fit exists for TE IBC1 only: it goes to the configured
    order, and every other order is fitted by Pade."""
    if cfg.fit_method == "taylor" and order != cfg.ibc_order:
        return "pade"
    return cfg.fit_method


def _fit(cfg, order, k0=None):
    """Fit ``order``; the configured collocation angles belong to the
    configured order, every other order collocates at its default nodes."""
    thetas = None
    if cfg.fit_method == "collocation" and cfg.collocation_deg \
            and order == cfg.ibc_order:
        thetas = tuple(np.deg2rad(cfg.collocation_deg))
    return fit_coefficients(cfg.coating(), cfg.pol, k0 or cfg.k0, order,
                            method=_fit_method(cfg, order), thetas=thetas)


def _contour(cfg):
    if cfg.kind == "circle":
        return mesh_circle(cfg.size + cfg.d, cfg.n_elements)
    return mesh_plate(cfg.size, cfg.n_elements)


def _warn_checks(coeffs):
    """SUC / coercivity report, warn-only: fitted coefficients rarely
    satisfy the equalities exactly and the solve must still run."""
    if coeffs.order == "IBC0":
        return
    report = suc_check_ibc1(coeffs) if coeffs.order == "IBC1" \
        else suc_check_ibc2(coeffs)
    for name, value, _tol, ok in report.clauses:
        if not ok:
            log.warning("uniqueness clause failed (continuing): %s  value=%s",
                        name, value)
    wp = wellposedness_check(coeffs)
    if not wp.passed:
        log.warning("coercivity identity off by %s (continuing)",
                    wp.clauses[0][1])


def _tag(cfg):
    return f"{cfg.pol.lower()}_{cfg.ibc_order.lower()}"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_impedance_table(cfg, out_dir):
    """Exact vs fitted impedance over the incidence-angle sweep, as CSV."""
    fits = {order: _fit(cfg, order) for order in ORDERS}
    lines = [
        f"# coating_eps_r={cfg.eps_r}",
        f"# coating_mu_r={cfg.mu_r}",
        f"# coating_d={cfg.d!r}",
        f"# fit_method={cfg.fit_method}",
        "# fit_method_by_order="
        + ",".join(f"{o}:{_fit_method(cfg, o)}" for o in ORDERS),
        f"# k0={cfg.k0!r}",
        f"# note=values follow the spectral fit convention; the physical "
        "surface impedance is i times the tabulated value",
        f"# pol={cfg.pol}",
        "theta_deg,Re_Zexact,Im_Zexact,Re_Zibc0,Im_Zibc0,Re_Zibc1,Im_Zibc1,"
        "Re_Zibc2,Im_Zibc2,err_ibc0,err_ibc1,err_ibc2",
    ]
    worst = dict.fromkeys(ORDERS, 0.0)
    for deg in cfg.table_theta_deg:
        xi = -np.sin(np.deg2rad(deg)) ** 2
        z_ex = exact_impedance(cfg.pol, xi, cfg.coating(), cfg.k0)
        zs = [eval_rational(fits[o], xi) for o in ORDERS]
        errs = [abs(z - z_ex) for z in zs]
        for o, e in zip(ORDERS, errs):
            worst[o] = max(worst[o], e)
        cells = [repr(float(deg)), repr(z_ex.real), repr(z_ex.imag)]
        for z in zs:
            cells += [repr(z.real), repr(z.imag)]
        cells += [repr(e) for e in errs]
        lines.append(",".join(cells))
    name = cfg.outputs.get("table", f"impedance_table_{cfg.pol.lower()}.csv")
    path = os.path.join(out_dir, name)
    _write_atomic(path, "\n".join(lines) + "\n")
    log.info("max |Z_fit - Z_exact| over the sweep: %s",
             " ".join(f"{o}={worst[o]:.4e}" for o in ORDERS))
    return [path]


def _clause_lines(prefix, report):
    lines = [f"{prefix}.tolerance={report.tolerance!r}"]
    for i, (name, value, tol, ok) in enumerate(report.clauses, start=1):
        lines.append(f"{prefix}.clause.{i}.name={name}")
        lines.append(f"{prefix}.clause.{i}.value={value!r}")
        lines.append(f"{prefix}.clause.{i}.tol={tol!r}")
        lines.append(f"{prefix}.clause.{i}.pass={ok}")
    lines.append(f"{prefix}.passed={report.passed}")
    return lines


def cmd_check(cfg, out_dir):
    """Uniqueness/coercivity clause report; informative, never blocking."""
    lines = [
        f"# coefficient check: {cfg.ibc_order} {cfg.pol} {cfg.fit_method}",
        f"# coating eps_r={cfg.eps_r} mu_r={cfg.mu_r} d={cfg.d!r} k0={cfg.k0!r}",
        f"check.order={cfg.ibc_order}",
        f"check.pol={cfg.pol}",
        f"check.fit_method={cfg.fit_method}",
    ]
    if cfg.ibc_order == "IBC0":
        lines += [
            "suc.applicable=False",
            "wellposed.applicable=False",
            "# the zeroth-order coefficient carries no uniqueness clauses;"
            " nothing to check",
        ]
    else:
        coeffs = _fit(cfg, cfg.ibc_order)
        suc = suc_check_ibc1(coeffs) if cfg.ibc_order == "IBC1" \
            else suc_check_ibc2(coeffs)
        lines += ["suc.applicable=True"]
        lines += _clause_lines("suc", suc)
        wp = wellposedness_check(coeffs)
        lines += ["wellposed.applicable=True"]
        lines += _clause_lines("wellposed", wp)
        n_fail = sum(1 for c in suc.clauses + wp.clauses if not c[3])
        lines.append(
            f"# {len(suc.clauses) + len(wp.clauses) - n_fail} clause(s) passed,"
            f" {n_fail} failed; failures are reported, never enforced")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    name = cfg.outputs.get("report", f"check_{_tag(cfg)}.txt")
    path = os.path.join(out_dir, name)
    _write_atomic(path, text)
    return [path]


def _currents_csv(contour, sol, cfg):
    lines = [
        f"# geometry={contour_hash(contour)}",
        f"# ibc={cfg.ibc_order}",
        f"# k0={cfg.k0!r}",
        f"# pol={cfg.pol}",
        "node,x,y,Re_J,Im_J,Re_M,Im_M",
    ]
    for i, (x, y) in enumerate(contour.nodes):
        j, m = complex(sol.J[i]), complex(sol.M[i])
        lines.append(f"{i},{float(x)!r},{float(y)!r},{j.real!r},{j.imag!r},"
                     f"{m.real!r},{m.imag!r}")
    return "\n".join(lines) + "\n"


def cmd_solve(cfg, out_dir):
    """Fit, check (warn-only), assemble, solve, and emit curve + currents."""
    contour = _contour(cfg)
    log.info("geometry %s: %d elements, hash %s",
             cfg.kind, contour.n_elements, contour_hash(contour))
    # before any fit: enough memory, and enough elements at the largest k0
    k0 = cfg.k0 if cfg.sweep_kind != "monostatic-frequency" \
        else 2.0 * np.pi * cfg.frequencies_hz.max() / C0
    try:
        check_memory(contour)
        _check_resolution(contour, k0)
    except MeshError as exc:
        raise MeshError(f"geometry.n_elements = {cfg.n_elements} does not "
                        f"suit this run: {exc}") from exc
    written = []
    t0 = time.perf_counter()
    if cfg.sweep_kind == "monostatic-frequency":
        def per_freq(f_hz):
            return _fit(cfg, cfg.ibc_order, k0=2.0 * np.pi * f_hz / C0)

        pattern = monostatic_sweep(contour, per_freq, cfg.frequencies_hz,
                                   kind="frequency",
                                   phi_inc_deg=cfg.phi_inc_deg)
        sol = None
    else:
        coeffs = _fit(cfg, cfg.ibc_order)
        _warn_checks(coeffs)
        if cfg.sweep_kind == "monostatic-angle":
            pattern = monostatic_sweep(contour, coeffs, cfg.angles_deg,
                                       kind="angle", k0=cfg.k0)
            sol = None
        else:
            wave = IncidentWave(pol=cfg.pol, k0=cfg.k0,
                                phi_inc=np.deg2rad(cfg.phi_inc_deg))
            pattern, sol = solve_and_pattern(contour, coeffs, wave,
                                             cfg.angles_deg)
            pattern.meta["phi_inc_deg"] = cfg.phi_inc_deg
            log.info("reduced solve: rcond %.3e, residual %.1e, %.3f s",
                     sol.meta["rcond"], sol.meta["residual"],
                     sol.meta["solve_seconds"])
    log.info("%s sweep finished in %.2f s", cfg.sweep_kind,
             time.perf_counter() - t0)
    # run diagnostics live in the log; result files must be byte-stable
    for key in ("compose_seconds", "solve_seconds", "rcond", "residual",
                "coefficients_scaled"):
        pattern.meta.pop(key, None)
    pattern.meta.update({"fit_method": cfg.fit_method,
                         "n_elements": cfg.n_elements})
    name = cfg.outputs.get("rcs", f"rcs_{_tag(cfg)}.csv")
    path = os.path.join(out_dir, name)
    _write_atomic(path, rcs_csv_text(pattern))
    written.append(path)
    if sol is not None:
        name = cfg.outputs.get("currents", f"currents_{_tag(cfg)}.csv")
        path = os.path.join(out_dir, name)
        _write_atomic(path, _currents_csv(contour, sol, cfg))
        written.append(path)
    return written


def cmd_oracle(cfg, out_dir):
    """Modal-series reference curve for the coated (or bare) cylinder."""
    if cfg.kind != "circle":
        raise UsageError("no closed-form reference exists for plates")
    spec = SeriesSolutionSpec(a=cfg.size, d=cfg.d, eps_r=cfg.eps_r,
                              mu_r=cfg.mu_r, k0=cfg.k0, n_max=cfg.n_max)
    mode = "monostatic" if cfg.sweep_kind == "monostatic-angle" else "bistatic"
    if cfg.sweep_kind == "monostatic-frequency":
        raise UsageError("the reference series sweeps angles, not frequencies")
    modes = cylinder_modes(spec, cfg.pol)
    pattern = _coated_cylinder_pattern(spec, cfg.pol, modes, cfg.angles_deg,
                                       mode, cfg.phi_inc_deg)
    # truncation diagnostic for the header: how much the last kept mode
    # could still move the curve
    s_max = np.max(np.sqrt(10.0 ** (pattern.sigma / 10.0) * spec.k0 / 4.0))
    pattern.meta.update({"n_max": spec.n_max,
                         "tail_ratio": repr(float(2.0 * abs(modes[-1]) / s_max)),
                         "fit_method": "none"})
    name = cfg.outputs.get("rcs", f"oracle_{cfg.pol.lower()}.csv")
    path = os.path.join(out_dir, name)
    _write_atomic(path, rcs_csv_text(pattern))
    return [path]


def cmd_compare(file_a, file_b, threshold_db, out_dir=None):
    """Compare two curve files; exit 4 when a threshold is given and missed."""
    try:
        with open(file_a, "r", encoding="utf-8") as fh:
            a = rcs_csv_parse(fh.read())
        with open(file_b, "r", encoding="utf-8") as fh:
            b = rcs_csv_parse(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read curve file: {exc}",
                              fields=("file",))
    if a.meta.get("axis") != b.meta.get("axis"):
        raise UsageError(
            f"axes differ: {a.meta.get('axis')} vs {b.meta.get('axis')}")
    diff = compare_rcs(a, b)
    passed = threshold_db is None or diff.max_abs_dB <= threshold_db
    lines = [
        f"compare.file_a={file_a}",
        f"compare.file_b={file_b}",
        f"compare.n_points={a.angles.size}",
        f"compare.max_abs_dB={diff.max_abs_dB!r}",
        f"compare.mean_abs_dB={diff.mean_abs_dB!r}",
        f"compare.fraction_within_1dB={diff.fraction_within(1.0)!r}",
        f"compare.threshold_dB={threshold_db!r}",
        f"compare.passed={passed}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        _write_atomic(os.path.join(out_dir, "compare_report.txt"), text)
    return 0 if passed else 4


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hoibc2d",
        description="2D scattering from coated conductors with higher-order "
                    "impedance boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: current directory)")
    common.add_argument("--quiet", action="store_true",
                        help="log errors only")

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    config.add_argument("--pol", choices=("te", "tm"),
                        help="override the configured polarization")
    config.add_argument("--ibc", choices=("0", "1", "2"),
                        help="override the configured boundary-condition order")
    config.add_argument("--fit", choices=FIT_METHODS,
                        help="override the configured fit method")

    sub.add_parser("impedance-table", parents=[common, config],
                   help="tabulate exact vs fitted impedance over incidence angle")
    sub.add_parser("check", parents=[common, config],
                   help="report uniqueness/coercivity clauses for the fit")
    sub.add_parser("solve", parents=[common, config],
                   help="boundary-element solve and echo-width curve")
    sub.add_parser("oracle", parents=[common, config],
                   help="modal-series reference curve for the coated cylinder")
    cmp_p = sub.add_parser("compare", parents=[common],
                           help="compare two curve files")
    cmp_p.add_argument("file_a")
    cmp_p.add_argument("file_b")
    cmp_p.add_argument("--threshold-db", type=float, default=None,
                       help="fail (exit 4) when max |diff| exceeds this")
    return parser


def _setup_logging(quiet):
    pkg = logging.getLogger("hoibc2d")
    pkg.setLevel(logging.ERROR if quiet else logging.INFO)
    if not any(isinstance(h, logging.StreamHandler) for h in pkg.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        pkg.addHandler(handler)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _setup_logging(args.quiet)
    try:
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.threshold_db,
                               args.out)
        cfg = load_config(args.config, pol=args.pol, ibc=args.ibc,
                          fit=args.fit)
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        command = {
            "impedance-table": cmd_impedance_table,
            "check": cmd_check,
            "solve": cmd_solve,
            "oracle": cmd_oracle,
        }[args.command]
        command(cfg, out_dir)
        return 0
    except HoibcError as exc:
        log.error("%s", exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
