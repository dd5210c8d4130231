"""Release acceptance: eleven end-to-end gates, one test per criterion.

Each test evaluates its clauses at the stated tolerance, prints one
greppable line

    [accept NN] PASS|FAIL  <measured numbers>

(run pytest with -s to see the lines of passing checks; failing checks
show theirs either way) and then asserts.  Two checks fail deliberately
against this implementation -- the first-order fit-error band (01) and
the 90%-within-1-dB clause of the cylinder oracle comparison (06).
Their assertion messages carry the measured numbers and the reason the
stated bands cannot be reached from these formulas; nothing is loosened
to force them green.

Heavy solves are shared through module-level caches so the file stays
inside the per-check runtime budgets even when run on its own.
"""

import time
from functools import lru_cache

import mpmath as mp
import numpy as np

from hoibc2d import impedance as imp
from hoibc2d.analysis import (
    SeriesSolutionSpec,
    _pec_modes,
    compare_rcs,
    cylinder_modes,
    monostatic_sweep,
    optical_theorem_residual,
    series_coated_cylinder,
    solve_and_pattern,
)
from hoibc2d.assembly import (
    IncidentWave,
    _helmholtz_blocks,
    assemble_blocks,
    build_full_system,
    build_reduced_system,
    solve_currents,
)
from hoibc2d.geometry import Contour, mesh_circle, mesh_plate
from hoibc2d.impedance import CoatingSpec, IbcCoefficients, fit_coefficients
from hoibc2d.specfun import C0, quad_rule

from test_assembly import _brute_pair, _full_solution, _pair_bs
from test_specfun import _wronskian_residual

K0 = 2.0 * np.pi                                 # 1 m wavelength
DEG = np.arange(0.0, 360.0, 1.0)
FIT_COAT = CoatingSpec(4.0, 1.0, 0.005)          # thin lossless fit-band layer
CYL_COAT = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)     # reference coated cylinder
CYL_SPEC = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)


def _report(num, ok, text):
    print(f"[accept {num:02d}] {'PASS' if ok else 'FAIL'}  {text}")


@lru_cache(maxsize=None)
def _circle(n):
    mesh = mesh_circle(1.1, n)
    return mesh, assemble_blocks(mesh, K0)


@lru_cache(maxsize=None)
def _oracle_te():
    return series_coated_cylinder(CYL_SPEC, "TE", DEG)


@lru_cache(maxsize=None)
def _cyl_vs_oracle(order, n):
    """Solver-vs-exact-series comparison for the reference cylinder, TE."""
    mesh, blocks = _circle(n)
    cf = fit_coefficients(CYL_COAT, "TE", K0, order)
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    pat, _ = solve_and_pattern(mesh, cf, wave, DEG, blocks=blocks)
    return compare_rcs(pat, _oracle_te())


# -------------------------------------------------------- 1: fit-error band

def test_accept_01_first_order_fit_band():
    t0 = time.perf_counter()
    errs = {}
    for pol in ("TE", "TM"):
        e1 = imp.max_fit_error(fit_coefficients(FIT_COAT, pol, K0, "IBC1"),
                               FIT_COAT, K0)
        e2 = imp.max_fit_error(fit_coefficients(FIT_COAT, pol, K0, "IBC2"),
                               FIT_COAT, K0)
        errs[pol] = (e1, e2)
    band = max(e1 for e1, _ in errs.values())
    ordering = all(e2 < e1 for e1, e2 in errs.values())
    elapsed = time.perf_counter() - t0
    ok = ordering and 0.30 <= band <= 0.50 and elapsed < 1.0
    _report(1, ok, f"max IBC1 fit error {band:.3e} ohm (band [0.30, 0.50]); "
                   f"IBC2 < IBC1 both pols: {ordering}; {elapsed:.2f} s")
    assert ordering
    assert elapsed < 1.0
    assert 0.30 <= band <= 0.50, (
        f"max |Z_IBC1 - Z_exact| over the 0..89 degree sweep is {band:.3e} ohm "
        "for the thin lossless layer (eps 4, mu 1, d = 0.005 wavelengths) -- "
        "seven orders of magnitude below the required [0.30, 0.50] ohm band.  "
        "At this thickness (k0 d = 0.0314) the exact layer impedance is a "
        "[1/1] rational in xi to within ~1e-7 ohm, so a correct Pade fit "
        "cannot land in the band; an error near 0.39 ohm corresponds to a "
        "layer around d = 0.085 wavelengths.  Kept as stated; fails honestly."
    )


# --------------------------------------------- 2: collocation interpolation

def _random_coating(seed):
    """Frozen recipe: strictly lossy, resonance-free admissible layers."""
    rng = np.random.default_rng(seed)
    eps = complex(rng.uniform(1.5, 8.0), -rng.uniform(0.3, 4.0))
    mu = complex(rng.uniform(0.8, 2.5), -rng.uniform(0.0, 1.0))
    return CoatingSpec(eps, mu, rng.uniform(0.02, 0.2))


def test_accept_02_collocation_interpolation():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        coat = _random_coating(seed)
        for pol in ("TE", "TM"):
            for order, nodes in (("IBC1", imp.DEFAULT_NODES_IBC1),
                                 ("IBC2", imp.DEFAULT_NODES_IBC2)):
                cf = fit_coefficients(coat, pol, K0, order, method="collocation")
                for th in nodes:
                    xi = -np.sin(th) ** 2
                    z = imp.exact_impedance(pol, xi, coat, K0)
                    worst = max(worst,
                                abs(imp.eval_rational(cf, xi) - z) / abs(z))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"worst node interpolation error {worst:.2e} rel over 10 "
                   f"frozen seeds, both orders and pols; {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ------------------------------------------------- 3: Pade order conditions

XI_POINTS = ("-1e-2", "-1e-3", "-1e-4")


def _residual_ratio(coefs, taylor, xi_str):
    """|num - den * T(xi)| / |xi|^len(T) at 60 digits.

    The residual of a correct fit sits ~13 digits below the operand size
    already at xi = -1e-2, far below double precision, so it is formed
    in wide arithmetic from whatever coefficients are supplied.
    """
    a0, a, ap, b, bp = (mp.mpmathify(v) for v in coefs)
    p = len(taylor)
    with mp.workdps(60):
        xi = mp.mpf(xi_str)
        num = a0 + a * xi + ap * xi * xi
        den = 1 + b * xi + bp * xi * xi
        series = sum(mp.mpmathify(c) * xi**k for k, c in enumerate(taylor))
        return float(abs(num - den * series) / abs(xi) ** p)


def test_accept_03_pade_order_conditions():
    t0 = time.perf_counter()
    spreads = {}
    for pol in ("TE", "TM"):
        c1 = fit_coefficients(FIT_COAT, pol, K0, "IBC1", method="pade")
        t2 = imp.taylor_coefficients(FIT_COAT, pol, K0, upto=2)
        r1 = [_residual_ratio((c1.a0, c1.a, 0, c1.b, 0), t2, x)
              for x in XI_POINTS]
        spreads[pol, "IBC1"] = max(r1) / min(r1)
        # Second order on the fit's native-precision output: the xi^5
        # residual at -1e-4 is ~1e-19 ohm, below what double-rounded
        # coefficients can even represent (storage injects ~1e-13 ohm),
        # so the stored values are checked on the two resolvable points.
        with mp.workdps(imp._DPS):
            cs = imp._taylor_coefficients_mp(CYL_COAT, pol, K0, 4)
            (a0, a, ap), (_, b, bp) = imp._pade_mp(cs, 2)
            r2 = [_residual_ratio((a0, a, ap, b, bp), cs, x)
                  for x in XI_POINTS]
        spreads[pol, "IBC2"] = max(r2) / min(r2)
        c2 = fit_coefficients(CYL_COAT, pol, K0, "IBC2", method="pade")
        t4 = imp.taylor_coefficients(CYL_COAT, pol, K0, upto=4)
        r2s = [_residual_ratio((c2.a0, c2.a, c2.ap, c2.b, c2.bp), t4, x)
               for x in XI_POINTS[:2]]
        spreads[pol, "IBC2 stored"] = max(r2s) / min(r2s)
    worst = max(spreads.values())
    elapsed = time.perf_counter() - t0
    ok = worst < 10.0 and elapsed < 1.0
    _report(3, ok, f"largest |R/xi^p| spread {worst:.3f}x across xi = "
                   f"-1e-2/-1e-3/-1e-4 (need < 10x); {elapsed:.2f} s")
    assert worst < 10.0, spreads
    assert elapsed < 1.0


# ------------------------------------------------------ 4: checker fixtures

def test_accept_04_checker_fixtures():
    t0 = time.perf_counter()
    allpass = imp.suc_check_ibc1(
        IbcCoefficients(order="IBC1", pol="TE", a0=1.0, a=1j, b=1j))
    constant = imp.suc_check_ibc1(
        IbcCoefficients(order="IBC1", pol="TE", a0=11.85, a=0.0, b=0.0))
    failing = [name for name, _, _, okc in constant.clauses if not okc]
    elapsed = time.perf_counter() - t0
    ok = (allpass.passed and all(okc for *_, okc in allpass.clauses)
          and not constant.passed and failing == ["a_j - b_j* a0 != 0"]
          and elapsed < 1.0)
    _report(4, ok, f"all-pass set: passed={allpass.passed}; constant-impedance "
                   f"set fails exactly {failing}; {elapsed:.2f} s")
    assert allpass.passed and all(okc for *_, okc in allpass.clauses)
    assert not constant.passed
    assert failing == ["a_j - b_j* a0 != 0"]
    assert elapsed < 1.0


# ------------------------------------------------------- 5: full vs reduced

def test_accept_05_full_vs_reduced():
    t0 = time.perf_counter()
    mesh, blocks = _circle(128)
    worst = 0.0
    for order in ("IBC1", "IBC2"):
        for pol in ("TE", "TM"):
            cf = fit_coefficients(CYL_COAT, pol, K0, order)
            wave = IncidentWave(pol=pol, k0=K0, phi_inc=0.7)
            jf, mf, *_ = _full_solution(
                build_full_system(mesh, cf, wave, blocks=blocks))
            red = solve_currents(
                build_reduced_system(mesh, cf, wave, blocks=blocks))
            for uf, ur in ((jf, red.J), (mf, red.M)):
                worst = max(worst, float(np.max(np.abs(uf - ur))
                                         / np.max(np.abs(ur))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(5, ok, f"worst |full - reduced| current difference {worst:.2e} "
                   f"rel over IBC1/IBC2 x TE/TM at N = 128; {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 30.0


# ----------------------------------------------- 6: cylinder oracle, N = 512

def test_accept_06_cylinder_oracle_agreement():
    t0 = time.perf_counter()
    cm = {o: _cyl_vs_oracle(o, 512) for o in ("IBC0", "IBC1", "IBC2")}
    frac = cm["IBC1"].fraction_within(1.0)
    means = {o: c.mean_abs_dB for o, c in cm.items()}
    ordering = means["IBC0"] > means["IBC1"] >= means["IBC2"]
    elapsed = time.perf_counter() - t0
    ok = ordering and frac >= 0.90 and elapsed < 300.0
    _report(6, ok, f"IBC1 within 1 dB at {100 * frac:.1f}% of angles (need "
                   f"90%); mean dB IBC0 {means['IBC0']:.3f} > IBC1 "
                   f"{means['IBC1']:.3f} >= IBC2 {means['IBC2']:.3f}: "
                   f"{ordering}; {elapsed:.1f} s")
    assert ordering
    assert elapsed < 300.0
    assert frac >= 0.90, (
        f"IBC1 stays within 1 dB of the exact series at {100 * frac:.1f}% of "
        "the 1-degree bistatic grid (need 90%) for the 1 m cylinder with a "
        "0.1 m eps = 4-0.5i coating at N = 512.  The shortfall is the "
        "impedance model, not discretization: substituting the exact planar "
        "layer impedance for the fitted rational at every cylinder mode "
        "still yields 84.7% (IBC2 reaches the same 84.7%), because the "
        "planar impedance differs from the curved-layer one by ~10% at this "
        "curvature and electrical thickness (k1 d = 1.26).  TM at the same "
        "configuration is 100% within 1 dB, and the error-ordering clause "
        "passes.  Kept as stated; fails honestly."
    )


# ------------------------------------------------------- 7: mesh convergence

def test_accept_07_mesh_convergence():
    t0 = time.perf_counter()
    sizes = (64, 128, 256, 512)
    means = [_cyl_vs_oracle("IBC1", n).mean_abs_dB for n in sizes]
    monotone = all(b <= a + 0.1 for a, b in zip(means, means[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and elapsed < 600.0
    _report(7, ok, "mean |dB error| vs oracle over N = 64/128/256/512: "
                   + "/".join(f"{m:.4f}" for m in means)
                   + f"; non-increasing within 0.1 dB: {monotone}; "
                   f"{elapsed:.1f} s")
    assert monotone, means
    assert elapsed < 600.0


# ------------------------------------------------ 8: symmetry and invariance

def test_accept_08_symmetry_and_invariance():
    t0 = time.perf_counter()
    mesh, blocks = _circle(128)
    cf = fit_coefficients(CYL_COAT, "TE", K0, "IBC1")
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=np.deg2rad(30.0))
    delta = np.arange(1.0, 180.0)
    angles = np.concatenate([30.0 - delta[::-1], 30.0 + delta])
    pat, _ = solve_and_pattern(mesh, cf, wave, angles, blocks=blocks)
    lin = 10.0 ** (pat.sigma / 10.0)
    left, right = lin[:179][::-1], lin[179:]
    sym = float(np.max(np.abs(left - right) / right))
    mono = monostatic_sweep(mesh, cf, [0.0, 37.0, 122.0, 210.0],
                            kind="angle", k0=K0)
    spread = float(np.max(mono.sigma) - np.min(mono.sigma))
    elapsed = time.perf_counter() - t0
    ok = sym <= 1e-6 and spread <= 0.05 and elapsed < 120.0
    _report(8, ok, f"bistatic mirror asymmetry {sym:.2e} rel (tol 1e-6); "
                   f"monostatic spread over incidence {spread:.2e} dB "
                   f"(tol 0.05); {elapsed:.1f} s")
    assert sym <= 1e-6
    assert spread <= 0.05
    assert elapsed < 120.0


# ------------------------------------------------- 9: series oracle physics

def test_accept_09_series_self_checks():
    t0 = time.perf_counter()
    # conductor limit: one Richardson step in d removes the O(d) term
    d = 4e-6
    pec_worst = 0.0
    for pol in ("TE", "TM"):
        c1 = cylinder_modes(
            SeriesSolutionSpec(1.0, d, 4.0 - 0.5j, 1.0, K0, n_max=22), pol)
        c2 = cylinder_modes(
            SeriesSolutionSpec(1.0, 2 * d, 4.0 - 0.5j, 1.0, K0, n_max=22), pol)
        pec_worst = max(pec_worst, float(np.max(np.abs(
            2.0 * c1 - c2 - _pec_modes(K0, pol, 22)))))
    lossless = max(
        optical_theorem_residual(cylinder_modes(
            SeriesSolutionSpec(1.0, 0.05, 4.0, 1.0, K0), pol))
        for pol in ("TE", "TM"))
    longer = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0,
                                n_max=CYL_SPEC.n_max + 10)
    trunc = max(
        compare_rcs(series_coated_cylinder(CYL_SPEC, pol, DEG),
                    series_coated_cylinder(longer, pol, DEG)).max_abs_dB
        for pol in ("TE", "TM"))
    elapsed = time.perf_counter() - t0
    ok = (pec_worst <= 1e-8 and lossless <= 1e-8 and trunc <= 1e-10
          and elapsed < 10.0)
    _report(9, ok, f"conductor limit {pec_worst:.1e} (tol 1e-8); lossless "
                   f"optical theorem {lossless:.1e} (tol 1e-8); truncation "
                   f"drift {trunc:.1e} dB (tol 1e-10); {elapsed:.1f} s")
    assert pec_worst <= 1e-8
    assert lossless <= 1e-8
    assert trunc <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------- 10: coated plate runs

# Frozen from the first validated build: TE IBC1 echo width every 15
# degrees for the 5-wavelength plate, d = 4 mm, eps = 10-5i at 6.8 GHz,
# N = 96, broadside incidence.
PLATE_PINS = [
    -35.03427247469204, -32.26389153591927, -28.163523919865654,
    -26.573497830884953, -21.495054502169744, -16.334086331606063,
    -2.327572668184414, -16.334086331606052, -21.495054502169715,
    -26.573497830884897, -28.163523919865664, -32.2638915359193,
    -35.034272474692095, -23.63775845487268, -18.962493281686626,
    -13.633426641164741, -9.96717361035716, -6.103101749110316,
    8.319976873904878, -6.103101749110369, -9.967173610357143,
    -13.633426641164757, -18.962493281686644, -23.637758454872674,
]


def test_accept_10_coated_plate_run():
    t0 = time.perf_counter()
    lam = C0 / 6.8e9
    k0 = 2.0 * np.pi / lam
    plate = mesh_plate(5.0 * lam, 96)
    blocks = assemble_blocks(plate, k0)
    coat = CoatingSpec(10.0 - 5.0j, 1.0, 0.004)
    curves = {}
    endpoints = []
    for pol in ("TE", "TM"):
        wave = IncidentWave(pol=pol, k0=k0, phi_inc=np.deg2rad(90.0))
        for order in ("IBC0", "IBC1", "IBC2"):
            cf = fit_coefficients(coat, pol, k0, order)
            pat, sol = solve_and_pattern(plate, cf, wave, DEG, blocks=blocks)
            curves[pol, order] = pat
            endpoints += [sol.J[0], sol.J[-1], sol.M[0], sol.M[-1]]
    ends_zero = all(v == 0.0 for v in endpoints)
    sep = min(compare_rcs(curves[pol, "IBC1"], curves[pol, "IBC0"]).mean_abs_dB
              for pol in ("TE", "TM"))
    pin_err = float(np.max(np.abs(curves["TE", "IBC1"].sigma[::15]
                                  - np.asarray(PLATE_PINS))))
    elapsed = time.perf_counter() - t0
    ok = (ends_zero and sep > 0.05 and pin_err <= 1e-6 and elapsed < 120.0)
    _report(10, ok, f"six order/pol runs complete; endpoint DOFs exactly "
                    f"zero: {ends_zero}; IBC1-vs-IBC0 mean separation "
                    f"{sep:.3f} dB; pinned-curve drift {pin_err:.1e} dB; "
                    f"{elapsed:.1f} s")
    assert ends_zero
    assert sep > 0.05
    assert pin_err <= 1e-6
    assert elapsed < 120.0


# ---------------------------------------------------- 11: numerical kernels

def test_accept_11_numerical_kernels():
    t0 = time.perf_counter()
    # Wronskian, 200 frozen arguments, orders cycling 0..50.  Within
    # |Im z| <= 4 the identity is compared against 2/(pi z) directly; at
    # larger |Im z| the two products cancel ~e^{2 Im z}, no double can
    # satisfy the strict form, and the residual is measured against the
    # size of what is summed.
    rng = np.random.default_rng(2024)
    worst_strict = worst_scaled = 0.0
    for i in range(200):
        n = i % 51
        if i < 60:
            z = complex(rng.uniform(0.1, 50.0), 0.0)
        elif i < 150:
            z = complex(rng.uniform(0.1, 50.0), rng.uniform(-4.0, 4.0))
        else:
            z = complex(rng.uniform(0.5, 50.0), rng.uniform(-20.0, 20.0))
        w, C, scale = _wronskian_residual(n, z)
        if i < 150:
            worst_strict = max(worst_strict, abs(w - C) / abs(C))
        else:
            worst_scaled = max(worst_scaled, abs(w - C) / scale)
    # quadrature moment exactness for both families
    quad_worst = 0.0
    for n in (2, 8, 32):
        rule = quad_rule("gauss_legendre", n)
        d = 2 * n - 2
        quad_worst = max(
            quad_worst,
            abs(float(np.sum(rule.weights)) - 2.0),
            abs(float(np.sum(rule.weights * rule.nodes**d)) - 2.0 / (d + 1)),
            abs(float(np.sum(rule.weights * rule.nodes**(d + 1)))))
    for n in (4, 12):
        rule = quad_rule("gauss_log", n)
        for k in range(2 * n):
            quad_worst = max(quad_worst, abs(
                float(np.sum(rule.weights * rule.nodes**k))
                - 1.0 / (k + 1) ** 2))
    # brute-force cross-check of one combined-kernel entry and one Q
    # entry on the shared-vertex pair of a corner contour
    th = np.deg2rad(50.0)
    corner = Contour(
        nodes=np.array([[0.0, 0.0], [0.3, 0.0],
                        [0.3 + 0.25 * np.cos(th), 0.25 * np.sin(th)]]),
        elements=np.array([[0, 1], [1, 2]]), closed=False)
    kc = 3.7
    mats = _helmholtz_blocks(corner, kc)
    SB, SQ = _brute_pair(corner, kc, 0, 1)
    bs_ref = _pair_bs(corner, 0, 1, kc, SB)
    bs_err = abs(mats["BS"][0, 2] - bs_ref[0, 1]) / abs(bs_ref[0, 1])
    q_err = abs(mats["Q"][0, 2] - SQ[0, 1]) / abs(SQ[0, 1])
    elapsed = time.perf_counter() - t0
    ok = (worst_strict <= 1e-11 and worst_scaled <= 1e-11
          and quad_worst <= 1e-13 and bs_err <= 1e-6 and q_err <= 1e-6
          and elapsed < 30.0)
    _report(11, ok, f"Wronskian {worst_strict:.1e} strict / {worst_scaled:.1e} "
                    f"scaled (tol 1e-11); quadrature moments {quad_worst:.1e} "
                    f"(tol 1e-13); brute-force entries {bs_err:.1e} / "
                    f"{q_err:.1e} (tol 1e-6); {elapsed:.1f} s")
    assert worst_strict <= 1e-11
    assert worst_scaled <= 1e-11
    assert quad_worst <= 1e-13
    assert bs_err <= 1e-6 and q_err <= 1e-6
    assert elapsed < 30.0
