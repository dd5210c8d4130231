"""Impedance layer: exact values, fit construction/order conditions,
collocation interpolation, and the coefficient checkers."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoibc2d import impedance as imp
from hoibc2d.errors import (
    DegenerateFitError,
    PoleError,
    ResonanceError,
    UsageError,
)
from hoibc2d.specfun import Z0

LAM = 1.0
K0 = 2.0 * np.pi / LAM
REF = imp.CoatingSpec(4.0, 1.0, 0.005 * LAM)        # thin lossless reference
LOSSY = imp.CoatingSpec(4.0 - 0.5j, 1.0, 0.1 * LAM)  # cylinder-test coating


def z_exact_hp(pol, xi, coating, k0):
    """Independent high-precision evaluation of the layer impedance."""
    with mp.workdps(40):
        z0 = mp.mpf("376.730313668")
        eps = mp.mpc(coating.eps_r.real, coating.eps_r.imag)
        mu = mp.mpc(coating.mu_r.real, coating.mu_r.imag)
        w = mp.sqrt(eps * mu + mp.mpf(xi))
        arg = w * k0 * coating.d
        if pol == "TE":
            return complex(z0 * w * mp.tan(arg) / eps)
        return complex(z0 * mu * mp.tan(arg) / w)


# ------------------------------------------------------------ exact values

def test_leontovich_reference_value():
    a0 = imp.leontovich_a0(REF, K0)
    assert a0.imag == pytest.approx(0.0, abs=1e-12)
    assert a0.real == pytest.approx(11.850931164392662, rel=1e-12)


def test_te_tm_agree_at_normal_incidence():
    for coating in (REF, LOSSY, imp.CoatingSpec(2.0 - 1.0j, 1.5 - 0.2j, 0.02)):
        zte = imp.exact_impedance("TE", 0.0, coating, K0)
        ztm = imp.exact_impedance("TM", 0.0, coating, K0)
        assert abs(zte - ztm) <= 1e-14 * abs(zte)
        assert abs(imp.leontovich_a0(coating, K0) - zte) <= 1e-14 * abs(zte)


def test_exact_impedance_thin_limit():
    thin = imp.CoatingSpec(4.0, 1.0, 1e-9)
    assert abs(imp.exact_impedance("TE", -0.5, thin, K0)) < 1e-5


@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("xi", [0.0, -0.1, -0.5, -0.97])
def test_exact_impedance_matches_high_precision(pol, xi):
    # both are 40-digit values rounded once to double
    for coating in (REF, LOSSY):
        z = imp.exact_impedance(pol, xi, coating, K0)
        ref = z_exact_hp(pol, xi, coating, K0)
        assert abs(z - ref) <= np.finfo(float).eps * abs(ref)


def test_exact_impedance_resonance():
    # quarter-wave layer: sqrt(eps mu) k0 d = pi/2 exactly
    d = (np.pi / 2.0) / (2.0 * K0)
    with pytest.raises(ResonanceError) as exc:
        imp.exact_impedance("TE", 0.0, imp.CoatingSpec(4.0, 1.0, d), K0)
    assert exc.value.n == 0


def test_exact_impedance_input_validation():
    with pytest.raises(UsageError):
        imp.exact_impedance("TEM", 0.0, REF, K0)
    with pytest.raises(UsageError):
        imp.exact_impedance("TE", 0.5, REF, K0)
    with pytest.raises(UsageError):
        imp.exact_impedance("TE", -1.0, REF, K0)
    with pytest.raises(UsageError):
        imp.exact_impedance("TE", 0.0, REF, -1.0)


def test_coating_validation():
    with pytest.raises(UsageError):
        imp.CoatingSpec(4.0 + 0.5j, 1.0, 0.01)
    with pytest.raises(UsageError):
        imp.CoatingSpec(4.0, 1.0 + 0.1j, 0.01)
    with pytest.raises(UsageError):
        imp.CoatingSpec(4.0, 1.0, 0.0)


# ------------------------------------------------------------------- fits

def test_taylor_ibc1_against_derivative():
    """Taylor-fit a1 equals dZ_TE/dxi at 0 (independent finite difference)."""
    t = imp.fit_coefficients(REF, "TE", K0, "IBC1", method="taylor")
    assert t.b == 0
    h = 1e-6
    fd = (z_exact_hp("TE", h, REF, K0) - z_exact_hp("TE", -h, REF, K0)) / (2 * h)
    fd2 = (z_exact_hp("TE", h / 2, REF, K0) - z_exact_hp("TE", -h / 2, REF, K0)) / h
    fd_rich = (4 * fd2 - fd) / 3.0
    assert abs(t.a - fd_rich) <= 1e-8 * abs(fd_rich)


def test_taylor_ibc1_thin_scaling():
    # leading order a1 ~ z0 k0 d / eps_r (the two half terms add up)
    for d in (1e-4, 1e-5):
        t = imp.fit_coefficients(imp.CoatingSpec(4.0, 1.0, d), "TE", K0, "IBC1",
                                 method="taylor")
        lead = Z0 * K0 * d / 4.0
        assert abs(t.a - lead) <= 1e-3 * abs(lead)


def test_taylor_coefficients_match_closed_forms():
    """TE c1, c2 from mpmath's differentiation equal their closed forms."""
    cs = imp.taylor_coefficients(REF, "TE", K0, upto=2)
    with mp.workdps(40):
        z0 = mp.mpf("376.730313668")
        eps, mu = mp.mpf(4), mp.mpf(1)
        k0d = mp.mpf(K0) * mp.mpf(REF.d)
        w0 = mp.sqrt(eps * mu)
        T = mp.tan(w0 * k0d)
        c1 = z0 * k0d / (2 * eps) + z0 * T / (2 * eps * w0) + z0 * k0d * T**2 / (2 * eps)
        c2 = (
            z0 * k0d / (8 * eps**2 * mu)
            + (z0 * k0d**2 / (4 * eps * w0) - z0 / (8 * eps * (eps * mu) * w0)) * T
            + z0 * k0d / (8 * eps**2 * mu) * T**2
            + z0 * k0d**2 / (4 * eps * w0) * T**3
        )
    assert abs(cs[1] - complex(c1)) <= 1e-14 * abs(cs[1])
    assert abs(cs[2] - complex(c2)) <= 1e-14 * abs(cs[2])


def _z_mp(pol, coating, k0):
    """The exact impedance xi -> Z(xi) at the working mpmath precision."""
    z0 = mp.mpf("376.730313668")
    eps = mp.mpc(coating.eps_r.real, coating.eps_r.imag)
    mu = mp.mpc(coating.mu_r.real, coating.mu_r.imag)
    k0d = mp.mpf(k0) * mp.mpf(coating.d)

    def z(xi):
        w = mp.sqrt(eps * mu + xi)
        if pol == "TE":
            return z0 * w * mp.tan(w * k0d) / eps
        return z0 * mu * mp.tan(w * k0d) / w

    return z


def _series_80(pol, coating, k0, upto):
    """c_0..c_upto of the exact impedance, differentiated at 80 digits."""
    return mp.taylor(_z_mp(pol, coating, k0), 0, upto)


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_fits_are_correctly_rounded(pol):
    """Taylor coefficients and the [2/2] Pade fit equal 80-digit values
    rounded to complex128."""
    with mp.workdps(80):
        series = [complex(c) for c in _series_80(pol, REF, K0, 4)]
        p, q = mp.pade(_series_80(pol, LOSSY, K0, 4), 2, 2)
        pade = [complex(v) for v in (p[0], p[1], p[2], q[1], q[2])]
    assert list(imp.taylor_coefficients(REF, pol, K0, upto=4)) == series
    c = imp.fit_coefficients(LOSSY, pol, K0, "IBC2", method="pade")
    assert [c.a0, c.a, c.ap, c.b, c.bp] == pade


def test_pade_ibc1_symbolic():
    # c0=1, c1=2, c2=4 forces b1 = -2, a1 = 0
    p, q = imp._pade_mp([mp.mpf(v) for v in (1, 2, 4)], 1)
    assert complex(q[1]) == -2
    assert complex(p[1]) == 0


def pade_residual_ratio(coeffs, taylor, xi_str):
    """|num - denom*series| / |xi|^(series order) in exact arithmetic.

    The residual of a correctly built Pade fit underflows double precision
    at small xi (it is ~1e-13 of the operand size already at xi = -1e-2),
    so it is formed with mpmath from the double-precision coefficients.
    """
    p = len(taylor)  # 3 for IBC1, 5 for IBC2
    with mp.workdps(60):
        xi = mp.mpf(xi_str)
        c = [mp.mpc(v) for v in taylor]
        num = mp.mpc(coeffs.a0) + mp.mpc(coeffs.a) * xi + mp.mpc(coeffs.ap) * xi**2
        den = 1 + mp.mpc(coeffs.b) * xi + mp.mpc(coeffs.bp) * xi**2
        series = sum(ck * xi**k for k, ck in enumerate(c))
        return float(abs(num - den * series) / abs(xi) ** p)


def test_pade_ibc1_order_condition():
    """R(xi) = (a0 + a1 xi) - (1 + b1 xi)(c0 + c1 xi + c2 xi^2) is O(xi^3)."""
    for pol in ("TE", "TM"):
        p = imp.fit_coefficients(REF, pol, K0, "IBC1", method="pade")
        cs = imp.taylor_coefficients(REF, pol, K0, upto=2)
        ratios = [pade_residual_ratio(p, cs, x)
                  for x in ("-1e-2", "-1e-3", "-1e-4")]
        assert max(ratios) / min(ratios) < 10.0


def test_pade_ibc2_order_condition():
    # needs a layer thick enough that c3, c4 survive float64 rounding
    for pol in ("TE", "TM"):
        p = imp.fit_coefficients(LOSSY, pol, K0, "IBC2", method="pade")
        cs = imp.taylor_coefficients(LOSSY, pol, K0, upto=4)
        ratios = [pade_residual_ratio(p, cs, x) for x in ("-1e-2", "-1e-3")]
        assert max(ratios) / min(ratios) < 10.0


def test_pade22_degenerations():
    # c3 = c4 = 0 forces the denominator to 1 (quadratic Taylor polynomial)
    cs = [mp.mpf(v) for v in (1, 2, 4, 0, 0)]
    p, q = imp._pade_mp(cs, 2)
    assert complex(q[1]) == 0 and complex(q[2]) == 0
    assert complex(p[1]) == 2 and complex(p[2]) == 4
    # a series that IS a [1/1] rational makes the Hankel system singular
    b1 = mp.mpf("0.5")
    geo = [mp.mpf(1), mp.mpf(3), -3 * b1, 3 * b1**2, -3 * b1**3]
    with pytest.raises(DegenerateFitError):
        imp._pade_mp(geo, 2)


def test_pade_degenerate_c1():
    with pytest.raises(DegenerateFitError):
        imp._pade_mp([mp.mpf(v) for v in (1, 0, 4)], 1)


def test_collocation_ibc1_interpolates():
    thetas = (np.deg2rad(30.0), np.deg2rad(60.0))
    for pol in ("TE", "TM"):
        c = imp.fit_coefficients(REF, pol, K0, "IBC1", method="collocation",
                                 thetas=thetas)
        for th in thetas:
            xi = -np.sin(th) ** 2
            z = imp.exact_impedance(pol, xi, REF, K0)
            assert abs(imp.eval_rational(c, xi) - z) <= 1e-10 * abs(z)
        # xi = 0 is matched exactly by construction
        assert imp.eval_rational(c, 0.0) == c.a0


def test_collocation_ibc1_against_direct_solve():
    """Brute-force float solve of the same 2x2 system reproduces (a, b)."""
    c = imp.fit_coefficients(REF, "TE", K0, "IBC1", method="collocation")
    a0 = imp.leontovich_a0(REF, K0)
    A = np.zeros((2, 2), dtype=complex)
    rhs = np.zeros(2, dtype=complex)
    for r, th in enumerate(imp.DEFAULT_NODES_IBC1):
        xi = -np.sin(th) ** 2
        Z = imp.exact_impedance("TE", xi, REF, K0)
        A[r] = (xi, -xi * Z)
        rhs[r] = Z - a0
    a, b = np.linalg.solve(A, rhs)
    assert abs(c.a - a) <= 1e-10 * abs(a)
    assert abs(c.b - b) <= 1e-10 * max(abs(b), 1e-6)


def test_collocation_ibc1_degenerate():
    with pytest.raises(DegenerateFitError):
        imp.fit_coefficients(REF, "TE", K0, "IBC1", method="collocation",
                             thetas=(0.5, 0.5))
    # vanishing-thickness layer, TM: Z is the constant Z(0) to ~1e-58
    # relative, so no [1/1] is singled out (any b with a = a0 b fits)
    with pytest.raises(DegenerateFitError):
        imp.fit_coefficients(imp.CoatingSpec(4.0, 1.0, 1e-30), "TM", K0, "IBC1",
                             method="collocation")


def test_collocation_accepts_thin_lossless_layer():
    """A layer whose impedance is small in ohms is not a degenerate fit:
    for eps 4, d = 2e-6 at 30/60 degrees the float system has a condition
    number of 2.7e13, the column-scaled one 2.5e11.  The fit equals an
    80-digit solve of the same interpolation rounded to complex128."""
    coating = imp.CoatingSpec(4.0, 1.0, 2e-6)
    thetas = np.deg2rad((30.0, 60.0))
    c = imp.fit_coefficients(coating, "TM", K0, "IBC1", method="collocation",
                             thetas=thetas)
    with mp.workdps(80):
        z = _z_mp("TM", coating, K0)
        a0 = z(0)
        xi = [-mp.sin(mp.mpf(t)) ** 2 for t in thetas]
        a, b = mp.lu_solve(mp.matrix([[x, -x * z(x)] for x in xi]),
                           mp.matrix([z(x) - a0 for x in xi]))
        want = [complex(v) for v in (a0, a, b)]
    assert [c.a0, c.a, c.b] == want


def test_collocation_vanishing_te_layer_is_linear():
    """TE Z of a vanishing layer is the line a0 (1 + xi / (eps mu)) to
    ~1e-59 relative: a well-posed [1/1] interpolation (column-scaled
    condition number 44, unscaled 1.1e28) whose fit is that line."""
    c = imp.fit_coefficients(imp.CoatingSpec(4.0, 1.0, 1e-30), "TE", K0,
                             "IBC1", method="collocation")
    assert abs(c.a - c.a0 / 4.0) <= 1e-14 * abs(c.a)
    assert abs(c.b) <= 1e-30


def test_collocation_ibc2_interpolates():
    for pol in ("TE", "TM"):
        c = imp.fit_coefficients(LOSSY, pol, K0, "IBC2", method="collocation")
        for th in imp.DEFAULT_NODES_IBC2:
            xi = -np.sin(th) ** 2
            z = imp.exact_impedance(pol, xi, LOSSY, K0)
            assert abs(imp.eval_rational(c, xi) - z) <= 1e-9 * abs(z)


def test_collocation_ibc2_near_rational_function_rejected():
    # The TM impedance of the thin lossless reference layer IS a [1/1]
    # rational to ~1e-15, so the four-point system is rank deficient and
    # the conditioning gate must fire.
    with pytest.raises(DegenerateFitError):
        imp.fit_coefficients(REF, "TM", K0, "IBC2", method="collocation")


def test_collocation_ibc2_validation():
    with pytest.raises(UsageError):
        imp.fit_coefficients(LOSSY, "TE", K0, "IBC2", method="collocation",
                             thetas=(0.1, 0.2, 0.3))
    with pytest.raises(DegenerateFitError):
        imp.fit_coefficients(LOSSY, "TE", K0, "IBC2", method="collocation",
                             thetas=(0.1, 0.1, 0.3, 0.4))
    with pytest.raises(UsageError):
        imp.fit_coefficients(LOSSY, "TE", K0, "IBC2", method="collocation",
                             thetas=(0.0, 0.2, 0.3, 0.4))


def test_fit_error_ordering_pade():
    """IBC0 > IBC1 > IBC2 max fit error for the reference coating, both pols."""
    for pol in ("TE", "TM"):
        e0 = imp.max_fit_error(imp.leontovich_ibc0(REF, pol, K0), REF, K0)
        e1 = imp.max_fit_error(imp.fit_coefficients(REF, pol, K0, "IBC1"), REF, K0)
        e2 = imp.max_fit_error(imp.fit_coefficients(REF, pol, K0, "IBC2"), REF, K0)
        assert e0 > e1 > e2


def test_fit_error_ordering_collocation_lossy():
    for pol in ("TE", "TM"):
        e0 = imp.max_fit_error(imp.leontovich_ibc0(LOSSY, pol, K0), LOSSY, K0)
        e1 = imp.max_fit_error(
            imp.fit_coefficients(LOSSY, pol, K0, "IBC1", method="collocation"),
            LOSSY, K0)
        e2 = imp.max_fit_error(
            imp.fit_coefficients(LOSSY, pol, K0, "IBC2", method="collocation"),
            LOSSY, K0)
        assert e0 > e1 > e2


def test_fit_dispatch():
    c = imp.fit_coefficients(REF, "TE", K0, "IBC1", method="taylor")
    assert c.order == "IBC1" and c.b == 0
    c = imp.fit_coefficients(REF, "TM", K0, "IBC2", method="pade")
    assert c.order == "IBC2"
    c = imp.fit_coefficients(REF, "TM", K0, "IBC0")
    assert c.a == 0 and c.order == "IBC0"
    with pytest.raises(UsageError):
        imp.fit_coefficients(REF, "TM", K0, "IBC1", method="taylor")
    with pytest.raises(UsageError):
        imp.fit_coefficients(REF, "TE", K0, "IBC2", method="taylor")
    with pytest.raises(UsageError):
        imp.fit_coefficients(REF, "TE", K0, "IBC3")


# ---------------------------------------------------------- eval_rational

def test_eval_rational_basics():
    c0 = imp.IbcCoefficients(order="IBC0", pol="TE", a0=3.0 + 1.0j)
    for xi in (0.0, -0.3, -0.9, -5.0):
        assert imp.eval_rational(c0, xi) == c0.a0
    c2 = imp.IbcCoefficients(order="IBC2", pol="TM", a0=1.0, a=2.0, b=0.5,
                             ap=1.0, bp=-0.25)
    assert imp.eval_rational(c2, 0.0) == 1.0 + 0j
    xi = -0.4
    expect = (1.0 + 2.0 * xi + 1.0 * xi**2) / (1.0 + 0.5 * xi - 0.25 * xi**2)
    assert imp.eval_rational(c2, xi) == pytest.approx(expect, rel=1e-14)
    arr = imp.eval_rational(c2, np.array([0.0, xi]))
    assert arr.shape == (2,) and arr[1] == pytest.approx(expect, rel=1e-14)


def test_eval_rational_pole():
    c = imp.IbcCoefficients(order="IBC1", pol="TE", a0=1.0, a=1.0, b=2.0)
    with pytest.raises(PoleError):
        imp.eval_rational(c, -0.5)


# ---------------------------------------------------------------- checkers

def test_suc_ibc1_synthetic_pass():
    fx = imp.IbcCoefficients(order="IBC1", pol="TE", a0=1.0, a=1j, b=1j)
    rep = imp.suc_check_ibc1(fx)
    assert rep.passed
    assert all(ok for (_, _, _, ok) in rep.clauses)


def test_suc_ibc1_leontovich_fails_only_nonzero_clause():
    leo = imp.IbcCoefficients(order="IBC1", pol="TE", a0=11.85)
    rep = imp.suc_check_ibc1(leo)
    assert not rep.passed
    failing = [name for (name, _, _, ok) in rep.clauses if not ok]
    assert failing == ["a_j - b_j* a0 != 0"]


def test_suc_ibc1_lossless_pade_report_is_data():
    rep = imp.suc_check_ibc1(imp.fit_coefficients(REF, "TE", K0, "IBC1"))
    # real coefficients make Re(a - b* a0) = a - b a0 != 0: recorded, not raised
    assert not rep.passed
    names = [name for (name, _, _, ok) in rep.clauses if not ok]
    assert "Re(a_j - b_j* a0) = 0" in names


def test_suc_ibc1_wrong_order():
    c2 = imp.fit_coefficients(LOSSY, "TE", K0, "IBC2")
    with pytest.raises(UsageError):
        imp.suc_check_ibc1(c2)
    with pytest.raises(UsageError):
        imp.suc_check_ibc2(imp.fit_coefficients(LOSSY, "TE", K0, "IBC1"))


def test_suc_ibc2_zero_higher_coefficients():
    z = imp.IbcCoefficients(order="IBC2", pol="TE", a0=1.0)
    rep = imp.suc_check_ibc2(z)
    assert not rep.passed
    failing = [name for (name, _, _, ok) in rep.clauses if not ok]
    assert failing == ["Delta != 0"]
    assert rep.details["delta"] == 0


def test_suc_ibc2_reports_delta_alpha_beta():
    rep = imp.suc_check_ibc2(imp.fit_coefficients(LOSSY, "TM", K0, "IBC2"))
    assert set(rep.details) == {"delta", "alpha", "beta"}
    # deterministic: same inputs give identical clause values
    rep2 = imp.suc_check_ibc2(imp.fit_coefficients(LOSSY, "TM", K0, "IBC2"))
    assert rep.clauses == rep2.clauses


def test_suc_ibc2_nine_clauses():
    rep = imp.suc_check_ibc2(imp.IbcCoefficients(order="IBC2", pol="TE", a0=1.0,
                                                 a=1j, b=1j, ap=0.5j, bp=0.25j))
    assert len(rep.clauses) == 9


def test_wellposedness_examples():
    ok = imp.IbcCoefficients(order="IBC1", pol="TE", a0=1.0, a=1j, b=1j)
    assert imp.wellposedness_check(ok).passed
    trivial = imp.IbcCoefficients(order="IBC1", pol="TE", a0=2.0)
    assert imp.wellposedness_check(trivial).passed
    # lossy cylinder-coating Pade coefficients: lhs recorded as data
    freq = 6.8e9
    k0 = 2.0 * np.pi * freq / 299792458.0
    rep = imp.wellposedness_check(
        imp.fit_coefficients(imp.CoatingSpec(10.0 - 5.0j, 1.0, 1.5e-3), "TM",
                             k0, "IBC1")
    )
    assert isinstance(rep.clauses[0][1], float)
    with pytest.raises(UsageError):
        imp.wellposedness_check(imp.leontovich_ibc0(REF, "TE", K0))


# ------------------------------------------------------- type invariants

def test_ibc_coefficients_invariants():
    with pytest.raises(UsageError):
        imp.IbcCoefficients(order="IBC0", pol="TE", a0=1.0, a=1.0)
    with pytest.raises(UsageError):
        imp.IbcCoefficients(order="IBC1", pol="TE", a0=1.0, ap=1.0)
    with pytest.raises(UsageError):
        imp.IbcCoefficients(order="IBC1", pol="TE", a0=0.0)
    with pytest.raises(UsageError):
        imp.IbcCoefficients(order="IBC5", pol="TE", a0=1.0)
    with pytest.raises(UsageError):
        imp.IbcCoefficients(order="IBC1", pol="TE", a0=1.0, convention="kx2")


# -------------------------------------------------- property: collocation

@settings(max_examples=25, deadline=None)
@given(
    re_eps=st.floats(1.5, 10.0),
    im_eps=st.floats(-5.0, 0.0),
    dfrac=st.floats(0.002, 0.05),
    t1=st.floats(0.15, 0.7),
    t2=st.floats(0.8, 1.5),
)
def test_collocation_interpolation_property(re_eps, im_eps, dfrac, t1, t2):
    """Whatever admissible layer and nodes: the rational hits Z at the nodes."""
    coating = imp.CoatingSpec(complex(re_eps, im_eps), 1.0, dfrac * LAM)
    try:
        c = imp.fit_coefficients(coating, "TM", K0, "IBC1", method="collocation",
                                 thetas=(t1, t2))
    except (DegenerateFitError, ResonanceError):
        return
    for th in (t1, t2):
        xi = -np.sin(th) ** 2
        z = imp.exact_impedance("TM", xi, coating, K0)
        assert abs(imp.eval_rational(c, xi) - z) <= 1e-10 * abs(z)
