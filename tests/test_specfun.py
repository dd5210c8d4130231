"""Special-function layer: values against high-precision references,
stability invariants, and quadrature exactness."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoibc2d import specfun as sf
from hoibc2d.assembly import _plain_kernels
from hoibc2d.errors import DomainError, RangeError, UsageError

mp.mp.dps = 30


def ref_j(n, z):
    return complex(mp.besselj(n, mp.mpc(z)))


def ref_y(n, z):
    return complex(mp.bessely(n, mp.mpc(z)))


# ---------------------------------------------------------------- bessel_jy

def test_bessel_j_canonical_value():
    # J0(1), fixed reference from a 30-digit series evaluation
    assert abs(sf.bessel_jy(0, 1.0)[0][0] - 0.7651976865579666) < 1e-13


@pytest.mark.parametrize(
    "z",
    [0.3, 1.0, 7.9, 8.1, 12.0, 30.0, 50.0,
     0.5 - 0.5j, 2.0 - 3.0j, 6.0 + 6.0j, 11.79 + 0.02j,
     20.0 + 10.0j, 50.0 - 20.0j, 30.0 + 15.0j],
)
def test_bessel_jy_against_reference(z):
    """Orders 0..50 at one argument, both kinds, high-precision reference."""
    js, ys = sf.bessel_jy(50, z)
    jscale = max(abs(v) for v in js)
    for n in range(51):
        rj = ref_j(n, z)
        ry = ref_y(n, z)
        assert abs(js[n] - rj) <= 1e-12 * max(abs(rj), 1e-10 * jscale)
        assert abs(ys[n] - ry) <= 1e-11 * abs(ry)


@pytest.mark.parametrize("z,tol", [
    (9999.0, 2e-11), (9998.9 - 15.0j, 2e-11),   # order 200 at |z| -> 1e4
    (40.0 - 30.0j, 3e-13),                       # far off the real axis
])
def test_bessel_jy_working_range_edges(z, tol):
    """Orders up to 200 at the edges of the working range against 40-digit
    references, on the scale and at the accuracy the module docstring
    states for |z|: relative to the modulus sqrt(|J_n|^2 + |Y_n|^2) where
    n < |z|, relative to the value where n >= |z|."""
    js, ys = sf.bessel_jy(200, z)
    with mp.workdps(40):
        for n in [*range(0, 200, 10), 199, 200]:
            rj, ry = mp.besselj(n, mp.mpc(z)), mp.bessely(n, mp.mpc(z))
            modulus = mp.sqrt(abs(rj) ** 2 + abs(ry) ** 2)
            for got, ref in ((js[n], rj), (ys[n], ry)):
                scale = modulus if n < abs(z) else abs(ref)
                assert abs(got - ref) <= tol * scale


def test_hankel_combinations():
    z = 3.0 - 1.0j
    js, ys = sf.bessel_jy(2, z)
    assert sf.hankel2(2, z) == pytest.approx(js[2] - 1j * ys[2], rel=1e-14)


def test_bessel_range_errors():
    with pytest.raises(RangeError):
        sf.bessel_jy(201, 1.0)
    with pytest.raises(RangeError):
        sf.bessel_jy(-1, 1.0)
    with pytest.raises(RangeError):
        sf.bessel_jy(0, 1.0e4)
    with pytest.raises(UsageError):
        sf.bessel_jy(1.5, 1.0)


def test_bessel_y_branch_cut():
    for z in [0.0, -1.0, -2.0 + 0.0j]:
        with pytest.raises(DomainError):
            sf.bessel_jy(0, z)


# ------------------------------------------------------------- Wronskian

def _wronskian_residual(n, z):
    js, ys = sf.bessel_jy(n + 1, z)
    if n >= 1:
        jp = js[n - 1] - (n / z) * js[n]
        yp = ys[n - 1] - (n / z) * ys[n]
    else:
        jp = -js[1]
        yp = -ys[1]
    C = 2.0 / (np.pi * z)
    w = js[n] * yp - jp * ys[n]
    return w, C, abs(js[n] * yp) + abs(jp * ys[n]) + abs(C)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 50),
    x=st.floats(0.1, 50.0),
    y=st.floats(-4.0, 4.0),
)
def test_wronskian_identity_near_real_axis(n, x, y):
    """J_n Y_n' - J_n' Y_n = 2/(pi z) to 1e-11 where it is well conditioned."""
    z = complex(x, y)
    w, C, _ = _wronskian_residual(n, z)
    assert abs(w - C) <= 1e-11 * abs(C)


def test_wronskian_scale_relative_far_from_axis():
    # At |Im z| ~ 20 the two products cancel ~e^{2|Im z|}; no double-precision
    # values can hit the identity to 1e-11 *of C*, so measure against the
    # size of what is actually summed.
    rng = np.random.default_rng(42)
    for _ in range(25):
        z = complex(rng.uniform(0.5, 50.0), rng.uniform(-20.0, 20.0))
        for n in (0, 3, 17, 50):
            w, C, scale = _wronskian_residual(n, z)
            assert abs(w - C) <= 1e-11 * scale


def test_direct_values_far_from_axis():
    # complements the scale-relative identity check with absolute accuracy
    for z in [10.0 + 18.0j, 25.0 - 15.0j, 40.0 + 20.0j]:
        js, ys = sf.bessel_jy(20, z)
        for n in (0, 5, 20):
            assert abs(js[n] - ref_j(n, z)) <= 1e-12 * abs(ref_j(n, z))
            assert abs(ys[n] - ref_y(n, z)) <= 1e-12 * abs(ref_y(n, z))


# ------------------------------------------- kernel G and W = (dG/dr) / r

def green2d(k, r):
    """G(r) = H0^(2)(k r) / (4i), as the kernel pass evaluates it."""
    return _plain_kernels(k, r)[0]


def test_green2d_value():
    g = green2d(1.0, 1.0)
    ref = (ref_j(0, 1.0) - 1j * ref_y(0, 1.0)) / 4j
    assert abs(g - ref) < 1e-14
    assert abs(g - (-0.0220642410539 - 0.1912994216395j)) < 1e-12


def test_green2d_asymptotic_decay():
    for kr in [100.0, 400.0, 2000.0]:
        g = green2d(1.0, kr)
        assert abs(abs(g) - np.sqrt(1.0 / (8.0 * np.pi * kr))) < 0.01 * abs(g)


def test_green2d_gradient():
    gp = _plain_kernels(1.0, 1.0)[1] * 1.0  # dG/dr = W r at r = 1
    assert abs(abs(gp) - 0.25 * abs(ref_j(1, 1.0) - 1j * ref_y(1, 1.0))) < 1e-13
    # finite-difference cross-check
    h = 1e-6
    fd = (green2d(1.0, 1.0 + h) - green2d(1.0, 1.0 - h)) / (2 * h)
    assert abs(gp - fd) < 1e-8


def test_green2d_helmholtz_residual():
    """G'' + G'/r + k^2 G = 0 away from the source (radial Helmholtz)."""
    k = 1.0
    h = 2e-4
    for r in np.linspace(0.5, 50.0, 25):
        g0 = green2d(k, r)
        gp = green2d(k, r + h)
        gm = green2d(k, r - h)
        lap = (gp - 2 * g0 + gm) / h**2 + (gp - gm) / (2 * h * r)
        assert abs(lap + k * k * g0) <= 1e-6 * abs(g0)


# ------------------------------------------------- vectorized kernel path

def test_hankel2_01_real_matches_scalar():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(0.02, 8.0, 30), rng.uniform(8.0, 40.0, 30)])
    h0, h1 = sf.hankel2_01_real(x)
    for xi, a, b in zip(x, h0, h1):
        assert abs(a - sf.hankel2(0, xi)) <= 5e-13 * abs(a)
        assert abs(b - sf.hankel2(1, xi)) <= 5e-13 * abs(b)
    # one call spanning the whole working range, up to its upper edge
    x = np.geomspace(0.02, 9999.0, 400)
    h0, h1 = sf.hankel2_01_real(x)
    assert np.all(np.isfinite(h0)) and np.all(np.isfinite(h1))
    for xi, a, b in zip(x, h0, h1):
        ref0, ref1 = sf.hankel2(0, xi), sf.hankel2(1, xi)
        assert abs(a - ref0) <= 1e-12 * abs(ref0)
        assert abs(b - ref1) <= 1e-12 * abs(ref1)


def test_hankel2_01_real_rejects_nonpositive():
    with pytest.raises(DomainError):
        sf.hankel2_01_real(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        sf.hankel2_01_real(np.array([-1.0]))
    with pytest.raises(RangeError):
        sf.hankel2_01_real(np.array([1.0, 1.0e4]))


def test_hankel2_01_real_empty_ok():
    h0, h1 = sf.hankel2_01_real(np.array([]))
    assert h0.size == 0 and h1.size == 0


# -------------------------------------------------------------- quadrature

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_gauss_legendre_polynomial_exactness(n):
    rule = sf.quad_rule("gauss_legendre", n)
    assert abs(np.sum(rule.weights) - 2.0) < 1e-13
    # exact through degree 2n-1: check the highest even degree <= 2n-1
    d = 2 * n - 2
    exact = 2.0 / (d + 1)
    val = np.sum(rule.weights * rule.nodes**d)
    assert abs(val - exact) < 1e-13 * max(1.0, exact)
    # odd degrees integrate to zero by symmetry
    assert abs(np.sum(rule.weights * rule.nodes ** (2 * n - 1))) < 1e-13


def test_gauss_legendre_smooth_value():
    rule = sf.quad_rule("gauss_legendre", 16)
    val = np.sum(rule.weights * np.exp(rule.nodes))
    assert abs(val - (np.e - 1.0 / np.e)) < 1e-14


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_gauss_log_moment_exactness(n):
    """int_0^1 t^k (-ln t) dt = 1/(k+1)^2, exact through degree 2n-1."""
    rule = sf.quad_rule("gauss_log", n)
    assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
    assert np.all(rule.weights > 0)
    for k in range(2 * n):
        val = np.sum(rule.weights * rule.nodes**k)
        assert abs(val - 1.0 / (k + 1) ** 2) < 5e-15


def test_gauss_log_smooth_integrand():
    ref = float(mp.quad(lambda t: -mp.log(t) * mp.cos(3 * t), [0, 1]))
    rule = sf.quad_rule("gauss_log", 12)
    val = np.sum(rule.weights * np.cos(3.0 * rule.nodes))
    assert abs(val - ref) < 1e-12


def test_quad_rule_range_errors():
    with pytest.raises(RangeError):
        sf.quad_rule("gauss_legendre", 0)
    with pytest.raises(RangeError):
        sf.quad_rule("gauss_legendre", 65)
    with pytest.raises(RangeError):
        sf.quad_rule("gauss_log", 17)
    with pytest.raises(UsageError):
        sf.quad_rule("clenshaw_curtis", 4)
