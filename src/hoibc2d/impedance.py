"""Planar-layer impedance and rational-coefficient machinery.

A metal-backed dielectric layer of thickness d has an exact surface
impedance for each polarization and each incidence angle.  With the
dimensionless spectral variable xi = -sin^2(theta):

    TE:  Z(xi) = z0 sqrt(mu_r eps_r + xi) tan(sqrt(mu_r eps_r + xi) k0 d) / eps_r
    TM:  Z(xi) = z0 mu_r tan(sqrt(mu_r eps_r + xi) k0 d) / sqrt(mu_r eps_r + xi)

Both reduce to the Leontovich impedance a0 at xi = 0.  The fitting
routines here replace Z(xi) by a rational function

    (a0 + a xi + a' xi^2) / (1 + b xi + b' xi^2)

of order 0 (constant), 1 (linear/linear), or 2, via Taylor expansion,
Pade approximation, or collocation.  All coefficients are stored in the
xi convention; the solver converts to arc-length-derivative form by
dividing (a, b) by k0^2 and (a', b') by k0^4 at assembly time, which
keeps a single canonical store and avoids double scaling.

The SUC (sufficient-uniqueness-condition) and well-posedness checkers
evaluate the sign/equality conditions that the variational formulations
place on fitted coefficients.  They report; they never gate a solve.

High-precision internals use mpmath: the exact impedance is one mpmath
formula at 40 digits, rounded once to double for exact_impedance; the
Taylor coefficients come from mpmath's numerical differentiation
(``mp.taylor``) of it at the same precision, and the Pade and collocation
systems are solved at that precision before rounding to double.
"""

from dataclasses import dataclass, field
from itertools import permutations

import mpmath as mp
import numpy as np

from .errors import DegenerateFitError, PoleError, ResonanceError, UsageError

_DPS = 40                 # working precision for the mpmath internals
_RES_EPS = 1e-8           # distance to a tan() pole that counts as resonance

POLARIZATIONS = ("TE", "TM")
ORDERS = ("IBC0", "IBC1", "IBC2")

# default collocation nodes [rad] when the caller supplies none
DEFAULT_NODES_IBC1 = (np.pi / 6.0, np.pi / 3.0)          # 30, 60 deg
DEFAULT_NODES_IBC2 = tuple(np.deg2rad((20.0, 40.0, 60.0, 80.0)))


def _check_pol(pol):
    if pol not in POLARIZATIONS:
        raise UsageError(f"polarization must be one of {POLARIZATIONS}, got {pol!r}")


@dataclass(frozen=True)
class CoatingSpec:
    """Single dielectric layer on a perfect conductor.

    eps_r, mu_r are relative material constants; with the exp(+i omega t)
    time factor, lossy materials have non-positive imaginary parts.  d is
    the layer thickness in meters.
    """

    eps_r: complex
    mu_r: complex
    d: float

    def __post_init__(self):
        object.__setattr__(self, "eps_r", complex(self.eps_r))
        object.__setattr__(self, "mu_r", complex(self.mu_r))
        object.__setattr__(self, "d", float(self.d))
        if not self.d > 0.0:
            raise UsageError(f"coating thickness must be positive, got d = {self.d}")
        if self.eps_r.imag > 0.0:
            raise UsageError(
                f"Im(eps_r) = {self.eps_r.imag} > 0 is a gain medium under the "
                "exp(+i omega t) convention"
            )
        if self.mu_r.imag > 0.0:
            raise UsageError(
                f"Im(mu_r) = {self.mu_r.imag} > 0 is a gain medium under the "
                "exp(+i omega t) convention"
            )


@dataclass(frozen=True)
class IbcCoefficients:
    """Fitted rational-impedance coefficients in the xi = -sin^2(theta) store.

    Field mapping to the usual notation: a/b are a_j/b_j, ap/bp are the
    second-order pair a'_j/b'_j (j = 1 for TE, 2 for TM).  a0, a, ap carry
    ohms; b, bp are dimensionless.  ``coating`` is optional provenance so
    checkers can evaluate material conditions.
    """

    order: str
    pol: str
    a0: complex
    a: complex = 0j
    b: complex = 0j
    ap: complex = 0j
    bp: complex = 0j
    coating: CoatingSpec | None = None

    def __post_init__(self):
        if self.order not in ORDERS:
            raise UsageError(f"order must be one of {ORDERS}, got {self.order!r}")
        _check_pol(self.pol)
        for name in ("a0", "a", "b", "ap", "bp"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.a0 == 0:
            raise UsageError("a0 must be nonzero (the variational forms divide by it)")
        if self.order == "IBC0" and (self.a, self.b, self.ap, self.bp) != (0j, 0j, 0j, 0j):
            raise UsageError("IBC0 coefficients must have a = b = a' = b' = 0")
        if self.order == "IBC1" and (self.ap, self.bp) != (0j, 0j):
            raise UsageError("IBC1 coefficients must have a' = b' = 0")


@dataclass
class SucReport:
    """Outcome of a coefficient check.

    ``clauses`` holds (name, lhs value, tolerance, passed) per condition;
    ``passed`` is the conjunction.  ``details`` carries named intermediates
    (Delta, alpha, beta for the second-order check).
    """

    passed: bool
    clauses: tuple
    tolerance: float
    details: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Exact impedance
# ----------------------------------------------------------------------

def _check_inputs(coating, k0):
    if not isinstance(coating, CoatingSpec):
        raise UsageError(f"expected a CoatingSpec, got {type(coating).__name__}")
    if not k0 > 0.0:
        raise UsageError(f"k0 must be positive, got {k0!r}")


def exact_impedance(pol, xi, coating, k0):
    """Exact impedance of the metal-backed layer at spectral point xi.

    xi = -sin^2(theta) must lie in (-1, 0].  Evaluated at _DPS digits by
    the fitting internals' own formula and rounded once to double.  Raises
    ResonanceError when the layer is within ~1e-8 of a thickness
    resonance (tan pole).
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    xi = float(xi)
    if not -1.0 < xi <= 0.0:
        raise UsageError(f"xi must lie in (-1, 0], got {xi}")
    with mp.workdps(_DPS):
        return complex(_z_exact_mp(pol, mp.mpf(xi), *_layer_mp(coating, k0)))


def leontovich_a0(coating, k0):
    """Normal-incidence impedance a0 = Z(xi = 0), common to both polarizations."""
    return exact_impedance("TE", 0.0, coating, k0)


# the mpmath formula, for exact_impedance and the fits --------------------

def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _guard_pole_mp(arg):
    """Refuse arguments sitting on a tan() pole (layer thickness resonance)."""
    n = int(mp.nint(mp.re(arg) / mp.pi - mp.mpf(0.5)))
    if abs(arg - (n + mp.mpf(0.5)) * mp.pi) < mp.mpf(_RES_EPS):
        raise ResonanceError(
            f"sqrt(mu_r eps_r + xi) k0 d = {complex(arg):.12g} sits within "
            f"{_RES_EPS:g} of the tan() pole at (n + 1/2) pi with n = {n}",
            n=n,
        )


def _z_exact_mp(pol, xi, eps, mu, k0d):
    """Exact impedance with mpmath scalars; xi may be any mp real."""
    z0 = mp.mpf("376.730313668")
    w = mp.sqrt(eps * mu + xi)
    arg = w * k0d
    _guard_pole_mp(arg)
    if pol == "TE":
        return z0 * w * mp.tan(arg) / eps
    if abs(arg) < mp.mpf("1e-6"):
        t_over_w = k0d * (1 + arg * arg / 3)
    else:
        t_over_w = mp.tan(arg) / w
    return z0 * mu * t_over_w


def _layer_mp(coating, k0):
    """eps_r, mu_r and k0 d as mpmath numbers at the current precision."""
    return _mpc(coating.eps_r), _mpc(coating.mu_r), mp.mpf(k0) * mp.mpf(coating.d)


def _taylor_coefficients_mp(coating, pol, k0, upto):
    """c_0..c_upto of Z(xi) around xi = 0, as mpmath numbers.

    mpmath differentiates the exact impedance at _DPS digits; c_0 is Z(0)
    itself, so a resonant layer raises ResonanceError.
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    if not 0 <= upto <= 4:
        raise UsageError(f"Taylor order must be 0..4, got {upto}")
    with mp.workdps(_DPS):
        eps, mu, k0d = _layer_mp(coating, k0)
        return mp.taylor(lambda x: _z_exact_mp(pol, x, eps, mu, k0d), 0, upto)


def taylor_coefficients(coating, pol, k0, upto=4):
    """Taylor coefficients c_0..c_upto of Z(xi) at xi = 0, as complex."""
    cs = _taylor_coefficients_mp(coating, pol, k0, upto)
    return np.array([complex(c) for c in cs])


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------

def _pade_mp(cs, m):
    """[m/m] Pade (p_0..p_m, q_0..q_m), q_0 = 1, from c_0..c_2m (mp numbers).

    The denominator solves the Toeplitz rows
    c_{m+i} + sum_j q_j c_{m+i-j} = 0 (i, j = 1..m); then
    p_k = sum_{j<=k} q_j c_{k-j}.
    """
    T = mp.matrix([[cs[m + i - j] for j in range(1, m + 1)] for i in range(1, m + 1)])
    permanent = sum(mp.fprod(abs(T[i, s[i]]) for i in range(m))
                    for s in permutations(range(m)))
    if abs(mp.det(T)) <= mp.mpf("1e-14") * permanent:
        raise DegenerateFitError(
            f"degenerate Toeplitz system in the [{m}/{m}] Pade fit "
            "(the series is a lower-order rational)"
        )
    q = [mp.mpf(1)] + list(mp.lu_solve(T, -mp.matrix(cs[m + 1: 2 * m + 1])))
    p = [sum(q[j] * cs[k - j] for j in range(k + 1)) for k in range(m + 1)]
    return p, q


def _check_node(theta):
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2.0:
        raise UsageError(f"collocation angle must lie in (0, pi/2), got {theta}")
    return theta


def _collocation(coating, pol, k0, m, thetas):
    """[m/m] rational (p, q) through Z(0) and Z at 2m angles (radians).

    Each node contributes Z(xi_k) (1 + sum_j q_j xi_k^j) = p_0 + sum_j p_j xi_k^j
    with p_0 = Z(0), linear in (p_1..p_m, q_1..q_m).  Defaults are
    DEFAULT_NODES_IBC1 / DEFAULT_NODES_IBC2.
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    if thetas is None:
        thetas = (DEFAULT_NODES_IBC1, DEFAULT_NODES_IBC2)[m - 1]
    thetas = [_check_node(t) for t in thetas]
    if len(thetas) != 2 * m:
        raise UsageError(f"IBC{m} collocation needs exactly {2 * m} angles, "
                         f"got {len(thetas)}")
    if len(set(thetas)) != 2 * m:
        raise DegenerateFitError("collocation nodes must be distinct")
    with mp.workdps(_DPS):
        eps, mu, k0d = _layer_mp(coating, k0)
        a0 = _z_exact_mp(pol, mp.mpf(0), eps, mu, k0d)
        A = mp.zeros(2 * m)
        rhs = mp.zeros(2 * m, 1)
        for r, th in enumerate(thetas):
            xi = -mp.sin(mp.mpf(th)) ** 2
            Z = _z_exact_mp(pol, xi, eps, mu, k0d)
            power = xi
            for j in range(m):
                A[r, j], A[r, m + j] = power, -power * Z
                power *= xi
            rhs[r] = Z - a0
        # the columns mix powers of xi and ohms: scale each to unit
        # max-norm, so the estimate does not depend on the layer's units
        F = np.array(A.tolist(), dtype=complex)
        cond = np.linalg.cond(F / np.abs(F).max(axis=0))
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateFitError(
                f"ill-conditioned collocation system (column-scaled condition "
                f"estimate {cond:.3e} > 1e12): the angles are too close, or "
                "the impedance is a lower-order rational there"
            )
        sol = mp.lu_solve(A, rhs)
        return [a0] + list(sol[:m]), [mp.mpf(1)] + list(sol[m:])


def leontovich_ibc0(coating, pol, k0):
    """Order-0 coefficients: the Leontovich constant impedance."""
    return IbcCoefficients(
        order="IBC0", pol=pol, a0=leontovich_a0(coating, k0), coating=coating,
    )


def fit_coefficients(coating, pol, k0, order, method="pade", thetas=None):
    """Fit the order-m rational to the exact impedance of the layer.

    method "pade" matches c_0..c_2m, "collocation" interpolates Z(0) and Z
    at 2m angles ``thetas`` [rad], and "taylor" (TE IBC1 only) takes
    a = c_1, b = 0.
    """
    if order == "IBC0":
        return leontovich_ibc0(coating, pol, k0)
    if order not in ORDERS:
        raise UsageError(f"order must be one of {ORDERS}, got {order!r}")
    m = ORDERS.index(order)
    if method == "pade":
        with mp.workdps(_DPS):
            p, q = _pade_mp(_taylor_coefficients_mp(coating, pol, k0, 2 * m), m)
    elif method == "collocation":
        p, q = _collocation(coating, pol, k0, m, thetas)
    elif method == "taylor":
        if (order, pol) != ("IBC1", "TE"):
            raise UsageError("the Taylor fit (a = c1, b = 0) is available for "
                             "TE IBC1 only; use pade")
        p, q = _taylor_coefficients_mp(coating, pol, k0, 1), [1, 0]
    else:
        raise UsageError(f"unknown fit method {method!r}")
    p, q = [complex(v) for v in p] + [0j], [complex(v) for v in q] + [0j]
    return IbcCoefficients(order=order, pol=pol, a0=p[0], a=p[1], ap=p[2],
                           b=q[1], bp=q[2], coating=coating)


# ----------------------------------------------------------------------
# Evaluation and error sweeps
# ----------------------------------------------------------------------

def eval_rational(coeffs, xi):
    """Evaluate the fitted rational at xi (scalar or array)."""
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    xi_arr = np.asarray(xi, dtype=float)
    num = coeffs.a0 + coeffs.a * xi_arr + coeffs.ap * xi_arr**2
    den = 1.0 + coeffs.b * xi_arr + coeffs.bp * xi_arr**2
    scale = 1.0 + np.abs(coeffs.b * xi_arr) + np.abs(coeffs.bp) * xi_arr**2
    if np.any(np.abs(den) <= 1e-14 * scale):
        bad = float(np.atleast_1d(xi_arr)[np.argmin(np.atleast_1d(np.abs(den) / scale))])
        raise PoleError(f"rational denominator vanishes at xi = {bad:.12g}")
    out = num / den
    return complex(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def max_fit_error(coeffs, coating, k0, theta_deg=None):
    """max_theta |rational(xi) - Z_exact(xi)| over a degree grid (default 0..89)."""
    if theta_deg is None:
        theta_deg = np.arange(0.0, 90.0)
    worst = 0.0
    for deg in np.asarray(theta_deg, dtype=float):
        xi = -np.sin(np.deg2rad(deg)) ** 2
        err = abs(eval_rational(coeffs, xi) - exact_impedance(coeffs.pol, xi, coating, k0))
        worst = max(worst, err)
    return worst


# ----------------------------------------------------------------------
# Coefficient checks
# ----------------------------------------------------------------------

def _material_clauses(coating):
    if coating is None:
        return [
            ("Im(mu_r) <= 0 (no coating attached)", 0.0, 0.0, True),
            ("Im(eps_r) <= 0 (no coating attached)", 0.0, 0.0, True),
        ]
    return [
        ("Im(mu_r) <= 0", coating.mu_r.imag, 0.0, coating.mu_r.imag <= 0.0),
        ("Im(eps_r) <= 0", coating.eps_r.imag, 0.0, coating.eps_r.imag <= 0.0),
    ]


def suc_check_ibc1(coeffs):
    """Uniqueness conditions for the first-order coefficients.

    Equalities are tested as |lhs| <= tol, sign conditions as
    lhs >= -tol * scale with the scale chosen to keep units consistent
    (tol = 1e-9 |a0|, in ohms).
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order != "IBC1":
        raise UsageError(f"suc_check_ibc1 needs IBC1 coefficients, got {coeffs.order}")
    tol = 1e-9 * abs(coeffs.a0)
    a0, a, b = coeffs.a0, coeffs.a, coeffs.b
    v = a - b.conjugate() * a0
    p3 = (a0.conjugate() * a).imag * v.imag
    p4 = b.imag * v.imag
    clauses = _material_clauses(coeffs.coating) + [
        ("a_j - b_j* a0 != 0", abs(v), tol, bool(abs(v) > tol)),
        ("Re(a_j - b_j* a0) = 0", v.real, tol, bool(abs(v.real) <= tol)),
        ("Im(a0* a_j) Im(a_j - b_j* a0) >= 0", p3, tol * abs(a0), bool(p3 >= -tol * abs(a0))),
        ("Im(b_j) Im(a_j - b_j* a0) >= 0", p4, tol, bool(p4 >= -tol)),
    ]
    return SucReport(
        passed=all(c[3] for c in clauses),
        clauses=tuple(clauses),
        tolerance=tol,
    )


def suc_check_ibc2(coeffs):
    """Uniqueness conditions for the second-order coefficients (nine clauses).

    Delta, alpha, beta are reported in ``details``.  Tolerances scale with
    powers of |a0| so each clause is compared in its own units.
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order != "IBC2":
        raise UsageError(f"suc_check_ibc2 needs IBC2 coefficients, got {coeffs.order}")
    tol = 1e-9 * abs(coeffs.a0)
    a0, a, b, ap, bp = coeffs.a0, coeffs.a, coeffs.b, coeffs.ap, coeffs.bp
    cb, cbp = b.conjugate(), bp.conjugate()
    g = a * cbp - ap * cb                       # a_j b'_j* - a'_j b_j*
    h = ap - a0 * cbp                           # a'_j - a0 b'_j*
    delta = (a0 * cb - a) * g - h * h
    alpha = (delta.conjugate() * g).imag
    beta = (delta.conjugate() * (a0 * cbp - ap)).imag
    s0 = abs(a0)
    t2, t3, t5 = tol * s0, tol * s0**2, tol * s0**4
    r4 = (delta.conjugate() * g).real
    r5 = (delta.conjugate() * h).real
    c6 = alpha * bp.imag + beta * (b * cbp).imag
    c7 = alpha * (ap * a0.conjugate()).imag - beta * (ap * a.conjugate()).imag
    c8 = -alpha * b.imag + beta * bp.imag
    c9 = alpha * (a * a0.conjugate()).imag - beta * (ap * a0.conjugate()).imag
    clauses = _material_clauses(coeffs.coating) + [
        ("Delta != 0", abs(delta), t2, bool(abs(delta) > t2)),
        ("Re[Delta* (a_j b'_j* - a'_j b_j*)] = 0", r4, t3, bool(abs(r4) <= t3)),
        ("Re[Delta* (a'_j - a0 b'_j*)] = 0", r5, t3, bool(abs(r5) <= t3)),
        ("alpha Im(b'_j) + beta Im(b_j b'_j*) <= 0", c6, t3, bool(c6 <= t3)),
        ("alpha Im(a'_j a0*) - beta Im(a'_j a_j*) <= 0", c7, t5, bool(c7 <= t5)),
        ("-alpha Im(b_j) + beta Im(b'_j) <= 0", c8, t3, bool(c8 <= t3)),
        ("alpha Im(a_j a0*) - beta Im(a'_j a0*) >= 0", c9, t5, bool(c9 >= -t5)),
    ]
    return SucReport(
        passed=all(c[3] for c in clauses),
        clauses=tuple(clauses),
        tolerance=tol,
        details={"delta": complex(delta), "alpha": float(alpha), "beta": float(beta)},
    )


def wellposedness_check(coeffs):
    """Coercivity coefficient condition Re(a_j) + |a0| |b_j + a_j*/a0*| / 2 = 0.

    Reported, never enforced: the solver warns and proceeds when it fails.
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order == "IBC0":
        raise UsageError("wellposedness_check applies to IBC1/IBC2 coefficients")
    if coeffs.a0 == 0:
        raise UsageError("a0 must be nonzero")
    tol = 1e-9 * abs(coeffs.a0)
    lhs = coeffs.a.real + abs(coeffs.a0) * abs(
        coeffs.b + coeffs.a.conjugate() / coeffs.a0.conjugate()
    ) / 2.0
    clause = ("Re(a_j) + |a0| |b_j + a_j*/a0*|/2 = 0", lhs, tol, bool(abs(lhs) <= tol))
    return SucReport(passed=clause[3], clauses=(clause,), tolerance=tol)
