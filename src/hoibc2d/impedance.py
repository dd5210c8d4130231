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

High-precision internals use mpmath: the exact impedance is cheap, and
fourth-order Taylor coefficients obtained by finite differences in double
precision would lose most of their digits.
"""

import cmath
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import DegenerateFitError, PoleError, ResonanceError, UsageError
from .specfun import Z0

_DPS = 40                 # working precision for the mpmath internals
_RES_EPS = 1e-8           # distance to a tan() pole that counts as resonance
_FD_STEPS = ("1e-3", "5e-4", "2.5e-4")   # pinned Richardson steps in xi

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
    convention: str = "xi"
    coating: CoatingSpec | None = None

    def __post_init__(self):
        if self.order not in ORDERS:
            raise UsageError(f"order must be one of {ORDERS}, got {self.order!r}")
        _check_pol(self.pol)
        if self.convention != "xi":
            raise UsageError(f"only the 'xi' convention is supported, got {self.convention!r}")
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

def _pole_distance(arg):
    """Distance from arg to the nearest pole of tan, and the pole index."""
    n = int(round(arg.real / np.pi - 0.5))
    dist = abs(arg - (n + 0.5) * np.pi)
    return dist, n


def _check_resonance(arg):
    arg = complex(arg)
    dist, n = _pole_distance(arg)
    if dist < _RES_EPS:
        raise ResonanceError(
            f"sqrt(mu_r eps_r + xi) k0 d = {arg:.12g} sits within {_RES_EPS:g} "
            f"of the tan() pole at (n + 1/2) pi with n = {n}",
            n=n,
        )


def _check_inputs(coating, k0):
    if not isinstance(coating, CoatingSpec):
        raise UsageError(f"expected a CoatingSpec, got {type(coating).__name__}")
    if not k0 > 0.0:
        raise UsageError(f"k0 must be positive, got {k0!r}")


def exact_impedance(pol, xi, coating, k0):
    """Exact impedance of the metal-backed layer at spectral point xi.

    xi = -sin^2(theta) must lie in (-1, 0].  Raises ResonanceError when the
    layer is within ~1e-8 of a thickness resonance (tan pole).
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    xi = float(xi)
    if not -1.0 < xi <= 0.0:
        raise UsageError(f"xi must lie in (-1, 0], got {xi}")
    w = cmath.sqrt(coating.eps_r * coating.mu_r + xi)
    arg = w * k0 * coating.d
    _check_resonance(arg)
    if pol == "TE":
        return Z0 * w * cmath.tan(arg) / coating.eps_r
    # TM: tan(arg)/w is finite as w -> 0; switch to the series near it
    if abs(arg) < 1e-6:
        t_over_w = k0 * coating.d * (1.0 + arg * arg / 3.0)
    else:
        t_over_w = cmath.tan(arg) / w
    return Z0 * coating.mu_r * t_over_w


def leontovich_a0(coating, k0):
    """Normal-incidence impedance a0 = Z(xi = 0), common to both polarizations."""
    return exact_impedance("TE", 0.0, coating, k0)


# mpmath twin, used by the fitting internals ---------------------------------

def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _guard_pole_mp(arg):
    """Refuse arguments sitting on a tan() pole (layer thickness resonance)."""
    n = int(mp.nint(mp.re(arg) / mp.pi - mp.mpf(0.5)))
    if abs(arg - (n + mp.mpf(0.5)) * mp.pi) < mp.mpf(_RES_EPS):
        raise ResonanceError(
            f"layer resonance near pole index n = {n} during coefficient fitting",
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


def _richardson_deriv(f, order):
    """order-th derivative of f at 0 from central differences at the pinned
    steps, Richardson-extrapolated twice (error h^2 -> h^6)."""
    steps = [mp.mpf(s) for s in _FD_STEPS]

    def cd(h):
        if order == 1:
            return (f(h) - f(-h)) / (2 * h)
        if order == 2:
            return (f(h) - 2 * f(mp.mpf(0)) + f(-h)) / h**2
        if order == 3:
            return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
        if order == 4:
            return (f(2 * h) - 4 * f(h) + 6 * f(mp.mpf(0)) - 4 * f(-h) + f(-2 * h)) / h**4
        raise UsageError(f"derivative order {order} not supported")

    d = [cd(h) for h in steps]
    d01 = (4 * d[1] - d[0]) / 3
    d12 = (4 * d[2] - d[1]) / 3
    return (16 * d12 - d01) / 15


def _c012_te_closed_mp(eps, mu, k0d):
    """Closed-form c0, c1, c2 of the TE impedance around xi = 0."""
    z0 = mp.mpf("376.730313668")
    w0 = mp.sqrt(eps * mu)
    T = mp.tan(w0 * k0d)
    c0 = z0 * w0 * T / eps
    c1 = z0 * k0d / (2 * eps) + z0 * T / (2 * eps * w0) + z0 * k0d * T**2 / (2 * eps)
    c2 = (
        z0 * k0d / (8 * eps**2 * mu)
        + (z0 * k0d**2 / (4 * eps * w0) - z0 / (8 * eps * (eps * mu) * w0)) * T
        + z0 * k0d / (8 * eps**2 * mu) * T**2
        + z0 * k0d**2 / (4 * eps * w0) * T**3
    )
    return c0, c1, c2


def _taylor_coefficients_mp(coating, pol, k0, upto):
    """c_0..c_upto of Z(xi) around xi = 0, as mpmath numbers.

    TE uses the closed forms for c0..c2; everything else comes from the
    pinned-step Richardson differences of the exact impedance.
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    if not 0 <= upto <= 4:
        raise UsageError(f"Taylor order must be 0..4, got {upto}")
    with mp.workdps(_DPS):
        eps = _mpc(coating.eps_r)
        mu = _mpc(coating.mu_r)
        k0d = mp.mpf(k0) * mp.mpf(coating.d)
        # the closed forms below share the tan() pole of the exact impedance,
        # so refuse resonant layers up front rather than emitting huge c_k
        _guard_pole_mp(mp.sqrt(eps * mu) * k0d)
        cs = [None] * (upto + 1)
        if pol == "TE":
            c0, c1, c2 = _c012_te_closed_mp(eps, mu, k0d)
            for k, v in enumerate((c0, c1, c2)[: upto + 1]):
                cs[k] = v
        else:
            cs[0] = _z_exact_mp(pol, mp.mpf(0), eps, mu, k0d)

        def f(x):
            return _z_exact_mp(pol, x, eps, mu, k0d)

        for k in range(1, upto + 1):
            if cs[k] is None:
                cs[k] = _richardson_deriv(f, k) / mp.factorial(k)
        return cs


def taylor_coefficients(coating, pol, k0, upto=4):
    """Taylor coefficients c_0..c_upto of Z(xi) at xi = 0, as complex."""
    cs = _taylor_coefficients_mp(coating, pol, k0, upto)
    return np.array([complex(c) for c in cs])


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------

def taylor_ibc1(coating, k0):
    """First-order Taylor fit for TE: a1 = dZ/dxi at 0, b1 = 0."""
    cs = _taylor_coefficients_mp(coating, "TE", k0, 1)
    return IbcCoefficients(
        order="IBC1", pol="TE", a0=complex(cs[0]), a=complex(cs[1]), b=0j,
        coating=coating,
    )


def _pade11_mp(c0, c1, c2):
    if abs(c1) == 0:
        raise DegenerateFitError("Pade [1/1] fit needs c1 != 0, got c1 = 0")
    b1 = -c2 / c1
    a1 = c1 - c0 * c2 / c1
    return a1, b1


def pade_ibc1(coating, pol, k0):
    """[1/1] Pade fit: matches c0, c1, c2 of the exact impedance."""
    with mp.workdps(_DPS):
        c0, c1, c2 = _taylor_coefficients_mp(coating, pol, k0, 2)
        a1, b1 = _pade11_mp(c0, c1, c2)
        return IbcCoefficients(
            order="IBC1", pol=pol, a0=complex(c0), a=complex(a1), b=complex(b1),
            coating=coating,
        )


def _pade22_mp(cs):
    """[2/2] Pade from series coefficients c0..c4 (mp numbers)."""
    c0, c1, c2, c3, c4 = cs
    det = c2 * c2 - c1 * c3
    scale = abs(c2 * c2) + abs(c1 * c3)
    if scale == 0 or abs(det) <= mp.mpf("1e-14") * scale:
        raise DegenerateFitError(
            "degenerate Hankel system in the [2/2] Pade fit (c2^2 - c1 c3 ~ 0)"
        )
    q1 = (c1 * c4 - c2 * c3) / det
    q2 = (c3 * c3 - c2 * c4) / det
    p1 = c1 + q1 * c0
    p2 = c2 + q1 * c1 + q2 * c0
    return p1, p2, q1, q2


def pade_ibc2(coating, pol, k0):
    """[2/2] Pade fit: matches c0..c4 of the exact impedance."""
    with mp.workdps(_DPS):
        cs = _taylor_coefficients_mp(coating, pol, k0, 4)
        p1, p2, q1, q2 = _pade22_mp(cs)
        return IbcCoefficients(
            order="IBC2", pol=pol, a0=complex(cs[0]),
            a=complex(p1), ap=complex(p2), b=complex(q1), bp=complex(q2),
            coating=coating,
        )


def _check_node(theta):
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2.0:
        raise UsageError(f"collocation angle must lie in (0, pi/2), got {theta}")
    return theta


def collocation_ibc1(coating, pol, k0, theta1=None, theta2=None):
    """Two-point collocation: rational interpolates Z exactly at both nodes.

    Angles are in radians; defaults are 30 and 60 degrees.
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    if theta1 is None:
        theta1 = DEFAULT_NODES_IBC1[0]
    if theta2 is None:
        theta2 = DEFAULT_NODES_IBC1[1]
    theta1 = _check_node(theta1)
    theta2 = _check_node(theta2)
    if theta1 == theta2:
        raise DegenerateFitError("collocation nodes coincide (theta1 = theta2)")
    with mp.workdps(_DPS):
        eps = _mpc(coating.eps_r)
        mu = _mpc(coating.mu_r)
        k0d = mp.mpf(k0) * mp.mpf(coating.d)
        a0 = _z_exact_mp(pol, mp.mpf(0), eps, mu, k0d)
        rows = []
        rhs = []
        for th in (theta1, theta2):
            xi = -mp.sin(mp.mpf(th)) ** 2
            Z = _z_exact_mp(pol, xi, eps, mu, k0d)
            rows.append((xi, -xi * Z))
            rhs.append(Z - a0)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        # Hadamard bound as scale: catches both collinear rows and a
        # collapsing column (vanishing-thickness layer where Z -> 0).
        scale = (abs(rows[0][0]) + abs(rows[0][1])) * (abs(rows[1][0]) + abs(rows[1][1]))
        if scale == 0 or abs(det) <= mp.mpf("1e-25") * scale:
            raise DegenerateFitError(
                "collinear collocation nodes (singular 2x2 system); the exact "
                "impedance does not separate the chosen angles"
            )
        a = (rhs[0] * rows[1][1] - rows[0][1] * rhs[1]) / det
        b = (rows[0][0] * rhs[1] - rhs[0] * rows[1][0]) / det
        return IbcCoefficients(
            order="IBC1", pol=pol, a0=complex(a0), a=complex(a), b=complex(b),
            coating=coating,
        )


def collocation_ibc2(coating, pol, k0, thetas=None):
    """Four-point collocation for the second-order rational.

    Each node contributes the interpolation condition
    Z(xi_k) (1 + b xi_k + b' xi_k^2) = a0 + a xi_k + a' xi_k^2, linear in
    (a, a', b, b').  Angles are radians; defaults 20/40/60/80 degrees.
    """
    _check_pol(pol)
    _check_inputs(coating, k0)
    if thetas is None:
        thetas = DEFAULT_NODES_IBC2
    thetas = [_check_node(t) for t in thetas]
    if len(thetas) != 4:
        raise UsageError(f"need exactly 4 collocation angles, got {len(thetas)}")
    if len(set(thetas)) != 4:
        raise DegenerateFitError("collocation nodes must be distinct")
    with mp.workdps(_DPS):
        eps = _mpc(coating.eps_r)
        mu = _mpc(coating.mu_r)
        k0d = mp.mpf(k0) * mp.mpf(coating.d)
        a0 = _z_exact_mp(pol, mp.mpf(0), eps, mu, k0d)
        A = mp.zeros(4)
        rhs = mp.zeros(4, 1)
        Afloat = np.zeros((4, 4), dtype=complex)
        for r, th in enumerate(thetas):
            xi = -mp.sin(mp.mpf(th)) ** 2
            Z = _z_exact_mp(pol, xi, eps, mu, k0d)
            row = (xi, xi * xi, -xi * Z, -xi * xi * Z)
            for c, v in enumerate(row):
                A[r, c] = v
                Afloat[r, c] = complex(v)
            rhs[r] = Z - a0
        cond = np.linalg.cond(Afloat)
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateFitError(
                f"ill-conditioned collocation system (condition estimate {cond:.3e} "
                "> 1e12); choose better-separated angles"
            )
        sol = mp.lu_solve(A, rhs)
        return IbcCoefficients(
            order="IBC2", pol=pol, a0=complex(a0),
            a=complex(sol[0]), ap=complex(sol[1]),
            b=complex(sol[2]), bp=complex(sol[3]),
            coating=coating,
        )


def leontovich_ibc0(coating, pol, k0):
    """Order-0 coefficients: the Leontovich constant impedance."""
    return IbcCoefficients(
        order="IBC0", pol=pol, a0=leontovich_a0(coating, k0), coating=coating,
    )


def fit_coefficients(coating, pol, k0, order, method="pade", thetas=None):
    """Dispatch helper: fit coefficients of the requested order and method."""
    if order == "IBC0":
        return leontovich_ibc0(coating, pol, k0)
    if order == "IBC1":
        if method == "pade":
            return pade_ibc1(coating, pol, k0)
        if method == "taylor":
            if pol != "TE":
                raise UsageError("the Taylor closed form is available for TE only")
            return taylor_ibc1(coating, k0)
        if method == "collocation":
            t = tuple(thetas) if thetas else (None, None)
            if len(t) != 2:
                raise UsageError("first-order collocation takes two angles")
            return collocation_ibc1(coating, pol, k0, t[0], t[1])
        raise UsageError(f"unknown fit method {method!r}")
    if order == "IBC2":
        if method == "pade":
            return pade_ibc2(coating, pol, k0)
        if method == "collocation":
            return collocation_ibc2(coating, pol, k0, thetas)
        if method == "taylor":
            raise UsageError("no closed-form Taylor fit at second order; use pade")
        raise UsageError(f"unknown fit method {method!r}")
    raise UsageError(f"order must be one of {ORDERS}, got {order!r}")


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


def _default_tol(coeffs, tol):
    if tol is None:
        return 1e-9 * abs(coeffs.a0)
    return float(tol)


def suc_check_ibc1(coeffs, tol=None):
    """Uniqueness conditions for the first-order coefficients.

    Equalities are tested as |lhs| <= tol, sign conditions as
    lhs >= -tol * scale with the scale chosen to keep units consistent
    (tol itself is in ohms; default 1e-9 |a0|).
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order != "IBC1":
        raise UsageError(f"suc_check_ibc1 needs IBC1 coefficients, got {coeffs.order}")
    tol = _default_tol(coeffs, tol)
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


def suc_check_ibc2(coeffs, tol=None):
    """Uniqueness conditions for the second-order coefficients (nine clauses).

    Delta, alpha, beta are reported in ``details``.  Tolerances scale with
    powers of |a0| so each clause is compared in its own units.
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order != "IBC2":
        raise UsageError(f"suc_check_ibc2 needs IBC2 coefficients, got {coeffs.order}")
    tol = _default_tol(coeffs, tol)
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


def wellposedness_check(coeffs, tol=None):
    """Coercivity coefficient condition Re(a_j) + |a0| |b_j + a_j*/a0*| / 2 = 0.

    Reported, never enforced: the solver warns and proceeds when it fails.
    """
    if not isinstance(coeffs, IbcCoefficients):
        raise UsageError(f"expected IbcCoefficients, got {type(coeffs).__name__}")
    if coeffs.order == "IBC0":
        raise UsageError("wellposedness_check applies to IBC1/IBC2 coefficients")
    if coeffs.a0 == 0:
        raise UsageError("a0 must be nonzero")
    tol = _default_tol(coeffs, tol)
    lhs = coeffs.a.real + abs(coeffs.a0) * abs(
        coeffs.b + coeffs.a.conjugate() / coeffs.a0.conjugate()
    ) / 2.0
    clause = ("Re(a_j) + |a0| |b_j + a_j*/a0*|/2 = 0", lhs, tol, bool(abs(lhs) <= tol))
    return SucReport(passed=clause[3], clauses=(clause,), tolerance=tol)
