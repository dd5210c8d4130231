"""Far fields, echo widths, and the exact cylinder series references.

The scattered far field is extracted from the surface currents through
the large-argument form of the outgoing kernel; echo width follows the
2D convention sigma(phi) = lim 2*pi*r*|u_sc|^2/|u_inc|^2 and is reported
in dB relative to one metre.  The modal series for coated, impedance,
and bare conducting cylinders provide independent reference curves that
never touch the boundary-element code paths.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .assembly import IncidentWave, SurfaceCurrents, _plain_kernels, \
    assemble_rhs, build_reduced_system, solve_currents
from .errors import TruncationError, UsageError, ValidationError
from .geometry import Contour, contour_hash
from .impedance import IbcCoefficients
from .linsolve import lu_factor, solve
from .specfun import C0, Z0, bessel_jy, gauss_legendre_unit

log = logging.getLogger("hoibc2d.analysis")

TAIL_TOL = 1e-10
SWEEP_CHUNK = 256  # angles per block solve in angle sweeps; bounds the rhs memory
DB_FLOOR = 1e-300  # linear echo widths are floored here before log10


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FarFieldPattern:
    """Complex scattering amplitude F(phi): u_sc ~ F * exp(-i k r)/sqrt(r)."""

    angles: np.ndarray        # observation angles [deg]
    values: np.ndarray        # F at each angle
    k0: float
    pol: str
    incident_amplitude: complex
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RcsPattern:
    """Echo width curve in dB(m) over a strictly increasing axis."""

    angles: np.ndarray
    sigma: np.ndarray         # dB relative to 1 m
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "sigma", sigma)
        if angles.ndim != 1 or angles.shape != sigma.shape:
            raise ValidationError("angles and sigma must be matching 1D arrays")
        if angles.size > 1 and not np.all(np.diff(angles) > 0.0):
            raise ValidationError("axis values must be strictly increasing")
        if not np.all(np.isfinite(sigma)):
            raise ValidationError("sigma contains non-finite entries")


@dataclass(frozen=True)
class SeriesSolutionSpec:
    """Coated conducting cylinder: PEC core radius a, coating out to a + d."""

    a: float
    d: float
    eps_r: complex
    mu_r: complex
    k0: float
    n_max: int = None

    def __post_init__(self):
        bad = []
        if not self.a > 0.0:
            bad.append(f"a = {self.a} (need > 0)")
        if self.d < 0.0:
            bad.append(f"d = {self.d} (need >= 0)")
        if not self.k0 > 0.0:
            bad.append(f"k0 = {self.k0} (need > 0)")
        eps, mu = complex(self.eps_r), complex(self.mu_r)
        if eps.imag > 0.0 or mu.imag > 0.0:
            bad.append("passive materials need Im(eps_r) <= 0 and Im(mu_r) <= 0")
        if bad:
            raise ValidationError("; ".join(bad))
        object.__setattr__(self, "eps_r", eps)
        object.__setattr__(self, "mu_r", mu)
        floor = _n_max_floor(self.k0 * self.b)
        if self.n_max is None:
            object.__setattr__(self, "n_max", _n_max_default(self.k0 * self.b))
        elif int(self.n_max) < floor:
            raise ValidationError(
                f"n_max = {self.n_max} below the safe minimum {floor} "
                f"for k0*b = {self.k0 * self.b:.4g}")
        else:
            object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def b(self):
        return self.a + self.d


def _n_max_floor(k0b):
    return int(np.ceil(k0b)) + 15


def _n_max_default(k0b):
    return int(np.ceil(k0b)) + max(15, int(np.ceil(4.0 * k0b ** (1.0 / 3.0))))


# --------------------------------------------------------------------------
# far field from surface currents
# --------------------------------------------------------------------------

def _current_traces(contour, currents, n_gl=8, n_angles=None):
    """Quadrature points plus J and M sampled on them.

    J always lives on the nodal space.  M is nodal in the default mode
    and elementwise when the solve ran with the mixed space; the solver
    records which in ``currents.meta``.  Given ``n_angles``, the traces
    carry a last axis of columns: one per observation angle when J and M
    hold one column per angle, else the single current's one column.
    """
    qp, qw = gauss_legendre_unit(n_gl)
    first = contour.nodes[contour.elements[:, 0]]
    second = contour.nodes[contour.elements[:, 1]]
    pts = first[:, None, :] + qp[None, :, None] * (second - first)[:, None, :]
    wts = contour.lengths[:, None] * qw[None, :]

    def checked(name, vals, n, what=""):
        vals = np.asarray(vals)
        if vals.shape[:1] != (n,) or vals.ndim > (1 if n_angles is None else 2):
            raise UsageError(f"{name} has shape {vals.shape}; expected ({n},)"
                             f"{what}")
        if vals.shape[1:] not in ((), (n_angles,)):
            raise UsageError(f"{name} has {vals.shape[1]} columns; expected "
                             f"one per observation angle ({n_angles})")
        return vals if n_angles is None else vals.reshape(n, -1)

    def nodal_trace(vals):
        t = qp.reshape((-1,) + (1,) * (vals.ndim - 1))
        return (vals[contour.elements[:, 0], None] * (1.0 - t)
                + vals[contour.elements[:, 1], None] * t)

    jv = nodal_trace(checked("J", currents.J, contour.n_nodes))
    mode = currents.meta.get("mode", "p1")
    if mode == "p1":
        mv = nodal_trace(checked("M", currents.M, contour.n_nodes,
                                 " nodal values"))
    elif mode == "p0":
        m = checked("M", currents.M, contour.n_elements, " elementwise values")
        mv = np.broadcast_to(m[:, None], pts.shape[:2] + m.shape[1:])
    else:
        raise UsageError(f"unknown current space tag {mode!r}")
    return pts, jv, mv, wts


def far_field(currents, contour, wave, angles_deg, n_gl=8):
    """Scattering amplitude at the observation angles [deg].

    Normalized so that the scattered scalar (H_z for TE, E_z for TM)
    behaves as F(phi) e^{-i k r} / sqrt(r); the echo width then is
    2 pi |F|^2 / |amplitude|^2.  J and M of shape (n,) radiate at every
    angle; of shape (n, K), K angles, column k radiates at angle k only.
    """
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    pts, jv, mv, wts = _current_traces(contour, currents, n_gl, angles.size)
    xhat = np.column_stack([np.cos(np.deg2rad(angles)),
                            np.sin(np.deg2rad(angles))])
    phase = np.exp(1j * wave.k0 * np.einsum("eqd,ad->eqa", pts, xhat))
    ndot = contour.normals @ xhat.T           # (elements, angles)
    sg = contour.sigma
    pref = 0.25 * wave.k0 * np.sqrt(2.0 / (np.pi * wave.k0)) \
        * np.exp(0.25j * np.pi)
    # in-place updates keep few (elements, points, angles) arrays alive
    if wave.pol == "TE":
        dens = sg * ndot[:, None, :] * jv
        dens += mv / Z0
        pref = -pref
    else:
        dens = sg * ndot[:, None, :] * mv
        dens -= Z0 * jv
    dens *= phase
    values = pref * np.einsum("eqa,eq->a", dens, wts)
    meta = {"geometry": contour_hash(contour)}
    meta.update(currents.meta)
    return FarFieldPattern(angles=angles, values=values, k0=wave.k0,
                           pol=wave.pol, incident_amplitude=wave.amplitude,
                           meta=meta)


def scattered_field(currents, contour, wave, points, n_gl=8):
    """Scattered scalar evaluated off the surface.

    Same layer representation as :func:`far_field` but with the exact
    kernels, so for |x| large the two agree after the sqrt(r) e^{+ikr}
    rescaling.  ``points`` must keep a safe distance from the contour.
    """
    pts, jv, mv, wts = _current_traces(contour, currents, n_gl)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(points.shape[0], dtype=complex)
    k0 = wave.k0
    for i, x in enumerate(points):
        d = pts - x[None, None, :]
        r = np.hypot(d[..., 0], d[..., 1])
        g, w = _plain_kernels(k0, r)
        dgdn = w * np.einsum("eqd,ed->eq", d, contour.normals)
        if wave.pol == "TE":
            val = -contour.sigma * np.sum(dgdn * jv * wts) \
                - (1j * k0 / Z0) * np.sum(g * mv * wts)
        else:
            val = contour.sigma * np.sum(dgdn * mv * wts) \
                - 1j * k0 * Z0 * np.sum(g * jv * wts)
        out[i] = val
    return out


def echo_width(pattern):
    """Echo width sigma(phi) = 2 pi |F|^2 / |u_inc|^2 in dB(m)."""
    amp = abs(pattern.incident_amplitude)
    if amp == 0.0:
        raise UsageError("incident amplitude is zero; echo width undefined")
    lin = 2.0 * np.pi * np.abs(pattern.values) ** 2 / amp**2
    db = 10.0 * np.log10(np.maximum(lin, DB_FLOOR))
    meta = dict(pattern.meta)
    meta.setdefault("pol", pattern.pol)
    meta.setdefault("k0", pattern.k0)
    meta.setdefault("axis", "angle_deg")
    return RcsPattern(angles=pattern.angles, sigma=db, meta=meta)


# --------------------------------------------------------------------------
# modal series references
# --------------------------------------------------------------------------

def _jy_with_derivs(nmax, z):
    """J, J', Y, Y' for orders 0..nmax at a common argument."""
    js, ys = bessel_jy(nmax + 1, complex(z))
    n = np.arange(1, nmax + 1)
    jp = np.empty(nmax + 1, dtype=complex)
    yp = np.empty(nmax + 1, dtype=complex)
    jp[0], yp[0] = -js[1], -ys[1]
    jp[1:] = js[:nmax] - (n / z) * js[1:nmax + 1]
    yp[1:] = ys[:nmax] - (n / z) * ys[1:nmax + 1]
    return js[:nmax + 1], jp, ys[:nmax + 1], yp


def _pec_modes(k0a, pol, nmax):
    j, jp, y, yp = _jy_with_derivs(nmax, k0a)
    h, hp = j - 1j * y, jp - 1j * yp
    return -jp / hp if pol == "TE" else -j / h


def cylinder_modes(spec, pol):
    """Scattering coefficients c_n, n = 0..n_max, for the coated cylinder.

    Cylindrical harmonics of k1 = k0 sqrt(eps_r mu_r) inside the
    coating, outgoing harmonics of k0 outside, tangential fields matched
    at the coating surface and the conductor condition applied at the
    core.  A vanishing coating thickness degenerates to the bare
    conductor through the J/Y Wronskian.
    """
    if pol not in ("TE", "TM"):
        raise UsageError(f"polarization must be TE or TM, got {pol!r}")
    nmax = spec.n_max
    k0b = spec.k0 * spec.b
    if spec.d == 0.0:
        return _pec_modes(k0b, pol, nmax)
    k1 = spec.k0 * np.sqrt(spec.eps_r * spec.mu_r)
    j, jp, y, yp = _jy_with_derivs(nmax, k0b)
    h, hp = j - 1j * y, jp - 1j * yp
    jb, jpb, yb, ypb = _jy_with_derivs(nmax, k1 * spec.b)
    ja, jpa, ya, ypa = _jy_with_derivs(nmax, k1 * spec.a)
    if pol == "TM":
        # E_z vanishes on the core
        F = jb * ya - yb * ja
        Fp = jpb * ya - ypb * ja
        fac = k1 / spec.mu_r
    else:
        # E_phi ~ dH_z/drho vanishes on the core
        F = jb * ypa - yb * jpa
        Fp = jpb * ypa - ypb * jpa
        fac = k1 / spec.eps_r
    num = fac * Fp * j - spec.k0 * jp * F
    den = fac * Fp * h - spec.k0 * hp * F
    return -num / den


def impedance_cylinder_modes(radius, impedance, k0, pol, n_max=None):
    """c_n for a cylinder closed by a surface impedance.

    ``impedance`` is a constant (ohms) or fitted rational coefficients;
    a rational model is sampled per mode at its own spectral point
    xi_n = -(n/(k0 radius))^2, which is how the higher-order condition
    acts on cylindrical harmonics.  A plain constant is taken verbatim
    as the physical impedance; fitted coefficients are stored in the
    reactance convention and get the same factor i here that the solver
    applies, so both routes discretize one boundary condition.
    """
    if pol not in ("TE", "TM"):
        raise UsageError(f"polarization must be TE or TM, got {pol!r}")
    if not (radius > 0.0 and k0 > 0.0):
        raise UsageError("radius and k0 must be positive")
    k0b = k0 * radius
    nmax = _n_max_default(k0b) if n_max is None else int(n_max)
    xi = -((np.arange(nmax + 1) / k0b) ** 2)
    if isinstance(impedance, IbcCoefficients):
        c = impedance
        num = 1j * (c.a0 + c.a * xi + c.ap * xi**2)
        den = 1.0 + c.b * xi + c.bp * xi**2
    else:
        num = np.full(nmax + 1, complex(impedance))
        den = np.ones(nmax + 1)
    j, jp, y, yp = _jy_with_derivs(nmax, k0b)
    h, hp = j - 1j * y, jp - 1j * yp
    # cleared-denominator form: finite through impedance poles and zeros
    if pol == "TE":
        top, bot = den * jp - (1j / Z0) * num * j, \
            den * hp - (1j / Z0) * num * h
    else:
        top, bot = num * jp - 1j * Z0 * den * j, \
            num * hp - 1j * Z0 * den * h
    return -top / bot


def _pattern_from_modes(modes, k0, angles_deg, mode, phi_inc_deg, meta):
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    nmax = modes.size - 1
    if mode == "bistatic":
        alpha = np.deg2rad(angles - phi_inc_deg)
    elif mode == "monostatic":
        # rotational symmetry: every look angle sees the backscatter value
        alpha = np.full(angles.shape, np.pi)
    else:
        raise UsageError(f"mode must be bistatic or monostatic, got {mode!r}")
    harm = np.cos(np.outer(alpha, np.arange(1, nmax + 1)))
    s = modes[0] + 2.0 * harm @ modes[1:]
    tail = 2.0 * abs(modes[-1]) / max(np.max(np.abs(s)), 1e-300)
    if tail > TAIL_TOL:
        raise TruncationError(
            f"series tail {tail:.3e} above {TAIL_TOL:.0e} at n_max = {nmax}",
            n_max=nmax, last_coefficient=abs(modes[-1]), tail_ratio=tail)
    lin = (4.0 / k0) * np.abs(s) ** 2
    db = 10.0 * np.log10(np.maximum(lin, DB_FLOOR))
    meta = dict(meta)
    meta.update({"k0": k0, "mode": mode, "phi_inc_deg": phi_inc_deg,
                 "axis": "angle_deg"})
    return RcsPattern(angles=angles, sigma=db, meta=meta)


def series_coated_cylinder(spec, pol, angles_deg, mode="bistatic",
                           phi_inc_deg=0.0):
    """Exact echo width of the coated conducting cylinder, in dB(m)."""
    modes = cylinder_modes(spec, pol)
    meta = {"pol": pol, "ibc": "exact",
            "geometry": f"coated-cylinder a={spec.a:.12g} d={spec.d:.12g} "
                        f"eps={spec.eps_r:.12g} mu={spec.mu_r:.12g}"}
    return _pattern_from_modes(modes, spec.k0, angles_deg, mode,
                               phi_inc_deg, meta)


def series_impedance_cylinder(radius, impedance, k0, pol, angles_deg,
                              mode="bistatic", phi_inc_deg=0.0, n_max=None):
    """Echo width of the impedance-closed cylinder, in dB(m).

    This solves the same boundary condition the solver discretizes, so
    it isolates discretization error from the impedance-model error.
    """
    modes = impedance_cylinder_modes(radius, impedance, k0, pol, n_max)
    tag = impedance.order if isinstance(impedance, IbcCoefficients) \
        else f"Z={complex(impedance):.12g}"
    meta = {"pol": pol, "ibc": tag,
            "geometry": f"impedance-cylinder b={radius:.12g}"}
    return _pattern_from_modes(modes, k0, angles_deg, mode, phi_inc_deg, meta)


def series_pec_cylinder(radius, k0, pol, angles_deg, mode="bistatic",
                        phi_inc_deg=0.0, n_max=None):
    """Echo width of the bare conducting cylinder, in dB(m)."""
    if pol not in ("TE", "TM"):
        raise UsageError(f"polarization must be TE or TM, got {pol!r}")
    nmax = _n_max_default(k0 * radius) if n_max is None else int(n_max)
    modes = _pec_modes(k0 * radius, pol, nmax)
    meta = {"pol": pol, "ibc": "exact",
            "geometry": f"pec-cylinder a={radius:.12g}"}
    return _pattern_from_modes(modes, k0, angles_deg, mode, phi_inc_deg, meta)


def optical_theorem_residual(modes):
    """Relative defect of sum(|c_n|^2) = -sum(Re c_n) (lossless only)."""
    w = np.full(modes.size, 2.0)
    w[0] = 1.0
    scat = np.sum(w * np.abs(modes) ** 2)
    ext = -np.sum(w * modes.real)
    return abs(scat - ext) / max(scat, 1e-300)


# --------------------------------------------------------------------------
# solver-driven sweeps
# --------------------------------------------------------------------------

def solve_and_pattern(contour, coeffs, wave, angles_deg, mode="p1",
                      lump_mass=False, blocks=None):
    """One bistatic solve: reduced system, currents, echo width curve."""
    system = build_reduced_system(contour, coeffs, wave, mode=mode,
                                  lump_mass=lump_mass, blocks=blocks)
    sol = solve_currents(system)
    ff = far_field(sol, contour, wave, angles_deg)
    pattern = echo_width(ff)
    pattern.meta["ibc"] = coeffs.order
    return pattern, sol


def monostatic_sweep(contour, coeffs, sweep, kind="angle", k0=None,
                     pol=None, phi_inc_deg=0.0, mode="p1", lump_mass=False):
    """Backscatter echo width over incidence angles or frequencies.

    Angle sweeps hold the geometry and matrix fixed: the operator is
    factorized once and only the right-hand side changes per angle.
    Frequency sweeps re-assemble per point and accept either fixed
    coefficients or a callable frequency -> coefficients.
    """
    sweep = np.atleast_1d(np.asarray(sweep, dtype=float))
    if sweep.size > 1 and not np.all(np.diff(sweep) > 0.0):
        raise ValidationError("sweep values must be strictly increasing")
    if kind == "angle":
        if k0 is None:
            raise UsageError("angle sweeps need k0")
        if not isinstance(coeffs, IbcCoefficients):
            raise UsageError("angle sweeps need fixed coefficients")
        sig = _sweep_angles(contour, coeffs, sweep, k0, mode, lump_mass)
        meta = {"pol": coeffs.pol, "ibc": coeffs.order, "k0": k0,
                "axis": "angle_deg", "geometry": contour_hash(contour)}
        return RcsPattern(angles=sweep, sigma=sig, meta=meta)
    if kind == "frequency":
        sig = np.empty(sweep.size)
        tag = None
        for i, f_hz in enumerate(sweep):
            ki = 2.0 * np.pi * f_hz / C0
            ci = coeffs(f_hz) if callable(coeffs) else coeffs
            tag = ci.order
            wave = IncidentWave(pol=ci.pol, k0=ki,
                                phi_inc=np.deg2rad(phi_inc_deg))
            pattern, _ = solve_and_pattern(
                contour, ci, wave, [phi_inc_deg + 180.0], mode=mode,
                lump_mass=lump_mass)
            sig[i] = pattern.sigma[0]
        meta = {"pol": pol or "", "ibc": tag, "axis": "freq_GHz",
                "phi_inc_deg": phi_inc_deg, "geometry": contour_hash(contour)}
        return RcsPattern(angles=sweep / 1e9, sigma=sig, meta=meta)
    raise UsageError(f"sweep kind must be angle or frequency, got {kind!r}")


def _sweep_angles(contour, coeffs, angles_deg, k0, mode, lump_mass):
    wave0 = IncidentWave(pol=coeffs.pol, k0=k0,
                         phi_inc=np.deg2rad(angles_deg[0]))
    system = build_reduced_system(contour, coeffs, wave0, mode=mode,
                                  lump_mass=lump_mass)
    fac = lu_factor(system.reduced_matrix)
    n_red = system.reduced_rhs.size
    con = np.asarray(system.constrained, dtype=int)
    pinned = con[con < n_red]
    m_space = "P1_nodal" if mode == "p1" else "P0_elementwise"
    n1 = system.sizes[0]
    out = np.empty(len(angles_deg))
    # per chunk: one rhs block, one multi-column solve (column k bitwise
    # its own solve, see linsolve), one far field with column k at angle k
    for lo in range(0, len(angles_deg), SWEEP_CHUNK):
        phis = angles_deg[lo:lo + SWEEP_CHUNK]
        waves = [IncidentWave(pol=coeffs.pol, k0=k0, phi_inc=np.deg2rad(phi))
                 for phi in phis]
        rhs = assemble_rhs(contour, waves, m_space)
        rhs[pinned] = 0.0
        x = solve(fac, rhs)
        sol = SurfaceCurrents(J=x[:n1], M=x[n1:], meta={"mode": mode})
        ff = far_field(sol, contour, waves[0], phis + 180.0)
        out[lo:lo + len(phis)] = echo_width(ff).sigma
    return out


# --------------------------------------------------------------------------
# curve comparison and serialization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RcsComparison:
    diff_dB: np.ndarray
    max_abs_dB: float
    mean_abs_dB: float

    def fraction_within(self, threshold_dB):
        return float(np.mean(np.abs(self.diff_dB) <= threshold_dB))


def compare_rcs(a, b):
    """Pointwise dB differences between two curves on one grid."""
    if not np.array_equal(a.angles, b.angles):
        raise UsageError("patterns live on different grids")
    diff = a.sigma - b.sigma
    return RcsComparison(diff_dB=diff,
                         max_abs_dB=float(np.max(np.abs(diff))),
                         mean_abs_dB=float(np.mean(np.abs(diff))))


def rcs_csv_text(pattern):
    """CSV with '#'-prefixed metadata header; byte-deterministic."""
    lines = []
    for key in sorted(pattern.meta):
        lines.append(f"# {key}={pattern.meta[key]}")
    axis = pattern.meta.get("axis", "angle_deg")
    lines.append(f"{axis},sigma_dBm")
    for x, s in zip(pattern.angles, pattern.sigma):
        lines.append(f"{float(x)!r},{float(s)!r}")
    return "\n".join(lines) + "\n"


def rcs_csv_parse(text):
    """Inverse of :func:`rcs_csv_text`; metadata values come back as strings."""
    meta, axis, xs, ss = {}, None, [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].strip().partition("=")
            if eq:
                meta[key.strip()] = val
            continue
        if axis is None:
            head = line.split(",")
            if len(head) != 2 or head[1] != "sigma_dBm":
                raise ValidationError(f"unrecognized curve header {line!r}")
            axis = head[0]
            continue
        a, _, s = line.partition(",")
        try:
            xs.append(float(a))
            ss.append(float(s))
        except ValueError as exc:
            raise ValidationError(f"bad curve row {line!r}") from exc
    if axis is None or not xs:
        raise ValidationError("curve file has no data rows")
    meta["axis"] = axis
    return RcsPattern(angles=np.array(xs), sigma=np.array(ss), meta=meta)
