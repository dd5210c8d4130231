"""Reduced-system solves, far fields, echo widths, cylinder series references.

Every far field of the solver comes from reciprocity: towards x_hat the
far-field phase exp(i k0 x_hat.x) is the unit plane wave travelling along
-x_hat, so the radiated amplitude is that wave's right-hand side (its
tested incident traces, closed-form and exact for k0 h < MAX_KH) dotted
with the currents.  Bistatic far fields assemble one such column per
angle, in blocks of SWEEP_CHUNK angles, O(elements x SWEEP_CHUNK)
memory; monostatic sweeps reuse the block they solved.  On a
rotation-invariant contour every node's column is node 0's turned, so a
far field samples node 0's traces at L angles and sums M of their modes
against the DFT of the currents (Mautz & Harrington, AEU 32 (1978)
157-164), in O(L + M x SWEEP_CHUNK) memory.  On a uniform chain every
element's moments are element 0's times a phase, so a far field is a
polynomial in that phase with the currents as coefficients, in
O(nodes + SWEEP_CHUNK) memory.  Echo width follows
the 2D convention sigma(phi) = lim 2*pi*r*|u_sc|^2/|u_inc|^2 and is
reported in dB relative to one metre.  The modal series for coated,
impedance, and bare conducting cylinders provide independent reference
curves that never touch the boundary-element code paths.
"""

import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .assembly import IncidentWave, SurfaceCurrents, _dot_dirs, \
    _jm_matvec, _node0_traces, _plain_kernels, _rhs_terms, \
    _rotation_sense, _uniform_chain, assemble_rhs, build_reduced_system
from .errors import TruncationError, UsageError, ValidationError
from .geometry import Contour, contour_hash
from .impedance import IbcCoefficients
from .linsolve import (BlockCirculant, MirrorPair, apply_modes, factor_modes,
                       lu_factor, solve, solve_mirror)
from .specfun import C0, Z0, bessel_jy, gauss_legendre_unit

log = logging.getLogger("hoibc2d.analysis")

TAIL_TOL = 1e-10
# the largest trace mode past those a far field keeps on the mode path,
# relative to the largest trace sample (_trace_modes); rounding leaves
# 5e-17 at k0 rho = 2.6, 4e-15 at 290 and 1e-14 at 1200
FF_TAIL_TOL = 1e-12
# angles per plane-wave block, in angle sweeps and far fields alike; it
# bounds their memory at O(elements x SWEEP_CHUNK), whatever the angle count
SWEEP_CHUNK = 256
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

def _current_dofs(contour, currents):
    """J and M of one solution, both checked as nodal (n_nodes,) values."""
    def checked(name, vals):
        vals = np.asarray(vals)
        if vals.shape != (contour.n_nodes,):
            raise UsageError(f"{name} has shape {vals.shape}; expected "
                             f"({contour.n_nodes},) nodal values")
        return vals

    return checked("J", currents.J), checked("M", currents.M)


def _current_traces(contour, currents, n_gl):
    """Gauss-Legendre points and weights plus J and M sampled on them."""
    qp, qw = gauss_legendre_unit(n_gl)
    wts = contour.lengths[:, None] * qw[None, :]

    def nodal_trace(vals):
        return (vals[contour.elements[:, 0], None] * (1.0 - qp)
                + vals[contour.elements[:, 1], None] * qp)

    j, m = _current_dofs(contour, currents)
    return contour.points(qp), nodal_trace(j), nodal_trace(m), wts


def far_field(currents, contour, wave, angles_deg, n_gl=8):
    """Scattering amplitude at the observation angles [deg].

    Normalized so that the scattered scalar (H_z for TE, E_z for TM)
    behaves as F(phi) e^{-i k r} / sqrt(r); the echo width then is
    2 pi |F|^2 for the unit incident wave.  J and M are single (n,) currents.

    By reciprocity (module notes) F at each angle is the right-hand side
    of the unit wave arriving from it, phi_inc = angle + 180 deg, dotted
    with [J; M]; an element with k0 h >= MAX_KH raises MeshError.  The
    contour picks one of three ways to form that product, SWEEP_CHUNK
    angles at a time:

    - rotation-invariant: a short sum over the modes of node 0's traces
      (:func:`_trace_modes`), in O(L + M x SWEEP_CHUNK) memory; a tail
      past the kept modes above FF_TAIL_TOL raises TruncationError;
    - uniform chain (every ``mesh_plate``): element 0's moments and a
      Horner sum over the nodes (:func:`_chain_amplitude`), in
      O(nodes + SWEEP_CHUNK);
    - any other: the unit-wave block of ``assemble_rhs``, in
      O(elements x SWEEP_CHUNK).

    Memory does not grow with the angle count beyond the O(angles) input
    and output, and F at an angle is the same whatever other angles share
    the call.
    ``n_gl`` has no effect; the benchmark tracer (bench/tracing.py) reads
    it to count far-field points.
    """
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    j, m = _current_dofs(contour, currents)
    x = np.concatenate([j, m])
    pol, k0 = wave.pol, wave.k0
    sense = _rotation_sense(contour)
    if sense:
        amplitude = partial(_mode_amplitude, contour, pol, k0,
                            *_trace_modes(contour, pol, k0, sense, x))
    elif _uniform_chain(contour):
        amplitude = partial(_chain_amplitude, contour, pol, k0, x)
    else:
        def amplitude(phis):
            return _reciprocal_amplitude(contour, pol, k0,
                                         assemble_rhs(contour, pol, k0, phis),
                                         x)
    phis = np.deg2rad(angles) + np.pi
    values = np.empty(angles.size, dtype=complex)
    for lo in range(0, angles.size, SWEEP_CHUNK):
        block = phis[lo:lo + SWEEP_CHUNK]
        values[lo:lo + block.size] = amplitude(block)
    meta = {"geometry": contour_hash(contour)}
    meta.update(currents.meta)
    return FarFieldPattern(angles=angles, values=values, k0=k0, pol=pol,
                           meta=meta)


def _amplitude(contour, pol, k0, e_dot, h_dot):
    """Far-field amplitude F from the E rows dotted with J and the H rows
    dotted with M, times the large-argument limit of the outgoing kernel."""
    sg = contour.sigma
    pref = 0.25 * k0 * np.sqrt(2.0 / (np.pi * k0)) * np.exp(0.25j * np.pi)
    if pol == "TE":
        return -pref * (sg * h_dot - e_dot) / Z0
    return pref * Z0 * (h_dot - sg * e_dot)


def _reciprocal_amplitude(contour, pol, k0, rhs, x):
    """Far-field amplitude F of the currents x towards -d_k, for each unit
    wave k of the (n, K) block rhs (:func:`_amplitude`).  x is one (n,)
    pair [J; M], or an (n, K) block whose column k pairs with wave k.
    """
    n1 = contour.n_nodes
    e_dot = np.einsum("i...,i...->...", rhs[:n1], x[:n1])
    h_dot = np.einsum("i...,i...->...", rhs[n1:], x[n1:])
    return _amplitude(contour, pol, k0, e_dot, h_dot)


def _mode_count(z):
    """M, the largest |m| kept of the traces of node 0 of a contour of
    electrical radius z = k0 rho: its modes fall off like J_m(z), fast
    once m passes z by a few z^(1/3)."""
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 10.0)


def _trace_modes(contour, pol, k0, sense, x):
    """(modes, coefs, centroid) of the far field of the currents x = [J; M]
    on a rotation-invariant contour turning with ``sense``
    (``assembly._rotation_sense``).

    Node i is node 0 turned about the centroid c by s 2 pi i / n, so its
    E and H rows in assemble_rhs for the wave along angle phi are
    exp(-i k0 d.c) g(phi - s 2 pi i / n), g node 0's rows about c.  With
    g = sum_m g_m exp(i m phi) and X_k the DFT of J (E) or M (H), the
    product with the currents is exp(-i k0 d.c) sum_m g_m X_{s m mod n}
    exp(i m phi).  g_m is the FFT of g sampled at L equispaced angles,
    L a power of two >= 2M + 2, M = _mode_count(k0 rho), rho the largest
    node distance from c.  The largest |g_m| over M < |m| <= L/2 of each
    row, relative to that row's largest sample, must be at most
    FF_TAIL_TOL, or TruncationError: it bounds both the dropped modes and
    the aliases in the kept ones.  coefs is (2, 2M + 1), the E and H
    rows' g_m X_{s m mod n} at the modes m = -M .. M.
    """
    n = contour.n_nodes
    centroid = contour.nodes.mean(axis=0)
    rho = np.hypot(*(contour.nodes - centroid).T).max()
    m_max = _mode_count(k0 * rho)
    size = 2 ** math.ceil(math.log2(2 * m_max + 2))
    phi = (2.0 * np.pi / size) * np.arange(size)
    rows = _node0_traces(contour, pol, k0,
                         np.stack([np.cos(phi), np.sin(phi)]))
    g = np.fft.fft(rows, axis=1) / size
    tail = float((np.abs(g[:, m_max + 1:size - m_max]).max(axis=1)
                  / np.abs(rows).max(axis=1)).max())
    if not tail <= FF_TAIL_TOL:
        raise TruncationError(
            f"far-field mode tail {tail:.3e} not below {FF_TAIL_TOL:.0e} "
            f"past |m| = {m_max} ({size} samples)",
            n_max=m_max, samples=size, tail_ratio=tail)
    modes = np.arange(-m_max, m_max + 1)
    xh = np.fft.fft(x.reshape(2, n), axis=1)
    return modes, g[:, modes % size] * xh[:, (sense * modes) % n], centroid


def _mode_amplitude(contour, pol, k0, modes, coefs, centroid, phis):
    """F at the incidence angles phis (radians) from :func:`_trace_modes`:
    the mode sum of each row by np.einsum, one angle at a time in effect,
    so an angle's value does not depend on the others of the call."""
    wrapped = np.remainder(phis + np.pi, 2.0 * np.pi) - np.pi
    harm = np.multiply.outer(wrapped, 1j * modes)              # (K, 2M + 1)
    np.exp(harm, out=harm)
    phase = np.exp(-1j * k0 * (np.cos(phis) * centroid[0]
                               + np.sin(phis) * centroid[1]))
    e_dot, h_dot = (phase * np.einsum("km,m->k", harm, c) for c in coefs)
    return _amplitude(contour, pol, k0, e_dot, h_dot)


def _chain_amplitude(contour, pol, k0, x, phis):
    """F at the incidence angles phis (radians) of the currents x = [J; M]
    on a uniform chain (``assembly._uniform_chain``).

    Element e is element 0 moved by e D, D = (node N - 1 - node 0) / n, so
    for the wave along d its start and end moments are element 0's
    (``assembly._rhs_terms``) times z^e, z = exp(-i k0 d.D).  Slot a of
    element e meets the current at node e + a, so each row's product with
    the currents is element 0's two slots times the sums
    S_a = sum_e x_{e+a} z^e over the elements: S_1 by Horner over the
    nodes, and S_0 = x_0 + z S_1 - x_n z^n.  Every step is elementwise in
    the angle, so an angle's value does not depend on the others of the
    call."""
    dirs = np.stack([np.cos(phis), np.sin(phis)])
    mom, e_fac, h_fac = _rhs_terms(contour, pol, k0, dirs, e=[0])
    slots = np.stack([e_fac * mom, h_fac * mom])[:, 0]     # (2, 2, K)
    span = contour.nodes[-1] - contour.nodes[0]
    ph = k0 * _dot_dirs(np.stack([span / contour.n_elements, span]), dirs)
    z, zn = np.cos(ph) - 1j * np.sin(ph)                   # z, z^n
    xs = x.reshape(2, -1)                                  # J and M
    s1 = np.repeat(xs[:, -1:], z.size, axis=1)
    for e in range(contour.n_elements - 1, 0, -1):
        s1 *= z
        s1 += xs[:, e, None]
    s0 = s1 * z + xs[:, :1] - xs[:, -1:] * zn
    e_dot, h_dot = slots[:, 0] * s0 + slots[:, 1] * s1
    return _amplitude(contour, pol, k0, e_dot, h_dot)


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


def _echo_width_db(values):
    """10 log10 of the echo width 2 pi |F|^2 of the far-field values F of
    a unit incident wave, floored at DB_FLOOR."""
    lin = 2.0 * np.pi * np.abs(values) ** 2
    return 10.0 * np.log10(np.maximum(lin, DB_FLOOR))


def echo_width(pattern):
    """Echo width sigma(phi) = 2 pi |F|^2 of a unit incident wave, in
    dB(m)."""
    db = _echo_width_db(pattern.values)
    meta = dict(pattern.meta)
    meta.setdefault("pol", pattern.pol)
    meta.setdefault("k0", pattern.k0)
    meta.setdefault("axis", "angle_deg")
    return RcsPattern(angles=pattern.angles, sigma=db, meta=meta)


# --------------------------------------------------------------------------
# modal series references
# --------------------------------------------------------------------------

def _jy_with_derivs(nmax, z):
    """J, J', Y, Y' for orders 0..nmax at a common argument.  Values that
    overflow double precision are refused before any arithmetic on them."""
    # J'_0 = -J_1, and J'_n = J_{n-1} - (n/z) J_n reads orders <= n
    top = max(nmax, 1)
    js, ys = bessel_jy(top, complex(z))
    if not (np.all(np.isfinite(js)) and np.all(np.isfinite(ys))):
        raise TruncationError(
            f"Bessel values at z = {complex(z):.6g} overflow double "
            f"precision (orders 0..{top})", n_max=nmax, argument=z)
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
    # a NaN tail (Bessel values that overflowed) is refused here as well
    if not tail <= TAIL_TOL:
        raise TruncationError(
            f"series tail {tail:.3e} not below {TAIL_TOL:.0e} at "
            f"n_max = {nmax}",
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
    return _coated_cylinder_pattern(spec, pol, cylinder_modes(spec, pol),
                                    angles_deg, mode, phi_inc_deg)


def _coated_cylinder_pattern(spec, pol, modes, angles_deg, mode,
                             phi_inc_deg):
    """The curve of :func:`series_coated_cylinder` from its modes."""
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

def _factor(system):
    """(apply, matvec, rcond) of the reduced matrix A of ``system``, which
    it consumes (a second call raises UsageError): apply(b) solves A x = b
    for b (n,) or (n, K), matvec(x) is A x, rcond A's 1-norm reciprocal
    condition.  A BlockCirculant is inverted mode by mode (exact rcond) and
    applied by its symbols.  A dense A is LU-factored where it lies, and
    so is each half of a MirrorPair, whose apply folds b into its even and
    odd parts (``linsolve.solve_mirror``).  Its rcond, the smaller of the
    halves' estimates, is a within-2x estimate of A's (tested against
    zgecon's on the full A): ||A||_1 and ||A^-1||_1 each lie within a
    factor 2 of the larger of the halves', the even/odd basis T having
    ||T||_1 = 2 and ||T^-1||_1 = 1.  Both take A x from the stored blocks
    (``assembly._jm_matvec``), so the residual checks a split solve
    against the unsplit operator."""
    mat = system.reduced_matrix
    if mat is None:
        raise UsageError("the reduced matrix was consumed by an earlier "
                         "solve; build the system again")
    system.reduced_matrix = None    # holds the LU, or a partial one
    if isinstance(mat, BlockCirculant):
        inverse, rcond = factor_modes(mat)
        return partial(apply_modes, inverse), partial(apply_modes, mat), rcond
    matvec = partial(_jm_matvec, system)
    if isinstance(mat, MirrorPair):
        even, odd = (lu_factor(half, overwrite_a=True)
                     for half in (mat.even, mat.odd))
        return (partial(solve_mirror, even, odd), matvec,
                min(even.rcond_estimate, odd.rcond_estimate))
    fac = lu_factor(mat, overwrite_a=True)
    return partial(solve, fac), matvec, fac.rcond_estimate


def solve_currents(system):
    """Solve the reduced (J, M) system of ``assembly.build_reduced_system``
    by :func:`_factor`, which consumes its matrix, and unpack J and M; the
    meta's relative residual ||Ax - b|| / ||b|| takes A x from its matvec."""
    rhs = system.reduced_rhs
    t0 = time.perf_counter()
    apply, matvec, rcond = _factor(system)
    x = apply(rhs)
    dt = time.perf_counter() - t0
    # a zero b solves to x = 0 exactly
    residual = float(np.linalg.norm(matvec(x) - rhs)
                     / max(np.linalg.norm(rhs), np.finfo(float).tiny))
    log.info("solved n=%d system in %.3fs (rcond %.2e, residual %.1e)",
             x.size, dt, rcond, residual)
    n1 = system.sizes[0]
    meta = dict(system.meta, rcond=rcond, residual=residual,
                solve_seconds=dt)
    return SurfaceCurrents(J=x[:n1], M=x[n1:], meta=meta)


def solve_and_pattern(contour, coeffs, wave, angles_deg, blocks=None):
    """One bistatic solve: reduced system, currents, echo width curve."""
    system = build_reduced_system(contour, coeffs, wave, blocks=blocks)
    sol = solve_currents(system)
    ff = far_field(sol, contour, wave, angles_deg)
    pattern = echo_width(ff)
    pattern.meta["ibc"] = coeffs.order
    return pattern, sol


def monostatic_sweep(contour, coeffs, sweep, kind="angle", k0=None,
                     phi_inc_deg=0.0):
    """Backscatter echo width over incidence angles or frequencies.

    Angle sweeps hold the geometry and matrix fixed: the operator is
    factorized once and only the right-hand side changes per angle.
    Frequency sweeps re-assemble per point and accept either fixed
    coefficients or a callable frequency -> coefficients; the curve is
    labelled with the polarization and order of the coefficients solved.
    """
    sweep = np.atleast_1d(np.asarray(sweep, dtype=float))
    if sweep.size == 0:
        raise ValidationError("a sweep needs at least one value")
    if sweep.size > 1 and not np.all(np.diff(sweep) > 0.0):
        raise ValidationError("sweep values must be strictly increasing")
    if kind == "angle":
        if k0 is None:
            raise UsageError("angle sweeps need k0")
        if not isinstance(coeffs, IbcCoefficients):
            raise UsageError("angle sweeps need fixed coefficients")
        sig = _sweep_angles(contour, coeffs, sweep, k0)
        meta = {"pol": coeffs.pol, "ibc": coeffs.order, "k0": k0,
                "axis": "angle_deg", "geometry": contour_hash(contour)}
        return RcsPattern(angles=sweep, sigma=sig, meta=meta)
    if kind == "frequency":
        sig = np.empty(sweep.size)
        for i, f_hz in enumerate(sweep):
            ci = coeffs(f_hz) if callable(coeffs) else coeffs
            sig[i] = _sweep_angles(contour, ci, np.array([phi_inc_deg]),
                                   2.0 * np.pi * f_hz / C0)[0]
        meta = {"pol": ci.pol, "ibc": ci.order, "axis": "freq_GHz",
                "phi_inc_deg": phi_inc_deg, "geometry": contour_hash(contour)}
        return RcsPattern(angles=sweep / 1e9, sigma=sig, meta=meta)
    raise UsageError(f"sweep kind must be angle or frequency, got {kind!r}")


def _sweep_angles(contour, coeffs, angles_deg, k0):
    wave0 = IncidentWave(pol=coeffs.pol, k0=k0,
                         phi_inc=np.deg2rad(angles_deg[0]))
    # the matrix; its one rhs column goes unused, every chunk assembles its
    # own right-hand sides
    system = build_reduced_system(contour, coeffs, wave0)
    solver, _, rcond = _factor(system)
    log.info("factored n=%d sweep matrix (rcond %.2e)",
             system.reduced_rhs.size, rcond)
    out = np.empty(len(angles_deg))
    # per chunk: one rhs block and one multi-column solve (column k bitwise
    # its own solve, see linsolve); backscatter by reciprocity from both
    for lo in range(0, len(angles_deg), SWEEP_CHUNK):
        phis = angles_deg[lo:lo + SWEEP_CHUNK]
        rhs = assemble_rhs(contour, coeffs.pol, k0, np.deg2rad(phis))
        rhs[list(system.constrained)] = 0.0
        f = _reciprocal_amplitude(contour, coeffs.pol, k0, rhs, solver(rhs))
        del rhs         # not alive while the next chunk assembles its own
        out[lo:lo + len(phis)] = _echo_width_db(f)
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
