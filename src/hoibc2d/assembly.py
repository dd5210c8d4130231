"""Galerkin boundary-element assembly for impedance-type boundary
conditions of order 0, 1, and 2 in both polarizations.

The discrete unknowns are the tangential electric and magnetic current
densities J and M.  Higher-order conditions couple them through arc-length
derivatives; those enter as auxiliary fields X = d_l J, Y = d_l M (and
X' = d_l X, Y' = d_l Y for order 2), each tied to its parent by a mass
row.  The full block system carries the auxiliaries explicitly; the
reduced system eliminates them exactly, leaving a 2N problem in (J, M).

Kernel matrices, with G the outgoing 2D kernel and phi the nodal basis:

    B_ij     = i k0 int int G phi_j phi_i
    (B-S)_ij = i int int [ k0 G (tau_i . tau_j) phi_j phi_i
                           - (1/k0) G d_l phi_j d_l phi_i ]
    Q_ij     = int int phi_i(x) phi_j(y) n(x) . grad_y G   (principal value)

Singular element pairs get dedicated rules: the self-element double
integral collapses to a single integral in w = |t - s| whose logarithmic
part goes to a log-weighted Gauss rule; pairs sharing a vertex are split
into two Duffy triangles with the same log/analytic kernel separation.
Everything else uses tensor Gauss-Legendre.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MeshError, UsageError
from .geometry import Contour, contour_hash
from .linsolve import lu_factor, solve
from .specfun import Z0, gauss_legendre_unit, hankel2_01_real, quad_rule

log = logging.getLogger(__name__)

# default quadrature orders
N_GL_DISTANT = 6
N_GL_SMOOTH = 6
N_LOG_SELF = 8
N_GL_DUFFY = 6
N_LOG_DUFFY = 8
N_GL_RHS = 8

_TWO_PI = 2.0 * np.pi
MAX_KH = 2.0  # resolution guard: ~3 elements per wavelength hard floor

_ORDER_INT = {"IBC0": 0, "IBC1": 1, "IBC2": 2}
_N_AUX = {0: 0, 1: 2, 2: 4}


@dataclass
class IncidentWave:
    """Unit-amplitude plane wave traveling along (cos phi_inc, sin phi_inc)."""

    pol: str
    k0: float
    phi_inc: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.pol not in ("TE", "TM"):
            raise UsageError(f"polarization must be TE or TM, got {self.pol!r}")
        if not self.k0 > 0.0:
            raise UsageError("k0 must be positive")
        self.amplitude = complex(self.amplitude)

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.phi_inc), np.sin(self.phi_inc)])

    def field(self, points) -> np.ndarray:
        """exp(-i k0 d.x) at an (..., 2) array of points."""
        pts = np.asarray(points, dtype=float)
        return self.amplitude * np.exp(-1j * self.k0 * (pts @ self.direction))


@dataclass
class SurfaceCurrents:
    """Solution DOF vectors; auxiliary fields are None when unused."""

    J: np.ndarray
    M: np.ndarray
    X: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    Xp: Optional[np.ndarray] = None
    Yp: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


@dataclass
class AssembledSystem:
    """Raw blocks, the auxiliary-variable matrix, and the 2N reduction.

    ``blocks`` keeps the geometry-dependent matrices unconstrained so a
    single assembly can be reused across boundary-condition orders and
    incidence angles; endpoint constraints are applied to the composed
    systems, not to the stored blocks.
    """

    blocks: dict
    rhs: np.ndarray
    meta: dict
    sizes: tuple
    constrained: tuple
    full_matrix: Optional[np.ndarray] = None
    reduced_matrix: Optional[np.ndarray] = None
    reduced_rhs: Optional[np.ndarray] = None


def _check_resolution(contour: Contour, k0: float):
    kh = k0 * contour.lengths
    worst = int(np.argmax(kh))
    if kh[worst] >= MAX_KH:
        raise MeshError(
            f"element {worst} too long for this frequency: k0*h = "
            f"{kh[worst]:.3f} >= {MAX_KH} (need ~3+ elements per wavelength)"
        )


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def _plain_kernels(k, r):
    """(G, W) where W = (dG/dr)/r, so n.grad_y G = W * [n.(y-x)]."""
    h0, h1 = hankel2_01_real(k * r)
    return -0.25j * h0, 0.25j * k * h1 / r


def _split_kernels(k, r):
    """Both kernels separated as value = analytic + ln(r) * even.

    The 'even' factors are entire in r**2 (Bessel J parts); they are what
    the log-weighted rules must see.  Returns
    (g_analytic, g_even, w_analytic, w_even).
    """
    h0, h1 = hankel2_01_real(k * r)
    lnr = np.log(r)
    g_even = -(1.0 / _TWO_PI) * h0.real
    w_even = (k / _TWO_PI) * h1.real / r
    g_an = -0.25j * h0 - lnr * g_even
    w_an = 0.25j * k * h1 / r - lnr * w_even
    return g_an, g_even, w_an, w_even


# --------------------------------------------------------------------------
# self pairs: int int f(|t-s|) phi(t) phi(s) dt ds = int f(w) rho(w) dw
# --------------------------------------------------------------------------

def _rho_weights(w):
    # moment densities of 1, t, ts over the strip |t - s| = w in the square
    rho00 = 2.0 * (1.0 - w)
    rho10 = 1.0 - w
    rho11 = 2.0 / 3.0 - w + w**3 / 3.0
    c00 = rho00 - 2.0 * rho10 + rho11      # (1-t)(1-s)
    c01 = rho10 - rho11                    # (1-t)s, same as t(1-s)
    c11 = rho11                            # ts
    return rho00, c00, c01, c11


def _self_g_moments(k, h, n_log, n_gl):
    """Weighted integrals of G(k h w) against rho00 and the three P1
    product densities, vectorized over the element-length array h."""
    xg, wg = gauss_legendre_unit(n_gl)
    lg = quad_rule("gauss_log", n_log)
    h = np.asarray(h, dtype=float)[:, None]

    parts = []
    for nodes, wts, logged in ((xg, wg, False), (lg.nodes, lg.weights, True)):
        g_an, g_even, _, _ = _split_kernels(k, h * nodes[None, :])
        if logged:
            # the rule integrates (-ln w) f(w); the kernel carries +ln(w)
            vals = -g_even
        else:
            # ln(r) = ln(h) + ln(w); the ln(h) piece is smooth
            vals = g_an + np.log(h) * g_even
        rhos = _rho_weights(nodes)
        parts.append([np.einsum("ew,w,w->e", vals, rho, wts) for rho in rhos])
    return [a + b for a, b in zip(parts[0], parts[1])]


def _assemble_self(contour, k0, mats, m_p1, n_log, n_gl):
    h = contour.lengths
    i00, p00, p01, p11 = _self_g_moments(k0, h, n_log, n_gl)
    combos = ((0, 0, p00), (0, 1, p01), (1, 0, p01), (1, 1, p11))
    sgn = (-1.0, 1.0)
    for e in range(contour.n_elements):
        dofs = contour.elements[e]
        he = h[e]
        for a, b, mom in combos:
            sb = mom[e] * he * he
            ia, jb = dofs[a], dofs[b]
            mats["B_p1"][ia, jb] += 1j * k0 * sb
            # tau.tau = 1 on a straight element; in the derivative term the
            # h^2 Jacobian cancels against the 1/h^2 of the basis slopes
            mats["BS"][ia, jb] += 1j * (k0 * sb - sgn[a] * sgn[b] * i00[e] / k0)
        if not m_p1:
            mats["B_p0"][e, e] += 1j * k0 * i00[e] * he * he
        # Q self-entries: n(x).(y-x) = 0 on a straight element; exact zero


# --------------------------------------------------------------------------
# adjacent pairs (shared vertex): two Duffy triangles, log extracted
# --------------------------------------------------------------------------

def _adjacent_pairs(contour):
    """(e, f, flip_t, flip_s) for every ordered pair sharing one node.

    flip_t: the shared vertex is the *end* node of e (local t = 1), so the
    vertex-distance coordinate there is 1 - t; flip_s likewise for f.
    """
    out = []
    n = contour.n_elements
    for e in range(n):
        nxt = e + 1 if e + 1 < n else (0 if contour.closed else None)
        prv = e - 1 if e - 1 >= 0 else (n - 1 if contour.closed else None)
        if nxt is not None:
            out.append((e, nxt, True, False))
        if prv is not None:
            out.append((e, prv, False, True))
    return out


def _assemble_adjacent(contour, k0, mats, m_p1, n_gl, n_log):
    xg, wg = gauss_legendre_unit(n_gl)
    lg = quad_rule("gauss_log", n_log)
    nodes = contour.nodes
    sgn = (-1.0, 1.0)

    for (e, f, flip_t, flip_s) in _adjacent_pairs(contour):
        et, ef = contour.elements[e], contour.elements[f]
        he, hf = contour.lengths[e], contour.lengths[f]
        vertex = nodes[et[1]] if flip_t else nodes[et[0]]
        we = (nodes[et[0]] if flip_t else nodes[et[1]]) - vertex
        wf = (nodes[ef[0]] if flip_s else nodes[ef[1]]) - vertex
        ne = contour.normals[e]
        ttf = float(contour.tangents[e] @ contour.tangents[f])
        sb = np.zeros((2, 2), dtype=complex)
        sq = np.zeros((2, 2), dtype=complex)

        # x = V + xi*we, y = V + eta*wf; r vanishes only at the vertex.
        # On the triangle eta < xi put eta = xi*v: r = xi*rhat(v) with
        # rhat bounded below, so ln r = ln(xi) + ln(r/xi) splits into a
        # gauss_log part in xi plus a smooth remainder; the other triangle
        # is the mirror image with eta outermost.
        for outer, w_outer, logged in ((xg, wg, False),
                                       (lg.nodes, lg.weights, True)):
            for swap in (False, True):
                if swap:
                    xi = np.multiply.outer(outer, xg)
                    eta = np.broadcast_to(outer[:, None], xi.shape)
                else:
                    xi = np.broadcast_to(outer[:, None], (outer.size, xg.size))
                    eta = np.multiply.outer(outer, xg)
                dvec = eta[..., None] * wf - xi[..., None] * we
                r = np.hypot(dvec[..., 0], dvec[..., 1])
                if logged:
                    _, g_even, _, w_even = _split_kernels(k0, r)
                    kg = -g_even
                    kq = -w_even
                else:
                    g_an, g_even, w_an, w_even = _split_kernels(k0, r)
                    lnrest = np.log(r / outer[:, None])
                    kg = g_an + lnrest * g_even
                    kq = w_an + lnrest * w_even
                kq = kq * (dvec @ ne)
                t = 1.0 - xi if flip_t else xi
                s = 1.0 - eta if flip_s else eta
                jac = np.multiply.outer(w_outer, wg) * outer[:, None] * (he * hf)
                pt = np.stack([1.0 - t, t])
                ps = np.stack([1.0 - s, s])
                sb += np.einsum("axv,bxv,xv->ab", pt, ps, kg * jac)
                sq += np.einsum("axv,bxv,xv->ab", pt, ps, kq * jac)

        s0 = sb.sum()
        for a in range(2):
            for b in range(2):
                ia, jb = et[a], ef[b]
                mats["B_p1"][ia, jb] += 1j * k0 * sb[a, b]
                mats["BS"][ia, jb] += 1j * (
                    k0 * ttf * sb[a, b]
                    - sgn[a] * sgn[b] * s0 / (k0 * he * hf)
                )
                if m_p1:
                    mats["Q"][ia, jb] += sq[a, b]
        if not m_p1:
            mats["B_p0"][e, f] += 1j * k0 * s0
            for a in range(2):
                mats["Q"][et[a], f] += sq[a, 0] + sq[a, 1]


# --------------------------------------------------------------------------
# distant pairs: tensor Gauss-Legendre, vectorized in chunks of test rows
# --------------------------------------------------------------------------

def _assemble_distant(contour, k0, mats, m_p1, n_gl, chunk=64):
    n = contour.n_elements
    x, w = gauss_legendre_unit(n_gl)

    a_pts = contour.nodes[contour.elements[:, 0]]
    b_pts = contour.nodes[contour.elements[:, 1]]
    pts = a_pts[:, None, :] + x[None, :, None] * (b_pts - a_pts)[:, None, :]
    phi = np.stack([1.0 - x, x])                       # (2, nq)
    wh = w[None, :] * contour.lengths[:, None]         # (n, nq)

    near = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(near, True)
    for (e, f, _, _) in _adjacent_pairs(contour):
        near[e, f] = True

    tt = contour.tangents @ contour.tangents.T
    sgn = np.array([-1.0, 1.0])
    inv_h = 1.0 / contour.lengths
    all_f = np.arange(n)

    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dvec = pts[None, None, :, :, :] - pts[lo:hi, :, None, None, :]
        r = np.hypot(dvec[..., 0], dvec[..., 1])       # (c, nq, n, nq)
        dead = np.broadcast_to(near[lo:hi, None, :, None], r.shape)
        g, wq = _plain_kernels(k0, np.where(dead, 1.0, r))
        g = np.where(dead, 0.0, g)
        wq = np.where(dead, 0.0, wq)
        ndote = np.einsum("cqfpd,cd->cqfp", dvec, contour.normals[lo:hi])
        weights = wh[lo:hi][:, :, None, None] * wh[None, None, :, :]
        sb = np.einsum("aq,bp,cqfp->cfab", phi, phi, g * weights)
        sq = np.einsum("aq,bp,cqfp->cfab", phi, phi, wq * ndote * weights)
        s0 = sb.sum(axis=(2, 3))                       # (c, n)

        rows = contour.elements[lo:hi]
        for a in range(2):
            ia = np.repeat(rows[:, a], n)
            for b in range(2):
                jb = np.tile(contour.elements[:, b], hi - lo)
                np.add.at(mats["B_p1"], (ia, jb),
                          (1j * k0 * sb[:, :, a, b]).ravel())
                bs = 1j * (k0 * tt[lo:hi] * sb[:, :, a, b]
                           - sgn[a] * sgn[b] / k0
                           * np.outer(inv_h[lo:hi], inv_h) * s0)
                np.add.at(mats["BS"], (ia, jb), bs.ravel())
                if m_p1:
                    np.add.at(mats["Q"], (ia, jb), sq[:, :, a, b].ravel())
            if not m_p1:
                np.add.at(mats["Q"], (ia, np.tile(all_f, hi - lo)),
                          (sq[:, :, a, 0] + sq[:, :, a, 1]).ravel())
        if not m_p1:
            np.add.at(mats["B_p0"],
                      (np.repeat(np.arange(lo, hi), n),
                       np.tile(all_f, hi - lo)),
                      (1j * k0 * s0).ravel())


def _helmholtz_blocks(contour, k0, m_space="P1_nodal", *,
                      n_gl=N_GL_DISTANT, n_log=N_LOG_SELF,
                      n_gl_duffy=N_GL_DUFFY, n_log_duffy=N_LOG_DUFFY):
    """One pass over all element pairs; returns BS (P1), B on both spaces,
    and Q (P1 test x M-space trial)."""
    _check_resolution(contour, k0)
    n1, n0 = contour.n_nodes, contour.n_elements
    m_p1 = m_space == "P1_nodal"
    if not m_p1 and m_space != "P0_elementwise":
        raise UsageError(f"unknown trial space {m_space!r}")
    mats = {
        "BS": np.zeros((n1, n1), dtype=complex),
        "B_p1": np.zeros((n1, n1), dtype=complex),
        "Q": np.zeros((n1, n1 if m_p1 else n0), dtype=complex),
    }
    if not m_p1:
        mats["B_p0"] = np.zeros((n0, n0), dtype=complex)
    _assemble_self(contour, k0, mats, m_p1, n_log, n_gl)
    _assemble_adjacent(contour, k0, mats, m_p1, n_gl_duffy, n_log_duffy)
    _assemble_distant(contour, k0, mats, m_p1, n_gl)
    if m_p1:
        mats["B_p0"] = mats["B_p1"]
    return mats


def assemble_bs(contour, k0, space="P1_nodal", **quad_kw):
    """Combined weighted single-layer/hypersingular Galerkin matrix B - S."""
    if space != "P1_nodal":
        raise UsageError("the hypersingular block requires the P1 space")
    return _helmholtz_blocks(contour, k0, **quad_kw)["BS"]


def assemble_b(contour, k0, space="P1_nodal", **quad_kw):
    """Weighted single-layer matrix B on the requested space."""
    blocks = _helmholtz_blocks(contour, k0, m_space=space, **quad_kw)
    return blocks["B_p1"] if space == "P1_nodal" else blocks["B_p0"]


def assemble_q(contour, k0, trial_space="P0_elementwise", **quad_kw):
    """Principal-value double-layer coupling block, P1 tests.

    The identity-jump half of the trace operator is *not* here; it lives
    in the mass terms of the variational forms.
    """
    return _helmholtz_blocks(contour, k0, m_space=trial_space, **quad_kw)["Q"]


# --------------------------------------------------------------------------
# mass / derivative-coupling / stiffness matrices (elementwise exact)
# --------------------------------------------------------------------------

def assemble_mass_and_d(contour, spaces="p1", lump=False):
    """I1, I2, D1, D3, D5 (plus the P1 stiffness K_p1).

    spaces "p1": every field is nodal P1; the three derivative couplings
    coincide (int phi d_l phi per element) and I2 is the P1 mass matrix,
    row-sum lumped on request.

    spaces "p0": J stays P1 while M, X, Y are elementwise constants.
    D5 = int psi d_l phi has +-1 entries; D1 = -D5^T plus end-of-contour
    boundary terms; D3 holds the half-jumps of P0 fields at shared nodes
    (distributional d_l psi tested against psi).
    """
    n1, n0 = contour.n_nodes, contour.n_elements
    h = contour.lengths
    i1 = np.zeros((n1, n1))
    dm = np.zeros((n1, n1))
    kst = np.zeros((n1, n1))
    for e in range(n0):
        i, j = contour.elements[e]
        idx = np.ix_((i, j), (i, j))
        i1[idx] += h[e] * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        dm[idx] += np.array([[-0.5, 0.5], [-0.5, 0.5]])
        kst[idx] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h[e]

    if spaces == "p1":
        i2 = np.diag(i1.sum(axis=1)) if lump else i1.copy()
        return {"I1": i1, "I2": i2, "D1": dm, "D3": dm.copy(),
                "D5": dm.copy(), "K_p1": kst}
    if spaces != "p0":
        raise UsageError(f"unknown space selection {spaces!r}")

    i2 = np.diag(h)
    d5 = np.zeros((n0, n1))
    for e in range(n0):
        d5[e, contour.elements[e, 0]] = -1.0
        d5[e, contour.elements[e, 1]] = 1.0
    d3 = np.zeros((n0, n0))
    for e in range(n0 if contour.closed else n0 - 1):
        f = (e + 1) % n0
        d3[e, f] += 0.5
        d3[f, e] -= 0.5
    d1 = -d5.T
    if not contour.closed:
        d1[contour.elements[0, 0], 0] += -1.0
        d1[contour.elements[-1, 1], n0 - 1] += 1.0
        d3[0, 0] += -0.5
        d3[n0 - 1, n0 - 1] += 0.5
    return {"I1": i1, "I2": i2, "D1": d1, "D3": d3, "D5": d5, "K_p1": kst}


# --------------------------------------------------------------------------
# right-hand side
# --------------------------------------------------------------------------

def assemble_rhs(contour, wave, m_space="P1_nodal",
                 n_gl=N_GL_RHS) -> np.ndarray:
    """Incident tangential traces tested against the bases: [E-row; H-row].

    ``wave`` is one :class:`IncidentWave`, which gives an (n,) vector, or
    a sequence of waves sharing pol and k0, which gives an (n, K) block
    whose column k is the right-hand side of wave k.  With sigma the
    tangent/normal orientation sign of the contour, the tested traces of
    u = exp(-i k0 d.x) are

        TE:  E-row = sigma Z0 (d.n) <u, phi>,   H-row = sigma <u, psi>
        TM:  E-row = sigma <u, phi>,   H-row = -(sigma/Z0) (d.n) <u, psi>
    """
    waves = [wave] if isinstance(wave, IncidentWave) else list(wave)
    if len({(v.pol, v.k0) for v in waves}) != 1:
        raise UsageError("right-hand sides need one or more waves sharing "
                         "pol and k0")
    x, w = gauss_legendre_unit(n_gl)

    a_pts = contour.nodes[contour.elements[:, 0]]
    b_pts = contour.nodes[contour.elements[:, 1]]
    pts = a_pts[:, None, :] + x[None, :, None] * (b_pts - a_pts)[:, None, :]
    dirs = np.array([v.direction for v in waves]).T     # (2, K)
    amps = np.array([v.amplitude for v in waves])
    uinc = amps * np.exp(-1j * waves[0].k0 * (pts @ dirs))  # (n0, nq, K)
    dn = (contour.normals @ dirs)[:, None, :]           # (n0, 1, K)
    phi = np.stack([1.0 - x, x])
    wl = w[None, :] * contour.lengths[:, None]
    sig = contour.sigma

    mom = np.einsum("aq,eqk,eq->eak", phi, uinc, wl)    # <u, phi_a> per e, k
    if waves[0].pol == "TE":
        e_vals = sig * Z0 * dn * mom
        h_vals = sig * mom
    else:
        e_vals = sig * mom
        h_vals = -(sig / Z0) * dn * mom

    def nodal(vals):
        row = np.zeros((contour.n_nodes, len(waves)), dtype=complex)
        for a in range(2):
            np.add.at(row, contour.elements[:, a], vals[:, a])
        return row

    h_row = nodal(h_vals) if m_space == "P1_nodal" else h_vals.sum(axis=1)
    rhs = np.concatenate([nodal(e_vals), h_row])
    return rhs[:, 0] if isinstance(wave, IncidentWave) else rhs


# --------------------------------------------------------------------------
# block system construction
# --------------------------------------------------------------------------

def _scaled_coefficients(coeffs, k0):
    """Convert the spectral-variable coefficient store to spatial operator
    weights: each power of the spectral variable becomes d_l^2 / k0^2.

    The numerator weights also pick up the factor i that turns the
    reactance-convention fit (real-valued for lossless layers) into the
    physical surface impedance under the exp(+i omega t) time factor; a
    shorted lossless layer must look inductive, Z = i|Z|, or the solver
    would model an absorbing sheet instead of a reactive one.
    """
    if coeffs.convention != "xi":
        raise UsageError("coefficients must use the xi convention")
    k2 = k0 * k0
    return {
        "a0": 1j * complex(coeffs.a0),
        "a": 1j * complex(coeffs.a) / k2,
        "b": complex(coeffs.b) / k2,
        "ap": 1j * complex(coeffs.ap) / (k2 * k2),
        "bp": complex(coeffs.bp) / (k2 * k2),
    }


def _field_sizes(contour, mode, order):
    n1, n0 = contour.n_nodes, contour.n_elements
    naux = _N_AUX[order]
    if mode == "p1":
        return (n1,) * (2 + naux)
    return (n1,) + (n0,) * (1 + naux)


def _constrained_indices(contour, sizes, mode):
    """Global DOF indices pinned to zero: P1 endpoint nodes, open contours."""
    if contour.closed:
        return ()
    ends = (0, contour.n_nodes - 1)
    out = []
    off = 0
    for k, s in enumerate(sizes):
        if mode == "p1" or k == 0:      # p0 mode: only J is nodal
            out.extend(off + i for i in ends)
        off += s
    return tuple(out)


def _apply_constraints(matrix, rhs, constrained):
    for i in constrained:
        matrix[i, :] = 0.0
        matrix[:, i] = 0.0
        matrix[i, i] = 1.0
        rhs[i] = 0.0


def _mode_guards(contour, coeffs, wave, mode):
    if mode not in ("p1", "p0"):
        raise UsageError(f"unknown assembly mode {mode!r}")
    if wave.pol != coeffs.pol:
        raise UsageError(
            f"wave polarization {wave.pol} does not match the coefficient "
            f"set ({coeffs.pol})"
        )
    if coeffs.a0 == 0:
        raise UsageError("a0 must be nonzero")
    order = _ORDER_INT[coeffs.order]
    if mode == "p0" and order == 2:
        raise UsageError("the mixed P1/P0 mode supports orders 0 and 1 only")
    if mode == "p0" and wave.pol == "TM":
        raise UsageError("the mixed P1/P0 mode is TE-only (the TM form "
                         "differentiates M, which P0 cannot carry twice)")
    return order


def assemble_blocks(contour, k0, mode="p1", lump_mass=False) -> dict:
    """All geometry/frequency-dependent matrices for later composition.

    One kernel pass serves every boundary-condition order, polarization,
    and incidence angle at this (contour, k0, mode).
    """
    t0 = time.perf_counter()
    m_space = "P1_nodal" if mode == "p1" else "P0_elementwise"
    kern = _helmholtz_blocks(contour, k0, m_space)
    blocks = {"BS_p1": kern["BS"], "B_p0": kern["B_p0"], "Q": kern["Q"]}
    blocks.update(assemble_mass_and_d(contour, mode, lump_mass))
    log.info("assembled %s blocks: %d elements, k0 %g, %.2fs", mode,
             contour.n_elements, k0, time.perf_counter() - t0)
    return blocks


def _system_meta(contour, coeffs, wave, mode, lump_mass, scaled, t0):
    return {
        "pol": wave.pol,
        "order": coeffs.order,
        "k0": wave.k0,
        "phi_inc": wave.phi_inc,
        "a0": complex(coeffs.a0),
        "coefficients_scaled": dict(scaled),
        "mode": mode,
        "lump_mass": bool(lump_mass),
        "geometry": contour_hash(contour),
        "n_elements": contour.n_elements,
        "compose_seconds": time.perf_counter() - t0,
    }


def build_full_system(contour, coeffs, wave: IncidentWave, mode="p1",
                      lump_mass=False, blocks=None) -> AssembledSystem:
    """Assemble the block matrix with explicit auxiliary fields.

    Unknown layout: (J, M) for order 0, (J, M, X, Y) for order 1,
    (J, M, X, Y, X', Y') for order 2.  Pass a precomputed ``blocks`` dict
    (from assemble_blocks or a previous system) to skip the kernel pass.
    """
    order = _mode_guards(contour, coeffs, wave, mode)
    if blocks is None:
        blocks = assemble_blocks(contour, wave.k0, mode, lump_mass)
    t0 = time.perf_counter()
    bs, b, q = blocks["BS_p1"], blocks["B_p0"], blocks["Q"]
    i1, i2 = blocks["I1"], blocks["I2"]
    d1, d3, d5 = blocks["D1"], blocks["D3"], blocks["D5"]
    kst = blocks["K_p1"]
    c = _scaled_coefficients(coeffs, wave.k0)
    a0 = c["a0"]

    sizes = _field_sizes(contour, mode, order)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    A = np.zeros((offs[-1], offs[-1]), dtype=complex)

    def put(bi, bj, m):
        A[offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]] += m

    te = wave.pol == "TE"
    m_mass = i1 if mode == "p1" else i2
    if te:
        put(0, 0, Z0 * bs + 0.5 * a0 * i1)
        put(0, 1, q)
        put(1, 0, -q.T)
        put(1, 1, b / Z0 + m_mass / (2.0 * a0))
    else:
        put(0, 0, Z0 * b + 0.5 * a0 * i1)
        put(0, 1, q.T)
        put(1, 0, -q)
        put(1, 1, bs / Z0 + m_mass / (2.0 * a0))

    if order >= 1:
        sy = 1.0 if te else -1.0        # sign carried by every b-coupling
        put(0, 2, 0.5 * c["a"] * d1)
        put(0, 3, sy * 0.5 * c["b"] * d1)
        put(1, 2, sy * c["a"] / (2.0 * a0) * d3)
        put(1, 3, c["b"] / (2.0 * a0) * d3)
        put(2, 0, -d5)
        put(2, 2, i2)
        put(3, 1, -d5 if mode == "p1" else -d3)
        put(3, 3, i2)
    if order == 2:
        put(0, 4, -0.5 * c["ap"] * kst)
        put(0, 5, -sy * 0.5 * c["bp"] * kst)
        put(1, 4, -sy * c["ap"] / (2.0 * a0) * kst)
        put(1, 5, -c["bp"] / (2.0 * a0) * kst)
        put(4, 2, -d5)
        put(4, 4, i2)
        put(5, 3, -d5)
        put(5, 5, i2)

    rhs = np.zeros(offs[-1], dtype=complex)
    m_space = "P1_nodal" if mode == "p1" else "P0_elementwise"
    rhs[: offs[2]] = assemble_rhs(contour, wave, m_space)
    constrained = _constrained_indices(contour, sizes, mode)
    _apply_constraints(A, rhs, constrained)

    meta = _system_meta(contour, coeffs, wave, mode, lump_mass, c, t0)
    log.info("assembled %s %s full system: n=%d, geometry %s, %.2fs",
             wave.pol, coeffs.order, offs[-1], meta["geometry"],
             meta["compose_seconds"])
    return AssembledSystem(blocks=blocks, rhs=rhs, meta=meta, sizes=sizes,
                           constrained=constrained, full_matrix=A)


def reduce_system(system: AssembledSystem) -> AssembledSystem:
    """Eliminate the auxiliary fields through their mass rows (block Schur
    complement of the constrained full matrix), leaving the (J, M) system.
    Order 0 has nothing to eliminate and reduces to a copy."""
    A = system.full_matrix
    if A is None:
        raise UsageError("reduce_system needs an assembled full matrix")
    n_jm = system.sizes[0] + system.sizes[1]
    if A.shape[0] == n_jm:
        system.reduced_matrix = A.copy()
        system.reduced_rhs = system.rhs.copy()
        return system
    a_uu = A[:n_jm, :n_jm]
    a_ua = A[:n_jm, n_jm:]
    a_au = A[n_jm:, :n_jm]
    a_aa = A[n_jm:, n_jm:]
    system.reduced_matrix = a_uu - a_ua @ solve(lu_factor(a_aa), a_au)
    system.reduced_rhs = system.rhs[:n_jm].copy()
    return system


def build_reduced_system(contour, coeffs, wave: IncidentWave, mode="p1",
                         lump_mass=False, blocks=None) -> AssembledSystem:
    """Assemble the 2N (J, M) system directly from closed-form elimination,
    never materializing the larger auxiliary-variable matrix.

    Agrees with reduce_system(build_full_system(...)) to solver precision:
    the auxiliary mass rows are block-triangular, so elimination is just
    W = I2^{-1} (d-coupling), applied once per auxiliary level.
    """
    order = _mode_guards(contour, coeffs, wave, mode)
    if blocks is None:
        blocks = assemble_blocks(contour, wave.k0, mode, lump_mass)
    t0 = time.perf_counter()
    c = _scaled_coefficients(coeffs, wave.k0)
    a0 = c["a0"]
    n1 = contour.n_nodes
    p1 = mode == "p1"

    # elimination must act on *constrained* blocks (endpoint rows/columns
    # zeroed) to match the Schur complement of the pinned full system
    def czero(mat, rows_nodal, cols_nodal, unit_diag=False):
        m = mat.copy()
        if not contour.closed:
            ends = (0, n1 - 1)
            if rows_nodal:
                m[ends, :] = 0.0
            if cols_nodal:
                m[:, ends] = 0.0
            if unit_diag:
                for i in ends:
                    m[i, i] = 1.0
        return m

    bs = czero(blocks["BS_p1"], True, True)
    b = czero(blocks["B_p0"], p1, p1)
    q = czero(blocks["Q"], True, p1)
    i1 = czero(blocks["I1"], True, True)
    d1 = czero(blocks["D1"], True, p1)
    d3 = czero(blocks["D3"], p1, p1)
    d5 = czero(blocks["D5"], p1, True)
    i2 = czero(blocks["I2"], p1, p1, unit_diag=p1)
    kst = czero(blocks["K_p1"], True, True)

    if order >= 1:
        fac = lu_factor(i2)
        wx = solve(fac, d5)                            # X = wx @ J
        wy = solve(fac, d5 if p1 else d3)              # Y = wy @ M
    if order == 2:
        wx2 = solve(fac, d5 @ wx)                      # X' = wx2 @ J
        wy2 = solve(fac, d5 @ wy)

    te = wave.pol == "TE"
    m_mass = i1 if p1 else i2
    if te:
        a_1 = Z0 * bs + 0.5 * a0 * i1
        a_2 = q.astype(complex)
        a_3 = -q.T.astype(complex)
        a_4 = b / Z0 + m_mass / (2.0 * a0)
    else:
        a_1 = Z0 * b + 0.5 * a0 * i1
        a_2 = q.T.astype(complex)
        a_3 = -q.astype(complex)
        a_4 = bs / Z0 + m_mass / (2.0 * a0)
    if order >= 1:
        sy = 1.0 if te else -1.0
        a_1 += 0.5 * c["a"] * (d1 @ wx)
        a_2 += sy * 0.5 * c["b"] * (d1 @ wy)
        a_3 += sy * c["a"] / (2.0 * a0) * (d3 @ wx)
        a_4 += c["b"] / (2.0 * a0) * (d3 @ wy)
    if order == 2:
        a_1 -= 0.5 * c["ap"] * (kst @ wx2)
        a_2 -= sy * 0.5 * c["bp"] * (kst @ wy2)
        a_3 -= sy * c["ap"] / (2.0 * a0) * (kst @ wx2)
        a_4 -= c["bp"] / (2.0 * a0) * (kst @ wy2)

    nm = a_4.shape[0]
    A = np.zeros((n1 + nm, n1 + nm), dtype=complex)
    A[:n1, :n1] = a_1
    A[:n1, n1:] = a_2
    A[n1:, :n1] = a_3
    A[n1:, n1:] = a_4
    m_space = "P1_nodal" if p1 else "P0_elementwise"
    rhs = assemble_rhs(contour, wave, m_space)
    sizes = _field_sizes(contour, mode, order)
    constrained = _constrained_indices(contour, sizes, mode)
    _apply_constraints(A, rhs, tuple(i for i in constrained if i < n1 + nm))

    meta = _system_meta(contour, coeffs, wave, mode, lump_mass, c, t0)
    log.info("assembled %s %s reduced system: n=%d, geometry %s, %.2fs",
             wave.pol, coeffs.order, n1 + nm, meta["geometry"],
             meta["compose_seconds"])
    full_rhs = np.concatenate(
        [rhs, np.zeros(sum(sizes) - (n1 + nm), dtype=complex)])
    return AssembledSystem(blocks=blocks, rhs=full_rhs, meta=meta,
                           sizes=sizes, constrained=constrained,
                           reduced_matrix=A, reduced_rhs=rhs)


def solve_currents(system: AssembledSystem, use="reduced") -> SurfaceCurrents:
    """LU-solve the requested form and unpack the per-field DOF vectors."""
    if use == "reduced":
        if system.reduced_matrix is None:
            reduce_system(system)
        mat, rhs = system.reduced_matrix, system.reduced_rhs
    elif use == "full":
        mat, rhs = system.full_matrix, system.rhs
        if mat is None:
            raise UsageError("full matrix was not assembled")
    else:
        raise UsageError(f"unknown solve target {use!r}")
    t0 = time.perf_counter()
    fac = lu_factor(mat)
    x = solve(fac, rhs)
    dt = time.perf_counter() - t0
    # relative residual ||Ax - b|| / ||b||; a zero b solves to x = 0 exactly
    residual = float(np.linalg.norm(mat @ x - rhs)
                     / max(np.linalg.norm(rhs), np.finfo(float).tiny))
    log.info("solved n=%d system in %.3fs (rcond %.2e, residual %.1e)",
             mat.shape[0], dt, fac.rcond_estimate, residual)

    offs = np.concatenate([[0], np.cumsum(system.sizes)])
    fields = [
        x[offs[i]:offs[i + 1]].copy() if offs[i] < x.size else None
        for i in range(len(system.sizes))
    ]
    fields += [None] * (6 - len(fields))
    meta = dict(system.meta)
    meta.update(rcond=fac.rcond_estimate, residual=residual,
                solve_seconds=dt, solved_form=use)
    return SurfaceCurrents(J=fields[0], M=fields[1], X=fields[2],
                           Y=fields[3], Xp=fields[4], Yp=fields[5], meta=meta)


# --------------------------------------------------------------------------
# matrix dump (oracle comparison tooling)
# --------------------------------------------------------------------------

def dump_matrix(path, matrix, meta=None):
    """Dense binary dump: row-major, little-endian, interleaved re/im
    8-byte floats, plus a JSON sidecar with dimensions and metadata."""
    m = np.ascontiguousarray(matrix, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(m.tobytes())
    sidecar = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "dtype": "complex128 little-endian, interleaved re/im",
        "layout": "row-major",
        "meta": meta or {},
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def load_matrix(path):
    """Inverse of dump_matrix; returns (matrix, sidecar dict)."""
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    data = np.fromfile(path, dtype="<c16")
    return data.reshape(sidecar["rows"], sidecar["cols"]), sidecar
