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

All three come from two raw moments per element pair and local basis
pair, SB = int int G phi_a phi_b and SQ = int int n.grad_y G phi_a phi_b
(Jacobians included), a 2 x 2 block per pair.  The self-element double
integral collapses to a single integral in w = |t - s| whose logarithmic
part goes to a log-weighted Gauss rule.  Every other pair is evaluated
once, as e < f or, on a closed contour, (n - 1, 0): pairs sharing a vertex
are split into two Duffy triangles with the same log/analytic kernel
separation, all pairs at once on the shared reference nodes; the rest go
to tensor Gauss-Legendre, at an order that a fixed table picks from the
clearance and k0 h.  The (f, e) blocks of B and B - S are the transpose,
SB(f, e) = SB(e, f)^T, so both matrices come out exactly symmetric; the
SQ block of (f, e) comes from the same points with the normal of f.

Distant pairs are evaluated once per congruence class.  A pair's key is
h_e and the two endpoints of f in e's frame (origin at e's start, x axis
along tau_e); with its Gauss order, every moment of the pair is a function
of its key.  Congruent pairs (e, f), (e + 1, f + 1), ... follow one another
in the diagonal-major listing of the pairs (f - e, then e ascending).  The
listing is walked in slices, and a class is the pairs of one diagonal in
one slice whose keys lie within KEY_TOL times their own size of that
diagonal's first pair there, at its Gauss order; the first pair is
evaluated for the class, and any other pair alone.  The uniform meshes of
mesh_circle and mesh_plate have one class per diagonal and slice; a mesh
with no congruent pairs has one per pair.  Self elements (one short
1D rule each) and shared-vertex pairs (see _helmholtz_blocks) are
evaluated one by one.
One local formulation turns each pair's moments into its B, B - S and Q
blocks, and one scatter adds block slot (a, b) of pair (e, f) to nodal
entry (node(e, a), node(f, b)) of each kernel matrix.

A node's index is its position along the chain, so the local operators
I1, D and K have at most three entries per row, at the node and its two
neighbours; they are built and kept as (nodes, 3) chain bands,
LAPACK's banded storage (LAPACK Users' Guide, 3rd ed., SIAM 1999, 5.3.3)
with cyclic corners on a closed contour; only the oracle
build_full_system makes them dense.  The reduced system eliminates the
auxiliary fields in O(n^2) real arithmetic, once per mesh: the couplings
they leave depend on the mesh alone, so assemble_blocks stores them and
every order, polarization and angle reads them.  The mass I1 of the
auxiliary rows has unit rows at pinned nodes of an open contour; the
cyclic corners are a rank-one update of a tridiagonal matrix, removed by
Sherman-Morrison.  The solves are LAPACK tridiagonal ones, the products
banded times dense, and I1's a0 terms take O(n) band entries.

A closed contour whose nodes are one node turned about their centroid by
2 pi k / n (mesh_circle, either way round, numbered from any node) is
rotation-invariant: element k is element 0 turned k steps, so every
nodal matrix is circulant, A_ij = row[(j - i) mod n], and the reduced 2N
system is block-circulant (the body-of-revolution reduction of MoM, Mautz
& Harrington, AEU 32 (1978) 157-164).  assemble_blocks then keeps only the
first rows of B, B - S and Q, from the n pairs (0, f) through the same
pair routines and local formulation, and the bands; build_reduced_system
turns the terms of _jm_table into (n, 2, 2) per-mode symbols, the DFT of
each block's first column, with G and G2 per mode from the band symbols;
analysis.solve_currents solves it mode by mode (linsolve) and the far
field sums modes of node 0's traces (_node0_traces, analysis.far_field):
no n x n array is made, and the contour, not a flag, picks this path.

An open contour whose node k is node 0 + k Delta (every mesh_plate,
numbered from either end, at any position and tilt) is a uniform chain:
pair (e, f) is pair (0, f - e) moved along it, so B, B - S and Q are
Toeplitz (Gray, Toeplitz and Circulant Matrices: A Review, 2006) but in
the rows and columns of the end nodes, which are J and M pins.
assemble_blocks keeps each as its 2N - 1 nodal diagonals, from the same
n pairs (0, f) and local formulation as the circulant rows (_row_pairs,
_toeplitz_blocks), with the dense path's bands and couplings: no n x n
complex array.  The chain is its own mirror image (node k onto node
N - 1 - k), so build_reduced_system composes the even and odd halves of
the reduced matrix from blocks read folded, the diagonals through a
zero-copy Toeplitz view (_kernel_matrix), and analysis.solve_currents
factors the two halves (linsolve.MirrorPair); the residual takes
Toeplitz products by FFT.  assemble_dense_blocks builds any contour's
dense blocks by the general pass: the oracle of both paths.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, matmul_toeplitz, solve_banded

from .errors import MeshError, UsageError
from .geometry import Contour, contour_hash
from .linsolve import (CHAIN_PEAK, DENSE_PEAK, MODE_PEAK_BYTES,
                       BlockCirculant, MirrorPair, lu_factor, solve)
from .specfun import Z0, gauss_legendre_unit, hankel2_01_real, quad_rule

log = logging.getLogger(__name__)

# default quadrature orders
N_GL_SMOOTH = 6
N_LOG_SELF = 8
N_GL_DUFFY = 6
N_LOG_DUFFY = 8

_TWO_PI = 2.0 * np.pi
MAX_KH = 2.0  # resolution guard: ~3 elements per wavelength hard floor

_ORDER_INT = {"IBC0": 0, "IBC1": 1, "IBC2": 2}
_N_AUX = {0: 0, 1: 2, 2: 4}


@dataclass
class IncidentWave:
    """Plane wave of unit amplitude travelling along
    (cos phi_inc, sin phi_inc)."""

    pol: str
    k0: float
    phi_inc: float

    def __post_init__(self):
        if self.pol not in ("TE", "TM"):
            raise UsageError(f"polarization must be TE or TM, got {self.pol!r}")
        if not self.k0 > 0.0:
            raise UsageError("k0 must be positive")


@dataclass
class SurfaceCurrents:
    """Nodal J and M of one solution."""

    J: np.ndarray
    M: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass
class AssembledSystem:
    """Raw blocks, the auxiliary-variable matrix, and the 2N reduction.

    ``blocks`` keeps the geometry-dependent matrices of
    :func:`assemble_blocks` (B, B - S, Q and the couplings G, G2 dense,
    on a uniform chain B, B - S and Q as their nodal diagonals, or on a
    rotation-invariant contour the first rows of B, B - S and Q; I1, D
    and K as chain bands) so a single assembly can be reused across
    boundary-condition orders and incidence angles; the J and M endpoint
    constraints are applied to the composed systems, not to the stored
    blocks (only the couplings G, G2 carry the pins of the auxiliary
    fields, which are the same at every order).
    ``reduced_matrix`` (dense, a BlockCirculant, or on a uniform chain a
    MirrorPair of its two halves) is consumed by
    ``analysis.solve_currents``, which factors it and sets it to None; the
    residual of a dense one or a MirrorPair is computed from ``blocks``
    and ``meta``.
    """

    blocks: dict
    rhs: Optional[np.ndarray]         # full-system rhs; None when reduced directly
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
# raw pair moments, the 2 x 2 blocks SB[e, :, f, :] of int_e int_f G phi_a
# phi_b and SQ (the same with n(x).grad_y G), Jacobians included; one
# routine per pair class
# --------------------------------------------------------------------------

# distant pairs keyed, evaluated and scattered per slice (bounds memory),
# and the tolerance of a class's keys, relative to each pair's own key size
PAIRS_PER_SLICE = 2**12
KEY_TOL = 1e-12

# Gauss-Legendre order of a distant pair, by the band of k0 * max(h_e, h_f)
# (rows: <= 0.25, <= 1, above) and of the clearance (|m_e - m_f| - (h_e +
# h_f)/2) / max(h_e, h_f) between midpoints (columns: < 3.5, < 7.5, above;
# index separation - 1 on a uniform line); test_distant_order_table_error
# is the measurement behind it.
_ORDER_KH = (0.25, 1.0)
_ORDER_CLEARANCE = (3.5, 7.5)
DISTANT_ORDERS = np.array([[6, 5, 4],
                           [6, 6, 5],
                           [6, 6, 6]])


def _rho_weights(w):
    """Densities of (1-t)(1-s), (1-t)s and ts over the strip |t - s| = w
    in the unit square; (1-t)(1-s) has the density of ts by symmetry."""
    c11 = 2.0 / 3.0 - w + w**3 / 3.0
    return np.stack([c11, (1.0 - w) - c11, c11])


def _self_g_moments(k, h):
    """(n0, 2, 2) self blocks SB[e, :, e, :] for the element-length array
    h: the double integral collapses to int G(k h w) rho(w) dw."""
    xg, wg = gauss_legendre_unit(N_GL_SMOOTH)
    lg = quad_rule("gauss_log", N_LOG_SELF)
    h = np.asarray(h, dtype=float)[:, None]
    mom = 0.0
    for nodes, wts, logged in ((xg, wg, False), (lg.nodes, lg.weights, True)):
        g_an, g_even, _, _ = _split_kernels(k, h * nodes[None, :])
        # the log rule integrates (-ln w) f(w) and the kernel carries
        # +ln(w); elsewhere ln(r) = ln(h) + ln(w) with ln(h) smooth
        vals = -g_even if logged else g_an + np.log(h) * g_even
        mom = mom + np.einsum("eq,cq->ec", vals, wts * _rho_weights(nodes))
    return (mom * (h * h))[:, [0, 1, 1, 2]].reshape(-1, 2, 2)


def _adjacent_moments(contour, k0, e=None):
    """(P, 2, 2) blocks SB[e, :, f, :], SQ[e, :, f, :] and SQ[f, :, e, :] of
    the shared-vertex pairs (e, f = e + 1 mod n), by default e = 0 .. P - 1
    (P = n on a closed contour, n - 1 on an open one); SB[f, :, e, :] is the
    transpose of SB[e, :, f, :], and the SQ partner takes -(y - x).n_f in
    place of (y - x).n_e at the same points.

    x = V + xi*we, y = V + eta*wf, V the end of e and the start of f; r
    vanishes only at V.  On the triangle eta < xi put eta = xi*v: r =
    xi*rhat(v) with rhat bounded below, so ln r = ln(xi) + ln(r/xi) splits
    into a gauss_log part in xi plus a smooth remainder; the other triangle
    is the mirror image with eta outermost.  Every pair shares the
    reference nodes.
    """
    xg, wg = gauss_legendre_unit(N_GL_DUFFY)
    lg = quad_rule("gauss_log", N_LOG_DUFFY)
    n = contour.n_elements
    if e is None:
        e = np.arange(n if contour.closed else n - 1)
    f = (e + 1) % n
    ends = contour.nodes[contour.elements]             # (n0, 2 local, 2)
    vertex = ends[e, 1]
    we = ends[e, 0] - vertex
    wf = ends[f, 1] - vertex
    normals = np.stack([contour.normals[e], -contour.normals[f]])
    hh = (contour.lengths[e] * contour.lengths[f])[:, None, None]
    mom = 0.0
    for outer, w_outer, logged in ((xg, wg, False),
                                   (lg.nodes, lg.weights, True)):
        inner = np.multiply.outer(outer, xg)
        wide = np.broadcast_to(outer[:, None], inner.shape)
        for xi, eta in ((wide, inner), (inner, wide)):
            dvec = (eta[..., None] * wf[:, None, None, :]
                    - xi[..., None] * we[:, None, None, :])
            r = np.hypot(dvec[..., 0], dvec[..., 1])   # (P, outer, inner)
            g_an, g_even, w_an, w_even = _split_kernels(k0, r)
            if logged:
                kg, kq = -g_even, -w_even
            else:
                lnrest = np.log(r / outer[:, None])
                kg = g_an + lnrest * g_even
                kq = w_an + lnrest * w_even
            jac = np.multiply.outer(w_outer, wg) * outer[:, None] * hh
            kern = np.stack([kg, *(kq * np.einsum("pxvd,pd->pxv", dvec, m)
                                   for m in normals)]) * jac
            pt = np.stack([xi, 1.0 - xi])              # t = 1 - xi on e
            ps = np.stack([1.0 - eta, eta])
            mom = mom + np.einsum("axv,bxv,kpxv->kpab", pt, ps, kern)
    return mom[0], mom[1], mom[2].transpose(0, 2, 1)


def _pair_moments(contour, k0, e, f, n_gl):
    """(P, 2, 2) blocks SB[e, :, f, :], SQ[e, :, f, :] and SQ[f, :, e, :]
    of the pairs (e, f) by tensor Gauss-Legendre; SB[f, :, e, :] is the
    transpose of SB[e, :, f, :], and the SQ partner reuses W(r) with
    -(y - x).n(x_f) in place of (y - x).n(x_e)."""
    x, w = gauss_legendre_unit(n_gl)
    # Contour.points on the elements e and f alone, (P, nq, 2) each
    a, b = contour.nodes[contour.elements[np.stack([e, f])]].transpose(
        2, 0, 1, 3)
    pe, pf = a[..., None, :] + (b - a)[..., None, :] * x[:, None]
    dx, dy = (pf[:, None, :, k] - pe[:, :, None, k] for k in range(2))
    kern = np.empty((3,) + dx.shape, dtype=complex)           # (3, P, nq, nq)
    kern[0], wq = _plain_kernels(k0, np.hypot(dx, dy))
    for k, n in ((1, contour.normals[e]), (2, -contour.normals[f])):
        kern[k] = wq * (dx * n[:, 0, None, None] + dy * n[:, 1, None, None])
    # both phi contractions, the quadrature weights inside phi
    phi = np.stack([1.0 - x, x]) * w
    half = np.einsum("kpij,bj->bkpi", kern, phi)
    mom = np.einsum("ai,bkpi->kpab", phi, half) * (
        contour.lengths[e] * contour.lengths[f])[:, None, None]
    return mom[0], mom[1], mom[2].transpose(0, 2, 1)


def _distant_pairs(contour, k0, lo=0, hi=None):
    """(e, f, n_gl): slice lo:hi (all by default) of the listing of the
    pairs e < f that share no node, diagonal by diagonal (f - e from 2 up,
    e ascending within a diagonal, so that (e + 1, f + 1) follows (e, f)),
    each with the Gauss-Legendre order that DISTANT_ORDERS gives it."""
    n = contour.n_elements
    # on a closed contour the one pair of diagonal n - 1, (0, n - 1), adjoins
    diag = np.arange(2, n - contour.closed)
    start = np.concatenate([[0], np.cumsum(n - diag)])
    k = np.arange(lo, start[-1] if hi is None else min(hi, start[-1]))
    j = np.searchsorted(start, k, side="right") - 1
    e = k - start[j]
    f = e + diag[j]
    return e, f, _distant_orders(contour, k0, e, f)


def _distant_orders(contour, k0, e, f):
    """The Gauss-Legendre order DISTANT_ORDERS gives each distant pair
    (e, f)."""
    h = contour.lengths
    hmax = np.maximum(h[e], h[f])
    mid = contour.midpoints()
    gap = np.hypot(*(mid[f] - mid[e]).T) - 0.5 * (h[e] + h[f])
    return DISTANT_ORDERS[np.searchsorted(_ORDER_KH, k0 * hmax),
                          np.searchsorted(_ORDER_CLEARANCE, gap / hmax)]


def _pair_keys(contour, e, f):
    """(5, P) keys of the pairs (e, f): h_e and the two endpoints of f in
    e's frame (origin at e's start, x axis along tau_e).  Pairs with one
    key are congruent: every moment of a pair, tau_e . tau_f and h_f are
    functions of its key (the normal sign is one per contour)."""
    x, y = contour.nodes[contour.elements].T                # (2, n0) each
    tx, ty = (t[e] for t in contour.tangents.T)
    key = np.empty((5, e.size))
    key[0] = contour.lengths[e]
    for k in range(2):
        dx, dy = x[k][f] - x[0][e], y[k][f] - y[0][e]
        key[1 + k] = dx * tx + dy * ty
        key[3 + k] = dy * tx - dx * ty
    return key


# --------------------------------------------------------------------------
# the one scatter of element blocks to nodal DOFs
# --------------------------------------------------------------------------

def _add_blocks(out, contour, e, f, blocks):
    """out += the (P, 2, 2) blocks of the distinct element pairs (e, f),
    slot (a, b) at (node(e, a), node(f, b)).  Exact: no node starts (or
    ends) two elements, so for a fixed slot no entry repeats."""
    el = contour.elements
    for a, b in np.ndindex(2, 2):
        out[el[e, a], el[f, b]] += blocks[:, a, b]


def _local_blocks(contour, k0, e, f, sb):
    """The (P, 2, 2) B and B - S blocks of the pairs (e, f) from their raw
    moments SB; the basis slopes are -+1/h per element."""
    h, tau = contour.lengths, contour.tangents
    ttf = np.einsum("pd,pd->p", tau[e], tau[f])[:, None, None]
    deriv = np.multiply.outer(sb.sum(axis=(1, 2)) / (k0 * (h[e] * h[f])),
                              [[1.0, -1.0], [-1.0, 1.0]])
    return 1j * k0 * sb, 1j * (k0 * ttf * sb - deriv)


def _add_pair_blocks(mats, contour, k0, e, f, sb, sq=None, sq_fe=None):
    """Adds the B, B - S (:func:`_local_blocks`) and (given SQ) Q blocks of
    the pairs (e, f) from their raw moments, and (given them) the Q blocks
    of (f, e) from their partner moments SQ[f, :, e, :]."""
    b, bs = _local_blocks(contour, k0, e, f, sb)
    _add_blocks(mats["B"], contour, e, f, b)
    _add_blocks(mats["BS"], contour, e, f, bs)
    if sq is not None:
        _add_blocks(mats["Q"], contour, e, f, sq)
    if sq_fe is not None:
        _add_blocks(mats["Q"], contour, f, e, sq_fe)


def _node_sum(contour, x):
    """S x, S the (n_nodes, 2 n0) node incidence: sums x's slots (element
    index first, local node 0 start / 1 end second) into nodes.  Element
    e starts at node e and ends at node e + 1 (mod n on a loop), so the
    sums are slice adds, in the order of a scatter onto zeros."""
    n, n0 = contour.n_nodes, contour.n_elements
    out = np.zeros((n,) + x.shape[2:], dtype=x.dtype)
    out[:n0] += x[:, 0]
    out[1:] += x[:n - 1, 1]
    if contour.closed:
        out[0] += x[-1, 1]
    return out


def _helmholtz_blocks(contour, k0):
    """One pass over all element pairs; returns the nodal B, BS and Q.

    The distant pairs go in slices of PAIRS_PER_SLICE pairs of their
    listing (:func:`_distant_pairs`).  Within a slice, each diagonal's
    first pair is its head: a pair of that diagonal whose key
    (:func:`_pair_keys`) lies within KEY_TOL times its own size (max |key
    component|) of the head's, at the head's Gauss order, takes the head's
    moments; every other pair is evaluated alone.
    """
    _check_resolution(contour, k0)
    mats = {key: np.zeros((contour.n_nodes,) * 2, dtype=complex)
            for key in ("B", "BS", "Q")}
    n = contour.n_elements
    for lo in itertools.count(0, PAIRS_PER_SLICE):
        e, f, n_gl = _distant_pairs(contour, k0, lo, lo + PAIRS_PER_SLICE)
        if not e.size:
            break
        key = _pair_keys(contour, e, f)
        k = np.arange(e.size)
        head = np.maximum.accumulate(np.where(np.diff(f - e, prepend=0), k, 0))
        alone = ((np.abs(key - key[:, head]).max(axis=0)
                  > KEY_TOL * np.abs(key).max(axis=0)) | (n_gl != n_gl[head]))
        rep = np.where(alone, k, head)
        first = np.flatnonzero(rep == k)
        row = np.searchsorted(first, rep)
        table = np.empty((3, first.size, 2, 2), dtype=complex)
        for order in np.unique(n_gl[first]):
            pick = np.flatnonzero(n_gl[first] == order)
            table[:, pick] = _pair_moments(contour, k0, e[first[pick]],
                                           f[first[pick]], order)
        _add_pair_blocks(mats, contour, k0, e, f, *table[:, row])
    # the shared-vertex pairs (e, e + 1 mod n) go in once, like the distant
    # pairs e < f, with Q's (f, e) blocks from the partner normal; they are
    # evaluated one by one: their SQ is about proportional to the turning
    # angle, which spreads by ~1e-12 relative over the rounded nodes of a
    # regular polygon, too much for one pair to stand for all
    mom = _adjacent_moments(contour, k0)
    e = np.arange(mom[0].shape[0])
    _add_pair_blocks(mats, contour, k0, e, (e + 1) % n, *mom)
    # SB[f, :, e, :] = SB[e, :, f, :]^T: the (f, e) blocks of B and B - S
    # of every off-diagonal pair are the transpose (NumPy buffers the
    # overlapping operand), which leaves both exactly symmetric
    for key in ("B", "BS"):
        mats[key] += mats[key].T
    # SQ self blocks stay zero: n(x).(y-x) = 0 on a straight element
    diag = np.arange(n)
    _add_pair_blocks(mats, contour, k0, diag, diag,
                     _self_g_moments(k0, contour.lengths))
    return mats


def _rotation_sense(contour):
    """The sign s = +-1 when ``contour`` is closed and node k is node 0
    turned about the centroid of the nodes by s 2 pi k / n for every k,
    within KEY_TOL times the largest node distance from the centroid;
    0 otherwise.  O(n)."""
    if not contour.closed:
        return 0
    p = contour.nodes - contour.nodes.mean(axis=0)
    ang = _TWO_PI * np.arange(p.shape[0]) / p.shape[0]
    cos, sin = np.cos(ang), np.sin(ang)
    tol = KEY_TOL * np.hypot(p[:, 0], p[:, 1]).max()
    for s in (1, -1):
        if max(np.abs(cos * p[0, 0] - s * sin * p[0, 1] - p[:, 0]).max(),
               np.abs(s * sin * p[0, 0] + cos * p[0, 1] - p[:, 1]).max()
               ) <= tol:
            return s
    return 0


def _uniform_chain(contour):
    """True when ``contour`` is open, has two elements or more, and node k
    is node 0 + k (node N - 1 - node 0) / (N - 1) for every k, within
    KEY_TOL times that extent.  O(n)."""
    if contour.closed or contour.n_elements < 2:
        return False
    p = contour.nodes
    span = p[-1] - p[0]
    step = np.arange(p.shape[0])[:, None] / (p.shape[0] - 1)
    return bool(np.abs(p[0] + step * span - p).max()
                <= KEY_TOL * np.hypot(*span))


def _row_pairs(contour, k0):
    """The pairs (0, f) of element 0 with every element f, in groups
    (f, SB[0, :, f, :], SQ[0, :, f, :], SQ[f, :, 0, :]) of raw moments, one
    per call of a pair-class routine: the self pair (f = 0, SQ None), the
    shared-vertex pair (0, 1) with, on a closed contour, (n - 1, 0), whose
    transposed SB and swapped SQ are the (0, n - 1) blocks, then the
    distant pairs by their DISTANT_ORDERS.  Each group keeps the memory
    layout its routine returns, which the block sums of the local
    formulation round by."""
    n = contour.n_elements
    zero = np.zeros(1, dtype=int)
    yield zero, _self_g_moments(k0, contour.lengths[:1]), None, None
    e = np.array([0, n - 1][:1 + contour.closed])
    sb, sq, sq_fe = _adjacent_moments(contour, k0, e)
    if contour.closed:
        sb, sq, sq_fe = (np.stack([sb[0], sb[1].T]),
                         np.stack([sq[0], sq_fe[1]]),
                         np.stack([sq_fe[0], sq[1]]))
    yield np.array([1, n - 1])[:e.size], sb, sq, sq_fe
    f = np.arange(2, n - contour.closed)
    n_gl = _distant_orders(contour, k0, np.zeros_like(f), f)
    for order in np.unique(n_gl):
        pick = f[n_gl == order]
        yield (pick, *_pair_moments(contour, k0, np.zeros_like(pick), pick,
                                    order))


def _circulant_rows(contour, k0):
    """The first nodal rows of B, B - S and Q of a rotation-invariant
    contour (:func:`_rotation_sense`), from the pairs (0, f) of
    :func:`_row_pairs` through the one local formulation.  Their blocks
    land in rows 0 and 1, the two nodes of element 0; element n - 1 is
    element 0 turned back by one step, so its share of row 0 is row 1
    shifted left by one column."""
    _check_resolution(contour, k0)
    n = contour.n_elements
    mats = {key: np.zeros((2, n), dtype=complex) for key in ("B", "BS", "Q")}
    for f, sb, sq, _ in _row_pairs(contour, k0):
        _add_pair_blocks(mats, contour, k0, np.zeros_like(f), f, sb, sq)
    return {key: m[0] + np.roll(m[1], -1) for key, m in mats.items()}


def _toeplitz_blocks(contour, k0):
    """The nodal B, B - S and Q of a uniform chain (:func:`_uniform_chain`)
    as their 2N - 1 nodal diagonals tau (:func:`_kernel_matrix`), equal
    to :func:`_helmholtz_blocks` to rounding but in the rows and columns
    of the end nodes, which the J and M pins overwrite.

    Pair (e, f) is pair (0, f - e) moved along the chain, so slot (a, b) of
    every pair adds the block of its offset d = f - e at nodal offset
    d + b - a: one add of the slot's 2 n0 - 1 element diagonals per slot
    and matrix, from the pairs (0, f) (:func:`_row_pairs`) through the one
    local formulation.  B and B - S then take their transpose (tau[::-1])
    and the self blocks, in the dense fill's order of additions: every
    entry an interior node reads is the general pass's arithmetic, and
    tau(d) == tau(-d) exactly.  Q takes the pairs e < f and their partners
    (f, e) in one add per slot.
    """
    _check_resolution(contour, k0)
    n = contour.n_elements
    # the B, B - S, Q and partner Q blocks of the pairs (0, f), by f
    rows = np.zeros((4, n, 2, 2), dtype=complex)
    for f, sb, sq, sq_fe in _row_pairs(contour, k0):
        rows[:2, f] = _local_blocks(contour, k0, np.zeros_like(f), f, sb)
        if sq is not None:
            rows[2:, f] = sq, sq_fe
    # the element diagonals of each slot, offset d at n - 1 + d
    diags = np.zeros((3, 2, 2, 2 * n - 1), dtype=complex)
    diags[..., n:] = rows[:3, 1:].transpose(0, 2, 3, 1)
    diags[2, ..., n - 2::-1] = rows[3, 1:].transpose(1, 2, 0)
    taus = {}
    for key, slots in zip(("B", "BS", "Q"), diags):
        tau = taus[key] = np.zeros(2 * n + 1, dtype=complex)
        for a, b in np.ndindex(2, 2):
            tau[1 + b - a:2 * n + b - a] += slots[a, b]
    for key, blk in zip(("B", "BS"), rows[:2, 0]):
        tau = taus[key]
        tau += tau[::-1]        # NumPy buffers the overlapping operand
        for a, b in np.ndindex(2, 2):
            tau[n + b - a] += blk[a, b]
    return taus


def _circulant(blocks):
    """True for the blocks of a rotation-invariant contour, whose B, B - S
    and Q are first rows (one entry per node; a uniform chain's diagonals
    have 2N - 1)."""
    return blocks["B"].shape == blocks["I1"].shape[:1]


def _kernel_matrix(m, n):
    """The n x n matrix of a stored block ``m``: m itself when it is 2-D
    (dense, or a chain band), the circulant of a first row (n entries),
    entry (i, j) = m[(j - i) mod n], or the Toeplitz matrix of a uniform
    chain's diagonals (2n - 1 entries, :func:`_toeplitz_blocks`), entry
    (i, j) = m[n - 1 + j - i], as a zero-copy strided view."""
    if m.ndim == 2:
        return m
    if m.size == n:
        return m[(np.arange(n) - np.arange(n)[:, None]) % n]
    return sliding_window_view(m, n)[::-1]


# --------------------------------------------------------------------------
# mass / derivative-coupling / stiffness chain bands (elementwise exact)
# --------------------------------------------------------------------------

# column offsets of a chain band: row r of a (nodes, 3) band holds the
# entries of node r at nodes r - 1, r, r + 1
BAND = (-1, 0, 1)


def _band_columns(n):
    """(n, 3) nodes of the entries of a chain band, wrapping mod n; past
    the ends of an open chain the band holds zeros there."""
    return (np.arange(n)[:, None] + BAND) % n


def assemble_mass_and_d(contour):
    """The nodal P1 mass I1 = int phi_i phi_j, derivative coupling
    D = int phi_i d_l phi_j and stiffness K = int d_l phi_i d_l phi_j, as
    (nodes, 3) chain bands (BAND).  Element r joins nodes r and r + 1, so
    with M_r its 2 x 2 element block row r holds M_{r-1}[1, 0],
    M_{r-1}[1, 1] + M_r[0, 0] and M_r[0, 1], wrapping on a closed contour
    and zero past the ends of an open one.

    Every field, auxiliaries included, is nodal P1, so one mass and one
    coupling serve every auxiliary row and every eliminated block.
    """
    h = contour.lengths[:, None, None]
    slope = np.array([-0.5, 0.5])
    local = {"I1": h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
             "D": np.broadcast_to(slope, h.shape[:1] + (2, 2)),
             "K": np.array([[1.0, -1.0], [-1.0, 1.0]]) / h}
    e = np.arange(contour.n_elements)
    nxt = (e + 1) % contour.n_nodes
    out = {}
    for key, blk in local.items():
        band = out[key] = np.zeros((contour.n_nodes, 3))
        band[e, 1:] = blk[:, 0]
        band[nxt, 0] = blk[:, 1, 0]
        band[nxt, 1] += blk[:, 1, 1]
    return out


def _dense(band):
    """The n x n matrix of a chain band: the layout of the explicit
    auxiliary rows of :func:`build_full_system` alone.  Entries are added,
    not assigned: on a one-element open chain a wrapped zero shares its
    position with a band entry."""
    n = band.shape[0]
    out = np.zeros((n, n))
    np.add.at(out, (np.arange(n)[:, None], _band_columns(n)), band)
    return out


# --------------------------------------------------------------------------
# right-hand side
# --------------------------------------------------------------------------

# Taylor coefficients, highest power first, in powers of b^2, of the two
# element integrals of a plane wave against the P1 bases, u = t - 1/2:
#   C(b) = int_{-1/2}^{1/2} cos(b u) du = sum_n (-1)^n b^2n / ((2n + 1)! 4^n),
#   S(b) = int_{-1/2}^{1/2} u sin(b u) du
#        = b sum_n (-1)^n b^2n / ((2n + 1)! 4^(n + 1) (2n + 3)).
# Ten terms truncate below 1e-19 for |b| <= k0 h < MAX_KH.
_C_SERIES = [(-1) ** n / (math.factorial(2 * n + 1) * 4 ** n)
             for n in reversed(range(10))]
_S_SERIES = [(-1) ** n / (math.factorial(2 * n + 1) * 4 ** (n + 1)
                          * (2 * n + 3)) for n in reversed(range(10))]


def _dot_dirs(vecs, dirs):
    """(E, K) dot products of the (E, 2) vectors with the (2, K) directions,
    as two elementwise products and a sum: column k is the same whatever
    other directions share the block (a BLAS product rounds by block)."""
    out = vecs[:, :1] * dirs[0]
    out += vecs[:, 1:] * dirs[1]
    return out


def _horner(coefs, x):
    """np.polyval(coefs, x), highest power first, in place in one buffer
    and in polyval's order of operations (x >= 0, so polyval's first step
    0 x + coefs[0] is coefs[0])."""
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _plane_wave_moments(contour, k0, dirs, e=slice(None), origin=0.0):
    """(E, 2, K) moments <exp(-i k0 d.x), phi_a>_e of the start (a = 0) and
    end (a = 1) basis on the elements e (all by default), for the (2, K)
    directions d, with x measured from ``origin``.

    With m_e the midpoint, x = m_e + u (p1 - p0) and b = k0 d.(p1 - p0),
    the moments are h_e exp(-i k0 d.m_e) (C(b)/2 +- i S(b)): one complex
    exponential per element and direction, and the two series above by
    Horner in b^2, which hold while k0 h < MAX_KH (MeshError beyond).
    """
    _check_resolution(contour, k0)
    h = contour.lengths[e, None]
    b = _dot_dirs(k0 * h * contour.tangents[e], dirs)
    bb = b * b
    w = np.empty(b.shape, dtype=complex)
    w.real = 0.5 * _horner(_C_SERIES, bb)
    w.imag = b * _horner(_S_SERIES, bb)
    del b, bb       # not alive with the moments
    ph = k0 * _dot_dirs(contour.midpoints()[e] - origin, dirs)
    em = np.empty(w.shape, dtype=complex)
    em.real, em.imag = h * np.cos(ph), -h * np.sin(ph)
    mom = np.empty((w.shape[0], 2, w.shape[1]), dtype=complex)
    np.multiply(em, w, out=mom[:, 0])
    np.multiply(em, np.conjugate(w, out=w), out=mom[:, 1])
    return mom


def _rhs_terms(contour, pol, k0, dirs, e=slice(None), origin=0.0):
    """(mom, e_fac, h_fac): the moments of :func:`_plane_wave_moments` and
    the factors that make them the E- and H-row slots of
    :func:`assemble_rhs`, each a scalar or (E, 1, K)."""
    mom = _plane_wave_moments(contour, k0, dirs, e, origin)
    dn = _dot_dirs(contour.normals[e], dirs)[:, None, :]
    sig = contour.sigma
    if pol == "TE":
        return mom, sig * Z0 * dn, sig
    return mom, sig, -(sig / Z0) * dn


def assemble_rhs(contour, pol, k0, phi_inc) -> np.ndarray:
    """Incident tangential traces of unit plane waves tested against the
    nodal bases: the (n, K) block [E-row; H-row] whose column k is the
    right-hand side of the wave travelling along (cos, sin) of phi_inc[k]
    (an array of angles in radians).  With sigma the tangent/normal
    orientation sign of the contour, the tested traces of u = exp(-i k0 d.x)
    are

        TE:  E-row = sigma Z0 (d.n) <u, phi>,   H-row = sigma <u, phi>
        TM:  E-row = sigma <u, phi>,   H-row = -(sigma/Z0) (d.n) <u, phi>

    The element moments <u, phi> are exact in closed form (see
    :func:`_plane_wave_moments`) for elements with k0 h < MAX_KH; a longer
    element raises MeshError.  The far field of a contour that is neither
    rotation-invariant nor a uniform chain uses the same block by
    reciprocity (``analysis.far_field``).
    """
    if pol not in ("TE", "TM") or not k0 > 0.0:
        raise UsageError(f"need pol TE or TM and k0 > 0, got {pol!r}, {k0!r}")
    phi = np.atleast_1d(np.asarray(phi_inc, dtype=float))
    dirs = np.stack([np.cos(phi), np.sin(phi)])             # (2, K)
    mom, e_fac, h_fac = _rhs_terms(contour, pol, k0, dirs)  # (n0, 2, K)
    e_row = _node_sum(contour, e_fac * mom)
    mom *= h_fac
    return np.concatenate([e_row, _node_sum(contour, mom)])


def _node0_traces(contour, pol, k0, dirs):
    """(2, K) E and H rows of node 0 in :func:`assemble_rhs` for the (2, K)
    directions, with positions measured from the node centroid: node 0
    ends element n - 1 and starts element 0.  On a rotation-invariant
    contour node i's rows are these turned by its step, times the phase
    of the centroid (``analysis.far_field``)."""
    e = np.array([contour.n_elements - 1, 0])
    mom, e_fac, h_fac = _rhs_terms(contour, pol, k0, dirs, e,
                                   contour.nodes.mean(axis=0))
    slots = np.stack([e_fac * mom, h_fac * mom])            # (2, 2, 2, K)
    return slots[:, 0, 1] + slots[:, 1, 0]


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
    k2 = k0 * k0
    return {
        "a0": 1j * complex(coeffs.a0),
        "a": 1j * complex(coeffs.a) / k2,
        "b": complex(coeffs.b) / k2,
        "ap": 1j * complex(coeffs.ap) / (k2 * k2),
        "bp": complex(coeffs.bp) / (k2 * k2),
    }


def _field_sizes(contour, order):
    return (contour.n_nodes,) * (2 + _N_AUX[order])


def _constrained_indices(contour, sizes):
    """Global DOF indices pinned to zero: in every field, the end nodes 0
    and N - 1 of an open contour."""
    n = contour.n_nodes
    if contour.closed:
        return ()
    return tuple(off + i for off in range(0, sum(sizes), n) for i in (0, n - 1))


def _apply_constraints(matrix, rhs, constrained):
    for i in constrained:
        matrix[i, :] = 0.0
        matrix[:, i] = 0.0
        matrix[i, i] = 1.0
        if rhs is not None:
            rhs[i] = 0.0


def _checked_order(coeffs, wave):
    if wave.pol != coeffs.pol:
        raise UsageError(
            f"wave polarization {wave.pol} does not match the coefficient "
            f"set ({coeffs.pol})"
        )
    if coeffs.a0 == 0:
        raise UsageError("a0 must be nonzero")
    return _ORDER_INT[coeffs.order]


def _available_memory():
    """Bytes this process may use: its RLIMIT_AS soft limit when one is
    set, else the machine's physical memory."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# the paths a contour's blocks take (assemble_blocks), by what they store
_PATHS = {"mode": "mode rows", "chain": "Toeplitz diagonals",
          "dense": "general pass"}


def _path(contour):
    """"mode" for a rotation-invariant contour (:func:`_rotation_sense`),
    "chain" for a uniform chain (:func:`_uniform_chain`), "dense" for any
    other.  O(n)."""
    if _uniform_chain(contour):
        return "chain"
    return "mode" if _rotation_sense(contour) else "dense"


def check_memory(contour, path=None):
    """Raise MeshError when a solve of ``contour`` is predicted to peak
    above :func:`_available_memory`: MODE_PEAK_BYTES x n, n nodes, on the
    mode path, CHAIN_PEAK or DENSE_PEAK x n^2 x 16 B on a uniform chain or
    the general path (linsolve notes).  ``path`` (:func:`_path`) names the
    path; by default the contour picks it.  O(n)."""
    n = contour.n_nodes
    path = path or _path(contour)
    peak = {"mode": MODE_PEAK_BYTES * n, "chain": CHAIN_PEAK * 16.0 * n * n,
            "dense": DENSE_PEAK * 16.0 * n * n}[path]
    avail = _available_memory()
    if peak > avail:
        raise MeshError(
            f"{contour.n_elements} elements: a solve by the {_PATHS[path]} "
            f"needs ~{peak / 1e6:.3g} MB, the process may use "
            f"{avail / 1e6:.3g} MB")


def assemble_blocks(contour, k0) -> dict:
    """All geometry/frequency-dependent matrices for later composition;
    they serve every boundary-condition order, polarization, and
    incidence angle at this (contour, k0).

    The contour picks the path (:func:`_path`).  On a rotation-invariant
    contour B, BS and Q are their first nodal rows
    (:func:`_circulant_rows`), with the chain bands I1, D, K of
    :func:`assemble_mass_and_d`: O(n) memory, and the reduced system is
    solved mode by mode.  On a uniform chain (every mesh_plate) they are
    their nodal diagonals (:func:`_toeplitz_blocks`), with the bands and
    couplings of :func:`assemble_dense_blocks`: the n x n arrays are G and
    G2 (real), 1 n^2 x 16 B.  Every other contour gets the dense blocks.
    Each path first refuses a contour too large for memory
    (:func:`check_memory`); the log names the path and the bytes held.
    """
    path = _path(contour)
    if path == "dense":
        return assemble_dense_blocks(contour, k0)
    return _assembled(contour, k0, path)


def assemble_dense_blocks(contour, k0) -> dict:
    """The dense blocks of any contour by the general kernel pass
    (:func:`_helmholtz_blocks`): the oracle of the mode path on a
    rotation-invariant contour and of the Toeplitz diagonals on a uniform
    chain.

    One kernel pass and one elimination of the auxiliary fields: B, BS, Q,
    the chain bands I1, D, K of :func:`assemble_mass_and_d`, and the
    couplings G, G2 of :func:`_eliminated_blocks`.  G and G2 are
    column-major like the reduced matrix they are added into; B and B - S
    are exactly symmetric, so they read column-major through their
    transpose.  The n x n arrays are B, B - S, Q (complex) and G, G2
    (real): 4 n^2 x 16 B.
    """
    return _assembled(contour, k0, "dense")


def _assembled(contour, k0, path):
    """The blocks of ``path`` (:func:`_path`): B, BS and Q from its kernel
    pass, the chain bands and, off the mode path, the couplings G, G2."""
    check_memory(contour, path)
    t0 = time.perf_counter()
    if path == "mode":
        blocks = _circulant_rows(contour, k0)
    elif path == "chain":
        blocks = _toeplitz_blocks(contour, k0)
    else:
        blocks = _helmholtz_blocks(contour, k0)
    blocks.update(assemble_mass_and_d(contour))
    if path != "mode":
        blocks["G"], blocks["G2"] = _eliminated_blocks(contour, blocks)
    log.info("assembled blocks by %s: %d elements, k0 %g, %.3g MB held, "
             "%.2fs", _PATHS[path], contour.n_elements, k0,
             sum(m.nbytes for m in blocks.values()) / 1e6,
             time.perf_counter() - t0)
    return blocks


def _system_meta(contour, coeffs, wave, scaled, t0):
    return {
        "pol": wave.pol,
        "order": coeffs.order,
        "k0": wave.k0,
        "phi_inc": wave.phi_inc,
        "a0": complex(coeffs.a0),
        "coefficients_scaled": dict(scaled),
        "mode": "p1",       # the trial space, a field of the result files
        "geometry": contour_hash(contour),
        "n_elements": contour.n_elements,
        "compose_seconds": time.perf_counter() - t0,
    }


def _jm_table(te, c, order):
    """The (J, M) matrix as a table, per quadrant JJ, JM, MJ, MM (row-major)
    the terms ``(key, transposed, op, scalar)`` it sums, each
    ``op(block, scalar)`` (``op(block)`` when scalar is None) with block
    ``blocks[key]`` or its transpose.  The composition (:func:`_compose`),
    the per-mode symbols (:func:`_mode_symbols`) and the residual's matvec
    (:func:`_jm_matvec`) all read it.

    Per quadrant: the order-0 kernel block (TM swaps the roles of B - S and
    B and transposes Q), I1's a0 term on the diagonal, then up to ``order``
    couplings G, G2 of the eliminated auxiliary fields.  J rows carry 1/2,
    M rows 1/(2 a0), the J-M and M-J blocks sy; J columns couple through a
    and a', M columns through b and b'.  B - S and B are bitwise symmetric
    and listed transposed, which reads them column-major like A.
    """
    a0 = c["a0"]
    bs, b, qt = ("BS", "B", False) if te else ("B", "BS", True)
    order0 = ((bs, True, np.multiply, Z0), ("Q", qt, np.positive, None),
              ("Q", not qt, np.negative, None), (b, True, np.divide, Z0))
    mass = {0: (("I1", False, np.multiply, 0.5 * a0),),
            3: (("I1", False, np.divide, 2.0 * a0),)}
    sy = 1.0 if te else -1.0
    s = (0.5, 0.5 * sy, 0.5 * sy / a0, 0.5 / a0)
    couplings = (((c["a"], c["b"]) * 2, "G"),
                 ((-c["ap"], -c["bp"]) * 2, "G2"))[:order]
    return tuple((term,) + mass.get(k, ())
                 + tuple((key, False, np.multiply, s[k] * coefs[k])
                         for coefs, key in couplings)
                 for k, term in enumerate(order0))


def _compose(views, blocks, table, mirror=0):
    """Write the terms of ``table`` (:func:`_jm_table`) into the four
    complex quadrant views, with no complex n^2 temporary: the first term
    of a quadrant goes in through ``out=``, I1's on its 3n band entries
    only, and a real coupling in one real pass into each part.  The band
    entries past the ends of an open chain add zeros to pinned rows.
    With ``mirror`` = +1 or -1 the views are those of the even or odd
    half of a mirror-symmetric matrix (``linsolve.MirrorPair``), and every
    block is read folded (:func:`_fold`); in a half of one or two nodes
    the band's columns repeat mod n only in node 0's pinned row and
    column.  Circulant rows and a uniform chain's diagonals are read as
    their n x n matrices (:func:`_kernel_matrix`)."""
    n, nodes = views[0].shape[0], blocks["I1"].shape[0]
    r, c = np.arange(n)[:, None], _band_columns(n)

    def read(key, tr):
        m = _kernel_matrix(blocks[key], nodes)
        m = m.T if tr else m
        return _fold(m, n, mirror, key == "I1") if mirror else m

    for v, ((key, tr, op, scalar), *added) in zip(views, table):
        m = read(key, tr)
        if scalar is None:
            op(m, out=v)
        else:
            op(m, scalar, out=v)
        for key, tr, op, scalar in added:
            m = read(key, tr)
            if key == "I1":
                v[r, c] += op(m, scalar)
            else:
                re, im = v.real, v.imag
                re += scalar.real * m
                im += scalar.imag * m
        del m       # not alive while the next quadrant reads its block


def _fold(m, h, sign, band=False):
    """The mirror half of sign +1 (even) or -1 (odd) of an n x n block
    m = P m P, P reversing the nodes: rows k < h and, for k < n // 2,
    column k plus ``sign`` times column n - 1 - k; the middle column of
    an odd n, in the even half (h = n // 2 + 1), is not doubled.  A chain
    band (``band``, (n, 3)) folds to (h, 3): of its rows k < h only row
    h - 1 reaches a column past h - 1, column h, whose mirror n - 1 - h
    lies in that row's band, or is the middle node, which the odd half
    lacks."""
    n, ho = m.shape[0], m.shape[0] // 2
    if band:
        f = m[:h].copy()
        o = n - 2 * h               # column n - 1 - h, from row h - 1
        if o <= 0:
            f[-1, 1 + o] += sign * f[-1, 2]
        f[-1, 2] = 0.0
        return f
    f = np.empty((h, h), dtype=m.dtype, order="F")
    f[:, ho:] = m[:h, ho:h]
    (np.add if sign > 0 else np.subtract)(m[:h, :ho], m[:h, ::-1][:, :ho],
                                          out=f[:, :ho])
    return f


def _composed(blocks, table, n, pins, mirror=0):
    """The column-major 2n x 2n matrix that ``table`` composes from
    ``blocks`` (:func:`_compose`), pinned at ``pins``."""
    a = np.empty((2 * n, 2 * n), dtype=complex, order="F")
    _compose((a[:n, :n], a[:n, n:], a[n:, :n], a[n:, n:]), blocks, table,
             mirror)
    _apply_constraints(a, None, pins)
    return a


def _symbol(row):
    """The eigenvalues of the circulant matrix of the first row ``row``,
    in numpy's DFT order of modes m: the DFT of its first column,
    sum_k row[k] exp(2 pi i m k / n)."""
    return np.fft.fft(row[-np.arange(row.size)])


def _mode_symbols(blocks, table):
    """The (n, 2, 2) per-mode symbols of the block-circulant reduced
    matrix that ``table`` (:func:`_jm_table`) composes from circulant
    ``blocks``: each term is op(symbol, scalar) of its key, at mode -m
    when it is listed transposed.  The couplings come from the band
    symbols, G = D I1^{-1} D and G2 = K I1^{-1} G (circulants commute)."""
    n = blocks["I1"].shape[0]
    sym = {key: _symbol(blocks[key]) for key in ("B", "BS", "Q")}
    for key in ("I1", "D", "K"):
        row = np.zeros(n)
        row[list(BAND)] += blocks[key][0]
        sym[key] = _symbol(row)
    sym["G"] = sym["D"] * sym["D"] / sym["I1"]
    sym["G2"] = sym["K"] * sym["G"] / sym["I1"]
    out = np.zeros((n, 4), dtype=complex)
    for k, terms in enumerate(table):
        for key, tr, op, scalar in terms:
            s = sym[key][-np.arange(n)] if tr else sym[key]
            out[:, k] += op(s) if scalar is None else op(s, scalar)
    return out.reshape(n, 2, 2)


def build_full_system(contour, coeffs, wave: IncidentWave,
                      blocks=None) -> AssembledSystem:
    """Assemble the block matrix with explicit auxiliary fields.

    Unknown layout: (J, M) for order 0, (J, M, X, Y) for order 1,
    (J, M, X, Y, X', Y') for order 2.  Pass a precomputed ``blocks`` dict
    (from assemble_blocks or a previous system) to skip the kernel pass;
    circulant first rows and a uniform chain's diagonals are expanded to
    dense here (:func:`_kernel_matrix`).
    """
    order = _checked_order(coeffs, wave)
    if blocks is None:
        blocks = assemble_blocks(contour, wave.k0)
    t0 = time.perf_counter()
    i1, d, kst = (_dense(blocks[key]) for key in ("I1", "D", "K"))
    c = _scaled_coefficients(coeffs, wave.k0)
    a0 = c["a0"]

    sizes = _field_sizes(contour, order)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    A = np.zeros((offs[-1], offs[-1]), dtype=complex)

    def put(bi, bj, m):
        A[offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]] += m

    te = wave.pol == "TE"
    n1, n2 = offs[1], offs[2]
    _compose((A[:n1, :n1], A[:n1, n1:n2], A[n1:n2, :n1], A[n1:n2, n1:n2]),
             blocks, _jm_table(te, c, 0))

    if order >= 1:
        sy = 1.0 if te else -1.0        # sign carried by every b-coupling
        put(0, 2, 0.5 * c["a"] * d)
        put(0, 3, sy * 0.5 * c["b"] * d)
        put(1, 2, sy * c["a"] / (2.0 * a0) * d)
        put(1, 3, c["b"] / (2.0 * a0) * d)
        put(2, 0, -d)
        put(2, 2, i1)
        put(3, 1, -d)
        put(3, 3, i1)
    if order == 2:
        put(0, 4, -0.5 * c["ap"] * kst)
        put(0, 5, -sy * 0.5 * c["bp"] * kst)
        put(1, 4, -sy * c["ap"] / (2.0 * a0) * kst)
        put(1, 5, -c["bp"] / (2.0 * a0) * kst)
        put(4, 2, -d)
        put(4, 4, i1)
        put(5, 3, -d)
        put(5, 5, i1)

    rhs = np.zeros(offs[-1], dtype=complex)
    rhs[: offs[2]] = assemble_rhs(contour, wave.pol, wave.k0,
                                  wave.phi_inc)[:, 0]
    constrained = _constrained_indices(contour, sizes)
    _apply_constraints(A, rhs, constrained)

    meta = _system_meta(contour, coeffs, wave, c, t0)
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


# --------------------------------------------------------------------------
# banded elimination of the auxiliary fields
# --------------------------------------------------------------------------

# columns per panel of a banded product (_band_dot)
BAND_PANEL = 32


def _band_dot(vals, x):
    """A chain band times dense, O(rows x columns): row r of the product is
    sum_j vals[r, j] x[r + BAND[j]], positions wrapping mod the length of
    x.  x is a vector or a matrix; shifted slices keep its memory order,
    and the product takes its dtype.  Each band column goes in by panels
    of BAND_PANEL columns of x, so no temporary has more than rows x
    BAND_PANEL entries."""
    rows, n = vals.shape[0], x.shape[0]
    xs = x.reshape(n, -1)
    out = np.zeros((rows, xs.shape[1]), dtype=np.result_type(vals, x),
                   order="F" if x.flags.f_contiguous else "C")
    for j, o in enumerate(BAND):
        lo, hi = max(0, -o), min(rows, n - o)
        for c in range(0, xs.shape[1], BAND_PANEL):
            cols = slice(c, c + BAND_PANEL)
            out[lo:hi, cols] += vals[lo:hi, j, None] * xs[lo + o:hi + o, cols]
        for r in (*range(lo), *range(hi, rows)):     # wrapped positions
            out[r] += vals[r, j] * xs[(r + o) % n]
    return out.reshape((rows,) + x.shape[1:])


def _solve_tridiagonal(band, rhs, closed):
    """Solve T x = rhs in place of rhs (an (n, m) Fortran-ordered array), T
    tridiagonal in chain order with rows band[k] = (T[k, k-1], T[k, k],
    T[k, k+1]).

    On a closed chain the corners T[0, n-1], T[n-1, 0] make T = T' + u v^T
    a rank-one update of a tridiagonal T', and Sherman-Morrison gives
    x = y - z (v.y) / (1 + v.z) from T' y = rhs, T' z = u.
    """
    n = band.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = band[:-1, 2]
    ab[1] = band[:, 1]
    ab[2, :-1] = band[1:, 0]
    if not closed:
        return solve_banded((1, 1), ab, rhs, overwrite_b=True,
                            check_finite=False)
    top, bottom = band[0, 0], band[-1, 2]
    gamma = -ab[1, 0]
    ab[1, 0] -= gamma
    ab[1, -1] -= top * bottom / gamma
    u = np.zeros(n)
    u[0], u[-1] = gamma, bottom
    z = solve_banded((1, 1), ab, u, check_finite=False)
    y = solve_banded((1, 1), ab, rhs, overwrite_b=True, check_finite=False)
    vy = y[0] + (top / gamma) * y[-1]
    vz = z[0] + (top / gamma) * z[-1]
    return blas.dger(-1.0 / (1.0 + vz), z, vy, a=y, overwrite_a=True)


def _eliminated_blocks(contour, blocks):
    """The couplings (G, G2) the eliminated auxiliary fields leave on the
    J-J, J-M, M-J and M-M blocks alike, as real arrays:
    G = D W with X = W J, Y = W M from the mass rows I1 X = D J,
    I1 Y = D M, and G2 = K I1^{-1} D W the order-2 coupling.  Both depend
    on the mesh alone, and both are column-major, as the banded solves
    leave them, so that the composition adds them into the column-major A
    in memory order.  At the pinned nodes (the ends 0 and N - 1 of an
    open contour, :func:`_constrained_indices`, in every field) an
    auxiliary mass row is the identity with a zero right-hand side, so
    those auxiliary values are exactly 0; the J and M pins are left to the
    composed matrix.
    """
    n = contour.n_nodes
    pos = _band_columns(n)
    free = np.ones(n, dtype=bool)
    free[list(_constrained_indices(contour, (n,)))] = False
    mass = blocks["I1"] * (free[:, None] & free[pos])
    mass[~free, 1] = 1.0
    # D with its pinned auxiliary rows zeroed, laid out column-major for
    # the banded solve
    d = blocks["D"]
    w = np.zeros((n, n), order="F")
    w[np.arange(n)[:, None], pos] = d * free[:, None]
    g = _band_dot(d, _solve_tridiagonal(mass, w, contour.closed))
    del w           # not alive while G2 is formed
    # G2's solve takes G with its pinned auxiliary rows zeroed
    w2 = _solve_tridiagonal(mass, g * free[:, None], contour.closed)
    return g, _band_dot(blocks["K"], w2)


def build_reduced_system(contour, coeffs, wave: IncidentWave,
                         blocks=None) -> AssembledSystem:
    """Assemble the 2N (J, M) system directly from closed-form elimination,
    never materializing the larger auxiliary-variable matrix.

    Agrees with reduce_system(build_full_system(...)) to rounding: the
    auxiliary mass rows are block-triangular, so elimination is just
    W = I1^{-1} (d-coupling), applied once per auxiliary level, as banded
    solves and banded-times-dense products in chain order (module notes),
    done once by assemble_blocks.  This writes the constrained matrix in
    place into A's quadrants from the stored blocks (beyond A it allocates
    one real product) and adds the right-hand side of ``wave``.  A is
    column-major (Fortran order), as LAPACK stores a matrix, so that
    ``analysis.solve_currents`` factors it where it lies instead of copying it.
    From circulant blocks (:func:`assemble_blocks`) the reduced matrix is
    a :class:`~hoibc2d.linsolve.BlockCirculant` of the same terms
    (:func:`_mode_symbols`) and no n x n array is made.  On a uniform
    chain (:func:`_uniform_chain`) A = P A P, P reversing the nodes within
    J and within M, and the reduced matrix is a
    :class:`~hoibc2d.linsolve.MirrorPair`: its even and odd halves, each
    composed in place from the same terms read folded (:func:`_fold`),
    the Toeplitz diagonals through a zero-copy view, with node 0 of J and
    of M pinned (node N - 1 folds onto it), and no 2N x 2N array is
    made.  In every case the right-hand side is zero at
    the pins.
    """
    order = _checked_order(coeffs, wave)
    if blocks is None:
        blocks = assemble_blocks(contour, wave.k0)
    rhs = assemble_rhs(contour, wave.pol, wave.k0, wave.phi_inc)[:, 0]
    t0 = time.perf_counter()
    c = _scaled_coefficients(coeffs, wave.k0)
    n1 = contour.n_nodes
    sizes = _field_sizes(contour, order)
    constrained = _constrained_indices(contour, sizes[:2])
    n = sizes[0] + sizes[1]

    table = _jm_table(wave.pol == "TE", c, order)
    if _circulant(blocks):          # closed: nothing is pinned
        A = BlockCirculant(_mode_symbols(blocks, table))
    elif _uniform_chain(contour):   # node n1 - 1 folds onto the pinned 0
        A = MirrorPair(*(_composed(blocks, table, h, (0, h), sign)
                         for h, sign in (((n1 + 1) // 2, 1), (n1 // 2, -1))))
    else:
        A = _composed(blocks, table, n1, constrained)
    rhs[list(constrained)] = 0.0

    meta = _system_meta(contour, coeffs, wave, c, t0)
    log.info("assembled %s %s reduced system: n=%d, geometry %s, %.2fs",
             wave.pol, coeffs.order, n, meta["geometry"],
             meta["compose_seconds"])
    return AssembledSystem(blocks=blocks, rhs=None, meta=meta, sizes=sizes,
                           constrained=constrained, reduced_matrix=A,
                           reduced_rhs=rhs)


def _block_mv(m, v, transposed):
    """m v, or m^T v when ``transposed``, for a real or complex m and a
    complex v, by scipy's BLAS on m as it lies (no copy); for a uniform
    chain's diagonals m (:func:`_toeplitz_blocks`), the product with
    their Toeplitz matrix by scipy's FFT, which calls no BLAS."""
    if m.ndim == 1:
        n = v.shape[0]
        col, row = m[n - 1::-1], m[n - 1:]
        return matmul_toeplitz((row, col) if transposed else (col, row), v)
    if not m.flags.f_contiguous:    # a row-major m is m^T column-major
        m, transposed = m.T, not transposed
    trans = int(transposed)
    if np.iscomplexobj(m):
        return blas.zgemv(1.0, m, v, trans=trans)
    return (blas.dgemv(1.0, m, v.real, trans=trans)
            + 1j * blas.dgemv(1.0, m, v.imag, trans=trans))


def _jm_matvec(system, x):
    """A x for the dense reduced matrix A of ``system``, or the one its
    mirror halves stand for, from its stored blocks and the table that
    composed A (:func:`_jm_table`), so A itself need not exist: a pinned
    row of A is the identity's and a pinned column zero, so the end rows
    and columns of a uniform chain's Toeplitz blocks are never read."""
    meta, n1 = system.meta, system.sizes[0]
    table = _jm_table(meta["pol"] == "TE", meta["coefficients_scaled"],
                      _ORDER_INT[meta["order"]])
    pins = list(system.constrained)
    xs = x.copy()
    xs[pins] = 0.0
    y = np.zeros_like(xs)
    for k, terms in enumerate(table):
        row, col = divmod(k, 2)
        part = xs[col * n1:(col + 1) * n1]
        for key, tr, op, scalar in terms:
            if key == "I1":         # a chain band
                p = _band_dot(system.blocks[key], part)
            else:
                p = _block_mv(system.blocks[key], part, tr)
            y[row * n1:(row + 1) * n1] += (op(p) if scalar is None
                                           else op(p, scalar))
    y[pins] = x[pins]
    return y
