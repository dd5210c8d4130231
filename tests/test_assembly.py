"""Assembly tests: kernel matrices, block systems, reductions.

Reference values come from independent routes: a 30-digit adaptive
quadrature of the 1D self-element reduction, dense midpoint tensor
quadrature for off-diagonal element pairs, and structural identities
(complex symmetry, circulant structure on uniform circles, partition
of unity, exact zero blocks) that the discretization must satisfy.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from hoibc2d import assembly
from hoibc2d.analysis import solve_and_pattern, solve_currents
from hoibc2d.assembly import (
    _C_SERIES,
    _S_SERIES,
    MAX_KH,
    PAIRS_PER_SLICE,
    IncidentWave,
    _adjacent_moments,
    _available_memory,
    _band_dot,
    _circulant_dense,
    _dense,
    _distant_pairs,
    _eliminated_blocks,
    _helmholtz_blocks,
    _horner,
    _jm_matvec,
    _mode_symbols,
    _node_sum,
    _pair_moments,
    _plain_kernels,
    _rotation_sense,
    _scaled_coefficients,
    _self_g_moments,
    _toeplitz_blocks,
    _uniform_chain,
    assemble_blocks,
    assemble_dense_blocks,
    assemble_mass_and_d,
    assemble_rhs,
    build_full_system,
    build_reduced_system,
    reduce_system,
)
from hoibc2d.errors import MeshError, SingularMatrixError, UsageError
from hoibc2d.geometry import _MIN_ELEMENTS, Contour, mesh_circle, mesh_plate
from hoibc2d.impedance import CoatingSpec, IbcCoefficients, fit_coefficients
from hoibc2d.linsolve import (DENSE_PEAK, MODE_PEAK_BYTES, MirrorPair,
                              apply_modes, lu_factor, solve)
from hoibc2d.specfun import C0, Z0, gauss_legendre_unit, hankel2_01_real

K0 = 2.0 * np.pi  # 1 m circle at ~300 MHz


# --- shared geometries ------------------------------------------------------

@pytest.fixture(scope="module")
def circle32():
    return mesh_circle(1.0, 32)


@pytest.fixture(scope="module")
def circle32_blocks(circle32):
    # the dense path by name: a circle takes the mode path through
    # assemble_blocks, and these tests pin properties of the dense one
    return assemble_dense_blocks(circle32, K0)


@pytest.fixture(scope="module")
def corner():
    # two elements meeting at a 130-degree interior angle
    th = np.deg2rad(50.0)
    nodes = np.array([
        [0.0, 0.0],
        [0.3, 0.0],
        [0.3 + 0.25 * np.cos(th), 0.25 * np.sin(th)],
    ])
    return Contour(nodes=nodes, closed=False)


K_CORNER = 3.7


@pytest.fixture(scope="module")
def corner_mats(corner):
    return _helmholtz_blocks(corner, K_CORNER)


def _brute_pair_raw(contour, k0, e, f, n, chunk=256):
    a0, b0 = contour.nodes[contour.elements[e]]
    a1, b1 = contour.nodes[contour.elements[f]]
    he, hf = contour.lengths[e], contour.lengths[f]
    ne = contour.normals[e]
    t = (np.arange(n) + 0.5) / n
    x = a0[None, :] + t[:, None] * (b0 - a0)[None, :]
    y = a1[None, :] + t[:, None] * (b1 - a1)[None, :]
    ps = np.stack([1.0 - t, t])
    SB = np.zeros((2, 2), dtype=complex)
    SQ = np.zeros((2, 2), dtype=complex)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = y[None, :, :] - x[lo:hi, None, :]
        r = np.hypot(d[..., 0], d[..., 1])
        g, w = _plain_kernels(k0, r)
        kq = w * (d @ ne)
        pt = ps[:, lo:hi]
        SB += np.einsum("ax,by,xy->ab", pt, ps, g)
        SQ += np.einsum("ax,by,xy->ab", pt, ps, kq)
    scale = he * hf / n**2
    return SB * scale, SQ * scale


def _brute_pair(contour, k0, e, f, n=1024):
    """Raw pair integrals by an n-squared midpoint tensor rule.

    Midpoints never coincide with the shared vertex, and the log
    singularity is integrable, so no excision is needed.  The rule
    converges at second order; extrapolating the n and 2n grids
    removes the leading term and leaves ~1e-8 relative error on the
    toy contours.  Returns (SB, SQ): the 2x2 arrays of
    iint G phi_a phi_b and iint K_Q phi_a phi_b including Jacobians.
    """
    SB1, SQ1 = _brute_pair_raw(contour, k0, e, f, n)
    SB2, SQ2 = _brute_pair_raw(contour, k0, e, f, 2 * n)
    return (4.0 * SB2 - SB1) / 3.0, (4.0 * SQ2 - SQ1) / 3.0


def _brute_vertex_pair(contour, k0, e, f, n=512):
    """Raw pair integrals of a shared-vertex pair by midpoint grids.

    There n(x).grad_y G ~ 1/r at the vertex adds an O(h) term to the
    midpoint error, which dominates the slot where both bases peak at the
    vertex (n and 2n grids alone differ by ~1e-4 relative there).
    Extrapolating the n, 2n and 4n grids removes the h and h^2 terms.
    """
    (b1, q1), (b2, q2), (b4, q4) = (_brute_pair_raw(contour, k0, e, f, m)
                                    for m in (n, 2 * n, 4 * n))
    return (8.0 * b4 - 6.0 * b2 + b1) / 3.0, (8.0 * q4 - 6.0 * q2 + q1) / 3.0


def _distant_moments(contour, k0):
    """The distant pairs (e, f) of the kernel pass and their (3, P, 2, 2)
    moments SB, SQ(e, f) and SQ(f, e), each at the order DISTANT_ORDERS
    gives the pair."""
    e, f, n_gl = _distant_pairs(contour, k0)
    mom = np.empty((3, e.size, 2, 2), dtype=complex)
    for order in np.unique(n_gl):
        pick = n_gl == order
        mom[:, pick] = _pair_moments(contour, k0, e[pick], f[pick], order)
    return e, f, mom


def _pair_bs(contour, e, f, k0, SB):
    ttf = float(contour.tangents[e] @ contour.tangents[f])
    he, hf = contour.lengths[e], contour.lengths[f]
    s0 = SB.sum()
    sgn = (-1.0, 1.0)
    out = np.empty((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a, b] = 1j * (k0 * ttf * SB[a, b]
                              - sgn[a] * sgn[b] * s0 / (k0 * he * hf))
    return out


# --- kernel matrix structure ------------------------------------------------

def test_bs_and_b_complex_symmetric(circle32_blocks):
    # bitwise, signed zeros included: the composition reads them transposed
    for key in ("BS", "B"):
        m = circle32_blocks[key]
        assert m.tobytes() == m.T.tobytes(), key


def test_blocks_finite_and_symmetric_at_large_k0d():
    """k0*D ~ 308: one kernel call spans Hankel arguments up to ~300,
    still under the resolution guard (k0*h = 1.94); the dense path by
    name, and the mode path's first rows are finite too."""
    c = mesh_circle(1.1, 500)
    rows = assemble_blocks(c, 140.0)
    for key in ("BS", "B", "Q"):
        assert rows[key].shape == (c.n_nodes,) and \
            np.all(np.isfinite(rows[key])), key
    blocks = assemble_dense_blocks(c, 140.0)
    for key in ("BS", "B", "Q"):
        assert np.all(np.isfinite(blocks[key])), key
    for key in ("BS", "B"):
        m = blocks[key]
        assert np.array_equal(m, m.T), key


def test_circulant_on_uniform_circle():
    """The oracle of the mode path: on uniform circles of 32 and 512
    elements the dense kernel pass equals the circulant expansion of the
    first rows that assemble_blocks keeps, entry (i, j) = row[(j - i) mod
    n], within 1e-11 of the largest entry."""
    for n in (32, 512):
        c = mesh_circle(1.1, n)
        rows = assemble_blocks(c, K0)
        dense = assemble_dense_blocks(c, K0)
        for key in ("BS", "B", "Q"):
            assert rows[key].shape == (n,), key
            want = dense[key]
            err = np.max(np.abs(_circulant_dense(rows[key]) - want))
            assert err <= 1e-11 * np.max(np.abs(want)), (n, key, err)


def test_self_entry_against_high_precision_quadrature(corner, corner_mats):
    """BS[0,0] and every (a, b) slot of the element-0 self moments isolate
    the self pair; the double integral collapses to 1D moments of G,
    evaluated here with mpmath at 30 digits (tanh-sinh handles the log
    endpoint)."""
    import mpmath as mp

    with mp.workdps(30):
        h = mp.mpf("0.3")
        k = mp.mpf("3.7")

        def g(z):
            return (mp.besselj(0, z) - 1j * mp.bessely(0, z)) / (4j)

        rho00 = lambda w: 2 * (1 - w)
        c00 = lambda w: mp.mpf(2) / 3 - w + w**3 / 3  # (1-t)(1-s) density
        i_c00 = mp.quad(lambda w: g(k * h * w) * c00(w), [0, 1])
        i_r00 = mp.quad(lambda w: g(k * h * w) * rho00(w), [0, 1])
        oracle = complex(1j * (k * h**2 * i_c00 - i_r00 / k))
        # (1-t)s has the density rho00/2 - c00; (1-t)(1-s) and ts have c00
        diag = complex(h**2 * i_c00)
        off = complex(h**2 * (i_r00 / 2 - i_c00))
    got = corner_mats["BS"][0, 0]
    assert abs(got - oracle) <= 1e-12 * abs(oracle)
    slots = np.array([[diag, off], [off, diag]])
    got = _self_g_moments(K_CORNER, corner.lengths[:1])[0]
    assert np.all(np.abs(got - slots) <= 1e-12 * np.abs(slots))


def test_log_rule_refinement_converges(corner, monkeypatch):
    bs8 = _helmholtz_blocks(corner, K_CORNER)["BS"]
    monkeypatch.setattr("hoibc2d.assembly.N_LOG_SELF", 16)
    bs16 = _helmholtz_blocks(corner, K_CORNER)["BS"]
    d8 = np.diag(bs8)
    d16 = np.diag(bs16)
    assert np.max(np.abs(d16 - d8) / np.abs(d16)) <= 1e-8


def test_adjacent_pair_against_brute_force(corner, corner_mats):
    """Nodes 0 and 2 each belong to one element, so the (0,2) entries
    isolate the shared-vertex pair (e=0, f=1) and the (2,0) entries its
    mirror (1, 0), which the pass fills from the transpose and the partner
    normal; the raw moments of both are checked slot by slot as well."""
    sb, sq, sq_fe = _adjacent_moments(corner, K_CORNER)
    assert sb.shape == (1, 2, 2)
    # the pair, its nodal entry and block slot, and its raw SB and SQ
    for (e, f), (i, j), (a, b), moments in (
            ((0, 1), (0, 2), (0, 1), (sb[0], sq[0])),
            ((1, 0), (2, 0), (1, 0), (sb[0].T, sq_fe[0]))):
        SB, SQ = _brute_vertex_pair(corner, K_CORNER, e, f)
        bs_ref = _pair_bs(corner, e, f, K_CORNER, SB)
        got_bs = corner_mats["BS"][i, j]
        got_q = corner_mats["Q"][i, j]
        assert abs(got_bs - bs_ref[a, b]) <= 1e-6 * abs(bs_ref[a, b])
        assert abs(got_q - SQ[a, b]) <= 1e-6 * abs(SQ[a, b])
        ref = 1j * K_CORNER * SB[a, b]
        assert abs(corner_mats["B"][i, j] - ref) <= 1e-6 * abs(ref)
        for got, want in zip(moments, (SB, SQ)):
            assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))


def test_distant_pair_against_brute_force():
    """The nodal entries of the distant pair (e=0, f=2) and of its mirror
    (2, 0), and every slot of their raw moments, against brute force."""
    nodes = np.array([[0.0, 0.0], [0.3, 0.0], [0.55, 0.2], [0.7, 0.45]])
    c = Contour(nodes=nodes, closed=False)
    mats = _helmholtz_blocks(c, K_CORNER)
    SB, SQ = _brute_pair(c, K_CORNER, 0, 2)
    bs_ref = _pair_bs(c, 0, 2, K_CORNER, SB)
    assert abs(mats["BS"][0, 3] - bs_ref[0, 1]) <= 1e-6 * abs(bs_ref[0, 1])
    assert abs(mats["Q"][0, 3] - SQ[0, 1]) <= 1e-6 * abs(SQ[0, 1])
    ref = 1j * K_CORNER * SB[0, 1]
    assert abs(mats["B"][0, 3] - ref) <= 1e-6 * abs(ref)
    e, f, (sb, sq_ef, sq_fe) = _distant_moments(c, K_CORNER)
    assert (e.tolist(), f.tolist()) == ([0], [2])
    for got, ref in ((sb[0], SB), (sq_ef[0], SQ)):
        assert np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref))

    # the mirrored pair (e=2, f=0): node 3 is the end of element 2 only
    SB, SQ = _brute_pair(c, K_CORNER, 2, 0)
    bs_ref = _pair_bs(c, 2, 0, K_CORNER, SB)
    assert abs(mats["BS"][3, 0] - bs_ref[1, 0]) <= 1e-6 * abs(bs_ref[1, 0])
    assert abs(mats["Q"][3, 0] - SQ[1, 0]) <= 1e-6 * abs(SQ[1, 0])
    ref = 1j * K_CORNER * SB[1, 0]
    assert abs(mats["B"][3, 0] - ref) <= 1e-6 * abs(ref)
    # SB(f, e) is SB(e, f) transposed
    for got, ref in ((sb[0].T, SB), (sq_fe[0], SQ)):
        assert np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref))


@pytest.mark.parametrize("kh", [0.085, 0.2499, 0.49, 0.9999, 1.93])
def test_distant_order_table_error(kh):
    """The measurement behind DISTANT_ORDERS.  Against a 12-point rule,
    every separation class of SB, SQ and the mirrored SQ, as the distant
    pass fills them at the table's orders, errs by no more than 6 points
    do at separation 2 (the worst distant entry of a fixed 6-point rule).
    0.2499 and 0.9999 sit just inside band edges, where a band's coarsest
    orders are weakest."""
    for c in (mesh_circle(1.0, 64), mesh_plate(1.0, 64)):
        n = c.n_elements
        k0 = kh / c.lengths.max()
        e, f, got = _distant_moments(c, k0)
        sep = np.minimum(f - e, n - f + e) if c.closed else f - e
        # every pair e < f that shares no node, once
        want = set(zip(*np.triu_indices(n, 2)))
        if c.closed:
            want.remove((0, n - 1))
        assert len(e) == len(want) and set(zip(e, f)) == want
        ref = np.array(_pair_moments(c, k0, e, f, 12))
        worst = np.abs(_pair_moments(c, k0, e, f, 6) - ref)[:, sep == 2]
        err = np.abs(got - ref)
        for lo, hi in ((2, 2), (3, 4), (5, 8), (9, 16), (17, 63)):
            cls = (sep >= lo) & (sep <= hi)
            assert np.all(err[:, cls].max(axis=(1, 2, 3))
                          <= worst.max(axis=(1, 2, 3))), (c.closed, lo)


def test_q_self_entries_exact_zero(corner_mats):
    # the displacement inside a straight element is orthogonal to n
    assert corner_mats["Q"][0, 0] == 0.0
    assert corner_mats["Q"][2, 2] == 0.0


def test_plate_q_identically_zero():
    # every raw SQ moment vanishes, the partners SQ(f, e) included, not
    # only their nodal sums
    p = mesh_plate(1.0, 16)
    assert np.max(np.abs(_helmholtz_blocks(p, K0)["Q"])) == 0.0
    assert np.max(np.abs(_distant_moments(p, K0)[2][1:])) == 0.0
    assert np.max(np.abs(_adjacent_moments(p, K0)[1:])) == 0.0


def test_q_decay_envelope():
    """Scaled off-diagonal Q entries track |dG/dr| at the pair distance,
    which falls off like an inverse square root."""
    c = mesh_circle(1.0, 64)
    q = _helmholtz_blocks(c, K0)["Q"]
    mid = c.midpoints()
    r = np.hypot(*(mid - mid[0]).T)
    ndot = (mid - mid[0]) @ c.normals[0]
    h = c.lengths[0]
    js = np.arange(3, 33)
    scaled = np.abs(q[0, js]) * r[js] / (h * h * np.abs(ndot[js]))
    _, h1 = hankel2_01_real(K0 * r[js])
    ratio = scaled / np.abs(0.25 * K0 * h1)
    assert ratio.min() > 0.9 and ratio.max() < 1.05
    assert np.all(np.diff(scaled) < 0), "envelope must decrease with distance"
    flat = scaled * np.sqrt(K0 * r[js])
    assert flat.max() / flat.min() < 1.1


def _per_pair_blocks(c, k0):
    """The nodal B, B - S and Q as S A S^T, with A the broken (element,
    local node) matrices built from the raw moments of every pair, each
    evaluated on its own, and S the dense node incidence."""
    n0 = c.n_elements
    sb = np.zeros((n0, 2, n0, 2), dtype=complex)
    sq = np.zeros_like(sb)
    diag = np.arange(n0)
    sb[diag, :, diag, :] = _self_g_moments(k0, c.lengths)
    mom = np.array(_adjacent_moments(c, k0))
    e = np.arange(mom.shape[1])
    pairs = [(e, (e + 1) % n0, mom), _distant_moments(c, k0)]
    for e, f, mom in pairs:
        sb[e, :, f, :], sq[e, :, f, :], sq[f, :, e, :] = mom
        sb[f, :, e, :] = mom[0].transpose(0, 2, 1)

    sgn = np.array([-1.0, 1.0])
    ttf = c.tangents @ c.tangents.T
    deriv = sb.sum(axis=(1, 3)) / (k0 * np.outer(c.lengths, c.lengths))
    broken = {"B": 1j * k0 * sb, "Q": sq,
              "BS": 1j * (k0 * ttf[:, None, :, None] * sb
                          - np.einsum("a,b,ef->eafb", sgn, sgn, deriv))}
    inc = np.zeros((c.n_nodes, 2 * n0))
    inc[c.elements.ravel(), np.arange(2 * n0)] = 1.0
    return {key: inc @ a.reshape(2 * n0, 2 * n0) @ inc.T
            for key, a in broken.items()}


def _jittered_circle(n, seed=3):
    """A closed n-gon on the 1.1 m circle with node angles 2 pi (j + u_j)
    / n, u_j uniform in +-0.3: no two element pairs are congruent."""
    u = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    ang = 2.0 * np.pi * (np.arange(n) + u) / n
    nodes = 1.1 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Contour(nodes=nodes, closed=True)


INCIDENCE_MESHES = {
    "circle32": lambda: mesh_circle(1.0, 32),
    "plate": lambda: mesh_plate(2.0, 40),
    "relabelled-plate": lambda: _relabelled(mesh_plate(2.0, 40)),
}


@pytest.mark.parametrize("width", [1, 3, 64])
@pytest.mark.parametrize("mesh", sorted(INCIDENCE_MESHES))
def test_distant_pairs_by_band(mesh, width):
    """Consecutive slices of ``width`` pairs of the listing list every pair
    e < f with f - e >= 2 once, never the adjoining pair (0, n - 1) of a
    closed contour, in diagonal-major order (f - e, then e ascending), and
    each at the Gauss order of the whole listing; a slice past the end is
    empty."""
    c = INCIDENCE_MESHES[mesh]()
    n = c.n_elements
    e0, f0, n_gl0 = _distant_pairs(c, K0)
    order = dict(zip(zip(e0.tolist(), f0.tolist()), n_gl0.tolist()))
    seen = []
    for lo in range(0, e0.size + width, width):
        e, f, n_gl = _distant_pairs(c, K0, lo, lo + width)
        assert e.size == min(width, max(0, e0.size - lo))
        pairs = list(zip(e.tolist(), f.tolist()))
        assert n_gl.tolist() == [order[p] for p in pairs]
        seen += pairs
    want = sorted(((a, b) for a in range(n) for b in range(a + 2, n)),
                  key=lambda p: (p[1] - p[0], p[0]))
    if c.closed:
        want.remove((0, n - 1))
    assert seen == want and list(order) == want


@pytest.mark.parametrize("per_slice", [None, 64],
                         ids=["one-chunk", "chunk64"])
@pytest.mark.parametrize("mesh", sorted(INCIDENCE_MESHES))
def test_nodal_assembly_equals_incidence_product(mesh, per_slice,
                                                 monkeypatch):
    """The nodal B, B - S and Q against S A S^T, with A the broken
    (element, local node) matrices built here from the raw moments of every
    pair class and S the dense node incidence.  One slice holds every
    distant pair of these meshes; slices of 64 pairs split the pass into
    many, and each run of congruent pairs that crosses a slice boundary
    into one run per slice."""
    if per_slice is not None:
        monkeypatch.setattr("hoibc2d.assembly.PAIRS_PER_SLICE", per_slice)
    c = INCIDENCE_MESHES[mesh]()
    got = _helmholtz_blocks(c, K0)
    for key, want in _per_pair_blocks(c, K0).items():
        assert np.max(np.abs(got[key] - want)) \
            <= 1e-14 * np.max(np.abs(want)), key


_K_PLATE = 2.0 * np.pi * 6.8e9 / C0          # 30 wavelengths at 6.8 GHz
CLASS_MESHES = {
    "circle512": (lambda: mesh_circle(1.1, 512), K0, 1e-12),
    "plate384": (lambda: mesh_plate(30.0 * C0 / 6.8e9, 384), _K_PLATE, 1e-12),
    "relabelled-plate384": (
        lambda: _relabelled(mesh_plate(30.0 * C0 / 6.8e9, 384)),
        _K_PLATE, 1e-12),
    "jittered512": (lambda: _jittered_circle(512), K0, 1e-15),
}


def _counted_pass(c, k0, monkeypatch, kernel_pass=_helmholtz_blocks):
    """The kernel pass on ``c`` (by default the general one) and the
    number of distant pairs it evaluates with _pair_moments."""
    evaluated = []

    def counted(contour, k, e, f, n_gl):
        evaluated.append(e.size)
        return _pair_moments(contour, k, e, f, n_gl)

    monkeypatch.setattr("hoibc2d.assembly._pair_moments", counted)
    return kernel_pass(c, k0), sum(evaluated)


def _max_rel_error(got, want, keys):
    return {key: np.max(np.abs(got[key] - want[key]))
            / max(np.max(np.abs(want[key])), np.finfo(float).tiny)
            for key in keys}


@pytest.mark.parametrize("mesh", sorted(CLASS_MESHES))
def test_classed_pass_equals_per_pair_reference(mesh, monkeypatch):
    """One evaluation per class of congruent pairs (the pairs of a
    diagonal in a slice whose keys lie within KEY_TOL of that diagonal's
    first pair there) against every pair evaluated on its own: within
    1e-12 of the largest entry, and within 1e-15 on a jittered circle,
    where no two pairs merge.  On the regular meshes every diagonal of a
    slice is one class, so the pass evaluates exactly one pair per (slice,
    diagonal) cell: 540 on circle512, 399 on either plate384.  B and B - S
    are exactly symmetric on every mesh."""
    build, k0, bound = CLASS_MESHES[mesh]
    c = build()
    got, evaluated = _counted_pass(c, k0, monkeypatch)
    for key, err in _max_rel_error(got, _per_pair_blocks(c, k0),
                                   ("B", "BS", "Q")).items():
        assert err <= bound, (key, err)
    for key in ("B", "BS"):
        assert np.array_equal(got[key], got[key].T), key
    if not mesh.startswith("jittered"):
        e, f, _ = _distant_pairs(c, k0)
        cells = np.unique([np.arange(e.size) // PAIRS_PER_SLICE, f - e],
                          axis=1)
        assert evaluated == cells.shape[1], evaluated


def test_circle1024_evaluates_at_most_4n_distant_pairs(monkeypatch):
    """On a 1024-gon the rounding of the node coordinates stays far inside
    KEY_TOL, so each diagonal of a slice is one class: the pass evaluates
    at most 4 n of its 522,752 distant pairs."""
    c = mesh_circle(1.1, 1024)
    assert _counted_pass(c, K0, monkeypatch)[1] <= 4 * c.n_elements


def _graded_plate(n=400, length=3.0, growth=5e-13):
    """An open plate of n elements whose lengths grow by the factor
    1 + growth from each element to the next."""
    h = (1.0 + growth) ** np.arange(n)
    x = np.concatenate([[0.0], np.cumsum(h)]) * (length / h.sum())
    nodes = np.column_stack([x - 0.5 * length, np.zeros(n + 1)])
    return Contour(nodes=nodes, closed=False)


def test_classed_pass_on_graded_plate():
    """Down a diagonal of a 3 m plate graded by 5e-13 per element the keys
    drift by about that much per pair, so the pairs that leave KEY_TOL of
    their diagonal's first pair in the slice are evaluated alone: B and
    B - S stay within 1e-11 of the per-pair reference, and exactly
    symmetric."""
    c = _graded_plate()
    got = _helmholtz_blocks(c, K0)
    for key, err in _max_rel_error(got, _per_pair_blocks(c, K0),
                                   ("B", "BS")).items():
        assert err <= 1e-11, (key, err)
        assert np.array_equal(got[key], got[key].T), key


def test_kernel_pass_memory_budget():
    """The kernel pass holds B, B - S, Q and one transpose: about
    4 n^2 complex entries, plus fixed buffers for one slice of pairs.
    N = 1024 is large enough for the n^2 part to dominate; the jittered
    circle, where every pair is its own class, is the worst case of the
    slices.  The Toeplitz fill of a uniform plate adds its diagonals
    through views, and stays within the same bound."""
    for c, kernel_pass in ((mesh_circle(1.1, 1024), _helmholtz_blocks),
                           (_jittered_circle(1024), _helmholtz_blocks),
                           (mesh_plate(2.0, 1024), _toeplitz_blocks)):
        tracemalloc.start()
        try:
            kernel_pass(c, 2.0 * np.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * c.n_nodes**2 * 16, peak / (c.n_nodes**2 * 16)


def _tilted(c, turn=0.3, shift=(0.7, -1.3)):
    """The contour c turned by ``turn`` radians about the origin, then
    moved by ``shift``."""
    cos, sin = np.cos(turn), np.sin(turn)
    nodes = c.nodes @ np.array([[cos, sin], [-sin, cos]]) + shift
    return Contour(nodes=nodes, closed=c.closed)


FILL_MESHES = {
    "plate40": (lambda: mesh_plate(2.0, 40), K0),
    "plate384": CLASS_MESHES["plate384"][:2],
    "relabelled-plate384": CLASS_MESHES["relabelled-plate384"][:2],
    "tilted-plate384": (lambda: _tilted(mesh_plate(30.0 * C0 / 6.8e9, 384)),
                        _K_PLATE),
}


@pytest.mark.parametrize("mesh", sorted(FILL_MESHES))
def test_toeplitz_fill_equals_per_pair_reference(mesh, monkeypatch):
    """The Toeplitz fill of a uniform plate, from its n pairs (0, f),
    against every pair evaluated on its own: B and B - S within 1e-12 of
    their largest entry, and Q, zero on a straight chain up to rounding,
    within 1e-12 of the largest entry of B - S.  B and B - S are exactly
    symmetric.  The fill evaluates n - 2 distant pairs, where the general
    pass evaluates 399 on plate384.  assemble_blocks keeps the fill's
    matrices, and its couplings G, G2 are within 1e-12 of those of the
    general pass (assemble_dense_blocks)."""
    build, k0 = FILL_MESHES[mesh]
    c = build()
    assert _uniform_chain(c)
    got, evaluated = _counted_pass(c, k0, monkeypatch, _toeplitz_blocks)
    assert evaluated == c.n_elements - 2, evaluated
    want = _per_pair_blocks(c, k0)
    err = _max_rel_error(got, want, ("B", "BS"))
    err["Q"] = np.max(np.abs(got["Q"] - want["Q"])) / np.max(np.abs(want["BS"]))
    for key, e in err.items():
        assert e <= 1e-12, (key, e)
    for key in ("B", "BS"):
        assert np.array_equal(got[key], got[key].T), key
    if mesh == "plate384":
        assert _counted_pass(c, k0, monkeypatch)[1] == 399
    blocks = assemble_blocks(c, k0)
    for key in ("B", "BS", "Q"):
        assert np.array_equal(blocks[key], got[key]), key
    dense = assemble_dense_blocks(c, k0)
    for key, e in _max_rel_error(blocks, dense, ("G", "G2")).items():
        assert e <= 1e-12, (key, e)


def _moved_interior_node(c, shift):
    """c with its middle node moved by ``shift`` times the distance
    between its end nodes, diagonally."""
    nodes = c.nodes.copy()
    extent = np.hypot(*(nodes[-1] - nodes[0]))
    nodes[c.n_nodes // 2] += shift * extent * np.sqrt(0.5)
    return Contour(nodes=nodes, closed=c.closed)


CHAIN_DETECTOR_MESHES = {
    "plate-min": (lambda: mesh_plate(2.0, _MIN_ELEMENTS), True),
    "plate40": (lambda: mesh_plate(2.0, 40), True),
    "relabelled-plate40": (lambda: _relabelled(mesh_plate(2.0, 40)), True),
    "tilted-plate40": (lambda: _tilted(mesh_plate(2.0, 40)), True),
    "moved-1e-14": (lambda: _moved_interior_node(mesh_plate(2.0, 40), 1e-14),
                    True),
    "moved-1e-9": (lambda: _moved_interior_node(mesh_plate(2.0, 40), 1e-9),
                   False),
    "graded": (_graded_plate, False),
    "bent-arc": (lambda: Contour(nodes=[[0.0, 0.0], [0.3, 0.0], [0.5, 0.2]],
                                 closed=False), False),
    "circle32": (lambda: mesh_circle(1.0, 32), False),
    "egg": (lambda: _egg(120), False),
    "jittered128": (lambda: _jittered_circle(128), False),
}


@pytest.mark.parametrize("mesh", sorted(CHAIN_DETECTOR_MESHES))
def test_uniform_chain_detector_picks_the_fill(mesh, monkeypatch):
    """An open contour whose node k is node 0 + k step, to 1e-12 of its
    extent, takes the Toeplitz fill: every mesh_plate from _MIN_ELEMENTS
    up, numbered either way, turned and moved, and one with a node moved
    by 1e-14 of its extent.  A plate graded by 5e-13 per element, one with
    a node moved by 1e-9 of its length, a bent arc and every closed
    contour take another pass."""
    build, fill = CHAIN_DETECTOR_MESHES[mesh]
    c = build()
    assert _uniform_chain(c) is fill
    passes = []
    for name in ("_circulant_rows", "_toeplitz_blocks", "_helmholtz_blocks"):
        real = getattr(assembly, name)
        monkeypatch.setattr(assembly, name, lambda *a, real=real, name=name:
                            passes.append(name) or real(*a))
    assemble_blocks(c, K0)
    assert len(passes) == 1 and (passes[0] == "_toeplitz_blocks") is fill


# --- mass and derivative matrices -------------------------------------------

def test_mass_and_d_p1(circle32):
    bands = assemble_mass_and_d(circle32)
    assert sorted(bands) == ["D", "I1", "K"]
    m = {key: _dense(band) for key, band in bands.items()}
    h = circle32.lengths[0]
    # row sums of the P1 mass are the nodal patch half-lengths = h here
    assert np.allclose(m["I1"].sum(axis=1), h, rtol=1e-13)
    # closed contour: int phi d psi = -int psi d phi
    assert np.max(np.abs(m["D"] + m["D"].T)) == 0.0
    assert np.max(np.abs(m["D"].sum(axis=0))) == 0.0  # d/dl of partition of 1
    assert np.max(np.abs(m["K"].sum(axis=1))) <= 1e-13
    assert np.min(np.linalg.eigvalsh(m["I1"])) > 0.0


def _random_chain(rng, n):
    turn = np.cumsum(rng.uniform(-0.8, 0.8, n))
    step = rng.uniform(0.05, 0.3, n)[:, None]
    pts = np.cumsum(step * np.column_stack([np.cos(turn), np.sin(turn)]), 0)
    return Contour(nodes=np.vstack([np.zeros(2), pts]), closed=False)


def _random_polygon(rng, n):
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = rng.uniform(0.7, 1.3, n)
    return Contour(nodes=np.column_stack([r * np.cos(th), r * np.sin(th)]),
                   closed=True)


@pytest.mark.parametrize("kind", ["chain", "polygon"])
def test_local_operators_on_nonuniform_mesh(kind):
    """Each entry of I1, D and K against its defining integral, summed
    element by element with a Gauss rule that is exact for the quadratic
    integrands: I1 = int phi_i phi_j, D = int phi_i d_l phi_j,
    K = int d_l phi_i d_l phi_j.  Random element lengths catch any
    misaligned per-element length."""
    rng = np.random.default_rng(2024)
    c = _random_chain(rng, 8) if kind == "chain" else _random_polygon(rng, 40)
    n1 = c.n_nodes
    t, w = gauss_legendre_unit(3)
    ref = {key: np.zeros((n1, n1)) for key in ("I1", "D", "K")}
    for e, nodes in enumerate(c.elements):
        h = c.lengths[e]
        phi = np.stack([1.0 - t, t])             # (local, quadrature)
        dphi = np.array([-1.0, 1.0]) / h         # d_l phi, constant on e
        for a, b in np.ndindex(2, 2):
            i, j = nodes[a], nodes[b]
            ref["I1"][i, j] += h * np.sum(w * phi[a] * phi[b])
            ref["D"][i, j] += h * np.sum(w * phi[a]) * dphi[b]
            ref["K"][i, j] += h * np.sum(w) * dphi[a] * dphi[b]
    got = assemble_mass_and_d(c)
    for key, want in ref.items():
        assert np.max(np.abs(got[key] - _chain_gather(c, want))) \
            <= 1e-14 * np.max(np.abs(want))


def _chain_gather(c, mat):
    """The (nodes, 3) chain band of the n x n ``mat``: row r holds its
    entries at columns r - 1, r, r + 1, wrapping on a closed contour and 0
    past the ends of an open one."""
    n = c.n_nodes
    r = np.arange(n)[:, None] + np.array([-1, 0, 1])
    valid = c.closed | ((r >= 0) & (r < n))
    return np.where(valid, mat[np.arange(n)[:, None], r % n], 0.0)


def _scattered_local_operators(c):
    """Dense I1, D and K from the element blocks of assemble_mass_and_d
    scattered one element at a time."""
    out = {key: np.zeros((c.n_nodes,) * 2) for key in ("I1", "D", "K")}
    for h, nodes in zip(c.lengths, c.elements):
        local = {"I1": h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0,
                 "D": np.array([[-0.5, 0.5], [-0.5, 0.5]]),
                 "K": np.array([[1.0, -1.0], [-1.0, 1.0]]) / h}
        for key, m in local.items():
            out[key][np.ix_(nodes, nodes)] += m
    return out


BAND_MESHES = {"circle32": lambda: mesh_circle(1.0, 32),
               "plate40": lambda: mesh_plate(2.0, 40),
               "relabelled-plate": lambda: _relabelled(mesh_plate(2.0, 40))}


@pytest.mark.parametrize("mesh", sorted(BAND_MESHES))
def test_bands_equal_chain_gather_of_dense_scatter(mesh):
    """Each band of I1, D and K is bit for bit the band gather of a dense
    element scatter, on a loop, a plate and the plate numbered from its
    other end, and the full system's dense operator (_dense) is that
    scatter bit for bit."""
    c = BAND_MESHES[mesh]()
    bands = assemble_mass_and_d(c)
    for key, want in _scattered_local_operators(c).items():
        assert bands[key].shape == (c.n_nodes, 3), key
        assert np.array_equal(bands[key], _chain_gather(c, want)), key
        assert np.array_equal(_dense(bands[key]), want), key


def test_stored_blocks_size():
    """The dense blocks hold n x n arrays for B, B - S, Q (complex) and
    G, G2 (real) only, 4 n^2 x 16 B, and I1, D and K as (n, 3) bands: within
    4.05 n^2 x 16 B at n = 512 nodes.  No dense I1, D or K is made on the
    way either, and the banded products go by column panels, so the
    elimination peaks within 4.6 (B, B - S, Q, and G, a solve and G2 as
    three real n^2 arrays)."""
    c = mesh_circle(1.1, 512)
    tracemalloc.start()
    try:
        blocks = assemble_dense_blocks(c, K0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(blocks) == {"B", "BS", "Q", "G", "G2", "I1", "D", "K"}
    unit = c.n_nodes**2 * 16
    held = sum(v.nbytes for v in blocks.values())
    assert held <= 4.05 * unit, held / unit
    assert peak <= 4.6 * unit, peak / unit
    for key in ("I1", "D", "K"):
        assert blocks[key].shape == (c.n_nodes, 3), key


# --- right-hand sides --------------------------------------------------------

def test_rhs_cyclic_permutation(circle32):
    """Rotating the incidence by one mesh step permutes the entries."""
    n = circle32.n_elements
    r0, r1 = assemble_rhs(circle32, "TE", K0, [0.37, 0.37 + 2 * np.pi / n]).T
    scale = np.max(np.abs(r0))
    for row0, row1 in ((r0[:n], r1[:n]), (r0[n:], r1[n:])):
        assert np.max(np.abs(np.roll(row0, 1) - row1)) <= 1e-10 * scale


def test_rhs_te_tm_row_exchange(circle32):
    """The TM E-row and the TE H-row test the same scalar moment."""
    n = circle32.n_nodes
    te = assemble_rhs(circle32, "TE", K0, [1.1])
    tm = assemble_rhs(circle32, "TM", K0, [1.1])
    assert np.array_equal(te[n:], tm[:n])


def test_rhs_wave_block_columns(circle32):
    # an array of angles gives one column per unit wave, each the block of
    # that angle alone up to the summation order of the batched moments
    phis = np.linspace(0.0, 6.0, 7)
    block = assemble_rhs(circle32, "TE", K0, phis)
    assert block.shape == (2 * circle32.n_nodes, 7)
    for k, p in enumerate(phis):
        one = assemble_rhs(circle32, "TE", K0, p)
        assert one.shape == (2 * circle32.n_nodes, 1)
        assert np.max(np.abs(block[:, k] - one[:, 0])) \
            <= 1e-14 * np.max(np.abs(one))
    for pol, k0 in (("te", K0), ("TE", 0.0)):
        with pytest.raises(UsageError):
            assemble_rhs(circle32, pol, k0, phis)


@pytest.mark.parametrize("mesh", ["circle", "plate"])
def test_rhs_sums_and_series_as_scatter_and_polyval(mesh):
    """The node sum by slice adds is bitwise the scatter of each slot
    onto zeros, and the in-place Horner is bitwise np.polyval."""
    c = mesh_circle(1.1, 32) if mesh == "circle" else mesh_plate(2.0, 40)
    x = np.random.default_rng(2).standard_normal((c.n_elements, 2, 5)) \
        * (1.0 + 1.0j)
    want = np.zeros((c.n_nodes, 5), dtype=complex)
    for a in range(2):
        want[c.elements[:, a]] += x[:, a]
    assert np.array_equal(_node_sum(c, x), want)
    bb = (np.linspace(0.0, MAX_KH, 97) ** 2).reshape(-1, 1)
    for series in (_C_SERIES, _S_SERIES):
        assert np.array_equal(_horner(series, bb), np.polyval(series, bb))


# --- block systems and reduction ---------------------------------------------

TE1 = IbcCoefficients(order="IBC1", pol="TE", a0=12.0 + 3.0j, a=2.0 - 1.0j,
                      b=0.01 + 0.002j)
TM1 = IbcCoefficients(order="IBC1", pol="TM", a0=12.0 + 3.0j, a=2.0 - 1.0j,
                      b=0.01 + 0.002j)
TE2 = IbcCoefficients(order="IBC2", pol="TE", a0=12.0 + 3.0j, a=2.0 - 1.0j,
                      b=0.01 + 0.002j, ap=0.4 + 0.1j, bp=0.003 - 0.001j)
TM2 = IbcCoefficients(order="IBC2", pol="TM", a0=12.0 + 3.0j, a=2.0 - 1.0j,
                      b=0.01 + 0.002j, ap=0.4 + 0.1j, bp=0.003 - 0.001j)
TE0 = IbcCoefficients(order="IBC0", pol="TE", a0=12.0 + 3.0j)
TM0 = IbcCoefficients(order="IBC0", pol="TM", a0=12.0 + 3.0j)


def test_ibc0_full_equals_reduced(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    sys0 = build_full_system(circle32, TE0, w, blocks=circle32_blocks)
    n2 = 2 * circle32.n_nodes
    assert sys0.full_matrix.shape == (n2, n2)
    reduce_system(sys0)
    assert np.array_equal(sys0.reduced_matrix, sys0.full_matrix)


def test_ibc1_block_sparsity(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    sys1 = build_full_system(circle32, TE1, w, blocks=circle32_blocks)
    n = circle32.n_nodes
    A = sys1.full_matrix
    blk = lambda i, j: A[i * n:(i + 1) * n, j * n:(j + 1) * n]
    assert np.all(blk(2, 1) == 0.0)  # X mass row sees J only
    assert np.all(blk(2, 3) == 0.0)
    assert np.all(blk(3, 0) == 0.0)  # Y mass row sees M only
    assert np.all(blk(3, 2) == 0.0)
    assert np.any(blk(2, 0) != 0.0) and np.any(blk(3, 3) != 0.0)


def _full_solution(system):
    """The constrained full system solved by LU, split by ``system.sizes``
    into J, M and the auxiliary fields (X, Y at IBC1; X, Y, X', Y' at IBC2)."""
    x = solve(lu_factor(system.full_matrix), system.rhs)
    return np.split(x, np.cumsum(system.sizes)[:-1])


def test_auxiliary_row_identities(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.4)
    sys1 = build_full_system(circle32, TE1, w, blocks=circle32_blocks)
    j, m, x, y = _full_solution(sys1)
    i1, d = (_dense(circle32_blocks[key]) for key in ("I1", "D"))
    x_ref = np.linalg.solve(i1, d @ j)
    y_ref = np.linalg.solve(i1, d @ m)
    scale = max(np.max(np.abs(x_ref)), np.max(np.abs(y_ref)))
    assert np.max(np.abs(x - x_ref)) <= 1e-10 * scale
    assert np.max(np.abs(y - y_ref)) <= 1e-10 * scale


@pytest.mark.parametrize("coeffs,pol", [(TE1, "TE"), (TM1, "TM"),
                                        (TE2, "TE"), (TM2, "TM")])
def test_full_vs_reduced_currents(circle32, circle32_blocks, coeffs, pol):
    w = IncidentWave(pol=pol, k0=K0, phi_inc=0.7)
    full = build_full_system(circle32, coeffs, w, blocks=circle32_blocks)
    red = build_reduced_system(circle32, coeffs, w, blocks=circle32_blocks)
    jf, mf, *_ = _full_solution(full)
    sr = solve_currents(red)
    for uf, ur in ((jf, sr.J), (mf, sr.M)):
        assert np.max(np.abs(uf - ur)) <= 1e-8 * np.max(np.abs(ur))


def _relabelled(c):
    """The contour c with its nodes numbered from the other end, so that
    it runs the other way round: a loop turns clockwise, and a plate of
    mesh_plate becomes that plate turned by 180 degrees about the origin,
    node i onto node i."""
    return Contour(nodes=c.nodes[::-1], closed=c.closed)


def _moved_node_plate():
    """mesh_plate(2.0, 40) with its middle node moved by 1e-3 of its
    length: not a uniform chain, so its reduced matrix is dense."""
    return _moved_interior_node(mesh_plate(2.0, 40), 1e-3)


def _mirror_halves(a):
    """The even and odd halves of a 2n x 2n matrix a = P a P, P reversing
    the n nodes within J and within M, by explicit products: a times the
    even basis vectors e_k + e_(n-1-k) (a middle node's e_m alone) and the
    odd ones e_k - e_(n-1-k), read on the rows of the nodes k of J and of
    M.  The oracle of a MirrorPair."""
    n = a.shape[0] // 2
    halves = []
    for h, sign in (((n + 1) // 2, 1.0), (n // 2, -1.0)):
        k = np.arange(h)
        basis = np.zeros((n, h))
        basis[k, k] = 1.0
        basis[n - 1 - k[:n // 2], k[:n // 2]] = sign
        rows = np.concatenate([k, n + k])
        halves.append((a @ np.kron(np.eye(2), basis))[rows])
    return halves


def _reduced_pairs(mat, dense):
    """(got, want) array pairs of a reduced matrix ``mat`` and the dense
    2n x 2n matrix it stands for: the two, or on a uniform chain each half
    of the MirrorPair and the same half of ``dense``."""
    if isinstance(mat, MirrorPair):
        return list(zip((mat.even, mat.odd), _mirror_halves(dense)))
    return [(mat, dense)]


SCHUR_MESHES = {"circle32": lambda: mesh_circle(1.0, 32),
                "plate": lambda: mesh_plate(2.0, 40),
                "moved-node-plate": _moved_node_plate,
                "relabelled": lambda: _relabelled(mesh_circle(1.0, 32))}


@pytest.mark.parametrize("coeffs,pol,mesh", [
    pytest.param(TE1, "TE", "circle32", id="coeffs0-TE"),
    pytest.param(TM2, "TM", "circle32", id="coeffs1-TM"),
    pytest.param(TM2, "TM", "plate", id="plate-p1-TM2"),
    pytest.param(TM2, "TM", "moved-node-plate",
                 id="moved-node-plate-p1-TM2"),
    pytest.param(TE2, "TE", "relabelled", id="relabelled-p1-TE2"),
])
def test_reduced_equals_schur_complement(coeffs, pol, mesh):
    """The banded elimination against the dense Schur complement, on every
    band shape: cyclic and pinned-end P1 mass, on loops turning either
    way.  A uniform plate's mirror halves are checked against the same
    halves of the Schur complement."""
    c = SCHUR_MESHES[mesh]()
    blocks = assemble_dense_blocks(c, K0)
    w = IncidentWave(pol=pol, k0=K0, phi_inc=0.7)
    full = reduce_system(build_full_system(c, coeffs, w, blocks))
    direct = build_reduced_system(c, coeffs, w, blocks)
    assert isinstance(direct.reduced_matrix, MirrorPair) is (mesh == "plate")
    scale = np.max(np.abs(full.reduced_matrix))
    for got, want in _reduced_pairs(direct.reduced_matrix,
                                    full.reduced_matrix):
        assert np.max(np.abs(want - got)) <= 1e-12 * scale
    assert np.allclose(full.reduced_rhs, direct.reduced_rhs, rtol=0,
                       atol=1e-12 * np.max(np.abs(direct.reduced_rhs)))


def _composed_by_copies(c, coeffs, wave, blocks, pins):
    """The reduced matrix as the composition before in-place writing built
    it: four new order-0 arrays, the couplings G and G2 made complex and
    added by BLAS axpy, the blocks copied into A, then the J and M pins."""
    sc = _scaled_coefficients(coeffs, wave.k0)
    a0, n1 = sc["a0"], c.n_nodes
    te = wave.pol == "TE"
    bs, b, i1 = blocks["BS"], blocks["B"], _dense(blocks["I1"])
    q = blocks["Q"].astype(complex)
    if te:
        parts = Z0 * bs + 0.5 * a0 * i1, q, -q.T, b / Z0 + i1 / (2.0 * a0)
    else:
        parts = Z0 * b + 0.5 * a0 * i1, q.T, -q, bs / Z0 + i1 / (2.0 * a0)
    order = int(coeffs.order[-1])
    if order >= 1:
        g, g2 = _eliminated_blocks(c, blocks)
        g2 = g2 if order == 2 else None
        sy = 1.0 if te else -1.0
        s = (0.5, 0.5 * sy, 0.5 * sy / a0, 0.5 / a0)
        first, second = (sc["a"], sc["b"]) * 2, (sc["ap"], sc["bp"]) * 2
    A = np.empty((2 * n1, 2 * n1), dtype=complex)
    for k, m in enumerate(parts):
        m = np.ascontiguousarray(m)
        if order >= 1:
            blas.zaxpy(g.astype(complex).ravel(), m.ravel(), a=s[k] * first[k])
            if g2 is not None:
                blas.zaxpy(g2.astype(complex).ravel(), m.ravel(),
                           a=-s[k] * second[k])
        r, col = divmod(k, 2)
        A[r * n1:(r + 1) * n1, col * n1:(col + 1) * n1] = m
    for i in pins:
        A[i, :] = 0.0
        A[:, i] = 0.0
        A[i, i] = 1.0
    return A


COMPOSE_MESHES = {"circle": lambda: mesh_circle(1.0, 32),
                  "moved-node-plate": _moved_node_plate,
                  "relabelled-plate": lambda: _relabelled(mesh_plate(2.0, 40))}


@pytest.mark.parametrize("mesh", sorted(COMPOSE_MESHES))
@pytest.mark.parametrize("coeffs", [TE0, TM0, TE1, TM1, TE2, TM2],
                         ids=lambda cf: f"{cf.pol}-{cf.order}")
def test_in_place_composition_equals_copies(coeffs, mesh):
    """The reduced matrix written in place into A's quadrants equals the
    composition by copies to 1e-15 of its largest entry: the order-0 part
    is the same arithmetic, the real G passes round like a complex axpy.
    On the uniform plate each mirror half, composed from folded blocks,
    equals the same half of that composition to 1e-15 of its largest
    entry."""
    c = COMPOSE_MESHES[mesh]()
    blocks = assemble_dense_blocks(c, K0)
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    system = build_reduced_system(c, coeffs, w, blocks)
    want = _composed_by_copies(c, coeffs, w, blocks, system.constrained)
    scale = np.max(np.abs(want))
    for got, want in _reduced_pairs(system.reduced_matrix, want):
        assert np.max(np.abs(got - want)) <= 1e-15 * scale


@pytest.fixture(scope="module")
def circle512():
    c = mesh_circle(1.1, 512)
    return c, assemble_dense_blocks(c, K0)


@pytest.mark.parametrize("coeffs,budget", [(TM0, 4.5), (TM2, 4.75)],
                         ids=["IBC0", "IBC2"])
def test_composition_memory_budget(coeffs, budget, circle512):
    """Composing the reduced 2n system allocates A (4 n^2 complex entries)
    and, from order 1, one real product (0.5); the couplings G, G2 are
    already in the blocks: within 4.5 (IBC0) and 4.75 (IBC2) n^2 x 16 B at
    n = 512 nodes."""
    c, blocks = circle512
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    tracemalloc.start()
    try:
        build_reduced_system(c, coeffs, w, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * c.n_nodes**2 * 16, peak / (c.n_nodes**2 * 16)


@pytest.mark.parametrize("coeffs,budget", [(TM0, 4.5), (TM2, 4.75)],
                         ids=["IBC0", "IBC2"])
def test_solve_memory_budget(coeffs, budget, circle512):
    """Solving adds nothing to the composition's budget: the LU takes A's
    place and the residual reads the blocks, so composing and solving stay
    within 4.5 (IBC0) and 4.75 (IBC2) n^2 x 16 B at n = 512 nodes (a copy
    of A for the LU would add 4)."""
    c, blocks = circle512
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    tracemalloc.start()
    try:
        solve_currents(build_reduced_system(c, coeffs, w, blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * c.n_nodes**2 * 16, peak / (c.n_nodes**2 * 16)


def test_solve_factors_in_place(circle32, circle32_blocks, monkeypatch):
    """A and the couplings are column-major, so that solve_currents factors
    A where it lies (f2py would copy any other layout silently): the LU
    shares A's memory, the system gives A up, and a second solve of it
    raises."""
    for key in ("G", "G2"):
        assert circle32_blocks[key].flags.f_contiguous, key
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.7)
    system = build_reduced_system(circle32, TE2, w, blocks=circle32_blocks)
    A = system.reduced_matrix
    assert A.flags.f_contiguous
    seen = []

    def recorded(matrix, overwrite_a=False):
        seen.append((matrix, lu_factor(matrix, overwrite_a=overwrite_a)))
        return seen[-1][1]

    monkeypatch.setattr("hoibc2d.analysis.lu_factor", recorded)
    solve_currents(system)
    [(matrix, fac)] = seen
    assert matrix is A and fac.lu is A
    assert system.reduced_matrix is None
    with pytest.raises(UsageError, match="consumed"):
        solve_currents(system)


@pytest.mark.parametrize("mesh", sorted(COMPOSE_MESHES))
@pytest.mark.parametrize("coeffs", [TE0, TM0, TE1, TM1, TE2, TM2],
                         ids=lambda cf: f"{cf.pol}-{cf.order}")
def test_block_residual_equals_dense(coeffs, mesh):
    """The residual's A x from the stored blocks equals the product with
    the composed A (taken before the factor) to 1e-14 of max |A x|, for an
    x nonzero at the pinned indices too, and the solve's residual equals
    the dense ||A x - b|| / ||b|| to 1e-14.  The uniform plate's solve
    goes by its mirror halves, and A is its composition by copies: the
    residual checks the split solve against the unsplit operator."""
    c = COMPOSE_MESHES[mesh]()
    blocks = assemble_dense_blocks(c, K0)
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    system = build_reduced_system(c, coeffs, w, blocks)
    if isinstance(system.reduced_matrix, MirrorPair):
        A = _composed_by_copies(c, coeffs, w, blocks, system.constrained)
    else:
        A = system.reduced_matrix.copy()
    n = A.shape[0]
    rng = np.random.default_rng(29)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pins = list(system.constrained)
    assert len(pins) == (0 if c.closed else 4) and np.all(x[pins] != 0.0)
    want = A @ x
    assert np.max(np.abs(_jm_matvec(system, x) - want)) \
        <= 1e-14 * np.max(np.abs(want))
    sol = solve_currents(system)
    u, b = np.concatenate([sol.J, sol.M]), system.reduced_rhs
    dense = np.linalg.norm(A @ u - b) / np.linalg.norm(b)
    assert abs(sol.meta["residual"] - dense) <= 1e-14


def test_elimination_once_per_mesh(monkeypatch):
    """The dense blocks eliminate the auxiliary fields once and store the
    couplings G, G2; composing every order and polarization after it reads
    them and eliminates nothing again.  The mode path eliminates nothing:
    its couplings are per-mode symbols."""
    calls = []
    eliminate = _eliminated_blocks

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr("hoibc2d.assembly._eliminated_blocks", counted)
    assemble_blocks(mesh_circle(1.0, 32), K0)
    assert calls == []
    for c, assemble in ((mesh_circle(1.0, 32), assemble_dense_blocks),
                        (_relabelled(mesh_plate(2.0, 40)), assemble_blocks)):
        calls.clear()
        blocks = assemble(c, K0)
        assert len(calls) == 1
        want = eliminate(c, blocks)
        for key, g in zip(("G", "G2"), want):
            assert np.array_equal(blocks[key], g), key
        for cf in (TE0, TM0, TE1, TM1, TE2, TM2):
            w = IncidentWave(pol=cf.pol, k0=K0, phi_inc=0.7)
            build_reduced_system(c, cf, w, blocks)
        assert len(calls) == 1


def test_reduced_system_needs_no_dense_factorization(monkeypatch):
    """The auxiliary fields are eliminated by banded solves only: with the
    dense LU disabled, every order and band shape still builds (the
    circle's dense blocks by name), a uniform plate as its two mirror
    halves."""
    cases = [(mesh_circle(1.0, 32), (TE1, TM2)),
             (_moved_node_plate(), (TM1, TE2)),
             (mesh_plate(2.0, 40), (TM1, TE2))]
    prepared = [(c, cf, assemble_dense_blocks(c, K0)) for c, cfs in cases
                for cf in cfs]

    def no_lu(*_):
        raise AssertionError("dense LU called while eliminating")

    monkeypatch.setattr("hoibc2d.assembly.lu_factor", no_lu)
    for c, cf, blocks in prepared:
        w = IncidentWave(pol=cf.pol, k0=K0, phi_inc=0.7)
        system = build_reduced_system(c, cf, w, blocks)
        mat, n1 = system.reduced_matrix, system.sizes[0]
        if _uniform_chain(c):
            parts = mat.even, mat.odd
            shapes = [(2 * ((n1 + 1) // 2),) * 2, (2 * (n1 // 2),) * 2]
        else:
            parts, shapes = (mat,), [(2 * n1, 2 * n1)]
        assert [a.shape for a in parts] == shapes
        assert all(np.all(np.isfinite(a)) for a in parts)


def test_plate_endpoint_constraints_exact():
    p = mesh_plate(2.0, 40)
    w = IncidentWave(pol="TM", k0=K0, phi_inc=np.pi / 2)
    sys1 = build_full_system(p, TM1, w)
    j, m, x, y = _full_solution(sys1)
    for vec in (j, m, x, y):
        assert vec[0] == 0.0 and vec[-1] == 0.0
    red = solve_currents(build_reduced_system(p, TM1, w, blocks=sys1.blocks))
    assert red.J[0] == 0.0 and red.J[-1] == 0.0
    assert np.max(np.abs(red.J - j)) <= 1e-8 * np.max(np.abs(j))


@pytest.mark.parametrize("coeffs", [TM0, TE1, TM2],
                         ids=lambda cf: cf.order)
def test_reduced_system_pins_only_its_own_fields(coeffs):
    """A reduced system lists the pins of its own unknowns, the end nodes
    of J and of M, at every order: not those of the eliminated auxiliary
    fields, which the full system has."""
    plate = mesh_plate(2.0, 40)
    n = plate.n_nodes
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    system = build_reduced_system(plate, coeffs, w)
    assert system.constrained == (0, n - 1, n, 2 * n - 1)


@pytest.mark.parametrize("coeffs", [TE1, TM2],
                         ids=["coeffs0-p1", "coeffs1-p1"])
def test_relabelled_plate_pins_chain_ends(coeffs):
    """The plate numbered from its other end is the plate turned by 180
    degrees, node i onto node i: its pins sit at its own end nodes, and lit
    from phi_inc + pi it solves, reduced and full, to the plate's
    currents."""
    plate = mesh_plate(2.0, 40)
    moved = _relabelled(plate)
    w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
    w_moved = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7 + np.pi)
    want = solve_currents(build_reduced_system(plate, coeffs, w))
    got = solve_currents(build_reduced_system(moved, coeffs, w_moved))
    want_full = _full_solution(build_full_system(plate, coeffs, w))
    got_full = _full_solution(build_full_system(moved, coeffs, w_moved))
    for u in (got.J, got.M, *got_full):
        assert u[0] == 0.0 and u[-1] == 0.0
    for a, b in ((got.J, want.J), (got.M, want.M),
                 (got_full[0], want_full[0]), (got_full[1], want_full[1])):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_blocks_reuse_across_orders(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    s1 = build_reduced_system(circle32, TE1, w, blocks=circle32_blocks)
    s2 = build_reduced_system(circle32, TE2, w, blocks=circle32_blocks)
    assert s1.blocks is circle32_blocks and s2.blocks is circle32_blocks
    assert np.max(np.abs(s1.reduced_matrix - s2.reduced_matrix)) > 0.0


# --- the mirror halves of a uniform plate -------------------------------------

MIRROR_MESHES = {
    "plate41": lambda: mesh_plate(2.0, 40),         # 41 nodes: a middle one
    "plate42": lambda: mesh_plate(2.0, 41),         # 42 nodes
    "relabelled": lambda: _relabelled(mesh_plate(2.0, 40)),
    "turned-moved": lambda: _tilted(mesh_plate(2.0, 40), np.deg2rad(37.0),
                                    (3.0, -1.7)),
    # 4 nodes: halves of 2, whose wrapped band entries meet only the pins
    "chain3": lambda: Contour(nodes=[[0.0, 0.0], [0.1, 0.0], [0.2, 0.0],
                                     [0.3, 0.0]], closed=False),
}
SIX_TEST = [TE0, TM0, TE1, TM1, TE2, TM2]


@pytest.fixture(scope="module", params=sorted(MIRROR_MESHES))
def mirror_mesh(request):
    c = MIRROR_MESHES[request.param]()
    return c, assemble_blocks(c, K0)


def _broadside(c):
    """The incidence angle normal to the straight chain c."""
    span = c.nodes[-1] - c.nodes[0]
    return np.arctan2(span[1], span[0]) + 0.5 * np.pi


@pytest.mark.parametrize("coeffs", SIX_TEST,
                         ids=lambda cf: f"{cf.pol}-{cf.order}")
def test_mirror_solve_matches_dense_oracle(mirror_mesh, coeffs):
    """A uniform plate, with an odd and an even node count, numbered from
    its other end, turned and moved, and as short as 3 elements, is
    composed as two mirror halves equal to those of the dense oracle,
    reduce_system(build_full_system), to 1e-12 of its largest entry, and
    solves by them to the oracle's LU
    currents within 1e-12 relative, with exact zeros at the end nodes of
    J and M and a residual of at most 1e-13: at broadside, and at
    0.7 rad, where the right-hand side has an odd part."""
    c, blocks = mirror_mesh
    n = c.n_nodes
    for phi in (_broadside(c), 0.7):
        w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=phi)
        dense = reduce_system(build_full_system(c, coeffs, w, blocks))
        want = solve(lu_factor(dense.reduced_matrix), dense.reduced_rhs)
        system = build_reduced_system(c, coeffs, w, blocks)
        assert isinstance(system.reduced_matrix, MirrorPair)
        scale = np.max(np.abs(dense.reduced_matrix))
        for got, half in _reduced_pairs(system.reduced_matrix,
                                        dense.reduced_matrix):
            assert np.max(np.abs(got - half)) <= 1e-12 * scale
        if phi == 0.7:
            b = dense.reduced_rhs.reshape(2, n)
            assert np.linalg.norm(b - b[:, ::-1]) > 0.1 * np.linalg.norm(b)
        sol = solve_currents(system)
        got = np.concatenate([sol.J, sol.M])
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (phi, err)
        for u in (sol.J, sol.M):
            assert u[0] == 0.0 and u[-1] == 0.0
        assert sol.meta["residual"] <= 1e-13, sol.meta["residual"]


def test_mirror_rcond_within_2x_of_zgecon(mirror_mesh):
    """The logged rcond of a uniform plate, min(rcond_e, rcond_o) of its
    mirror halves, lies within a factor 2 of zgecon's estimate on the
    full composed A, at all six (pol, order)."""
    c, blocks = mirror_mesh
    for coeffs in SIX_TEST:
        w = IncidentWave(pol=coeffs.pol, k0=K0, phi_inc=0.7)
        system = build_reduced_system(c, coeffs, w, blocks)
        full = _composed_by_copies(c, coeffs, w, blocks, system.constrained)
        est = lu_factor(full).rcond_estimate
        got = solve_currents(system).meta["rcond"]
        assert 0.5 * est <= got <= 2.0 * est, (coeffs.pol, coeffs.order,
                                               got, est)


def test_mirror_solve_memory_budget():
    """A uniform plate at N = 384 (TM IBC2) peaks within DENSE_PEAK x
    n^2 x 16 B of traced memory, its blocks included, and composes and
    solves within 4 n^2 x 16 B above its blocks: less than one 2n x 2n
    complex array, so it makes none (the halves hold 2)."""
    c = mesh_plate(30.0 * C0 / 6.8e9, 384)
    w = IncidentWave(pol="TM", k0=_K_PLATE, phi_inc=0.5 * np.pi)
    unit = c.n_nodes**2 * 16
    tracemalloc.start()
    try:
        blocks = assemble_blocks(c, _K_PLATE)
        base, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solve_currents(build_reduced_system(c, TM2, w, blocks))
        above = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peak, base + above) <= DENSE_PEAK * unit, \
        max(peak, base + above) / unit
    assert above < 4.0 * unit, above / unit


# --- the mode path on rotation-invariant contours -----------------------------

def _moved_node(c, shift):
    """c with node 1 moved outwards by ``shift`` times its distance from
    the centre."""
    nodes = c.nodes.copy()
    nodes[1] *= 1.0 + shift
    return Contour(nodes=nodes, closed=c.closed)


def _egg(n):
    """The non-symmetric closed egg of test_physics."""
    from test_physics import _egg as egg
    return egg(n)


DETECTOR_MESHES = {
    "circle8": (lambda: mesh_circle(1.1, 8), True),
    "circle128": (lambda: mesh_circle(1.1, 128), True),
    "circle512": (lambda: mesh_circle(1.1, 512), True),
    "circle1024": (lambda: mesh_circle(1.1, 1024), True),
    "clockwise128": (lambda: _relabelled(mesh_circle(1.1, 128)), True),
    "from-node-3": (lambda: Contour(nodes=np.roll(
        mesh_circle(1.1, 128).nodes, -3, axis=0), closed=True), True),
    "egg": (lambda: _egg(120), False),
    "plate": (lambda: mesh_plate(2.0, 40), False),
    "jittered128": (lambda: _jittered_circle(128), False),
    "moved-1e-9": (lambda: _moved_node(mesh_circle(1.1, 128), 1e-9), False),
}


@pytest.mark.parametrize("mesh", sorted(DETECTOR_MESHES))
def test_rotation_detector_picks_the_path(mesh):
    """A closed contour whose node k is node 0 turned by +-2 pi k / n takes
    the mode path (first rows, no couplings); anything else, a node moved
    by 1e-9 of the radius included, the dense one.  A circle listed from
    node 3 is still such a rotation of its node 0."""
    build, modes = DETECTOR_MESHES[mesh]
    c = build()
    assert (_rotation_sense(c) != 0) is modes
    if c.n_elements > 200:
        return                  # the dense kernel pass is checked elsewhere
    blocks = assemble_blocks(c, 1.0)
    if modes:
        assert set(blocks) == {"B", "BS", "Q", "I1", "D", "K"}
        assert blocks["B"].shape == (c.n_nodes,)
    else:
        assert blocks["G"].shape == (c.n_nodes,) * 2


CEILING_MESHES = {
    "circle": (lambda: mesh_circle(1.1, 64), "_circulant_rows"),
    "plate": (lambda: mesh_plate(2.0, 40), "_toeplitz_blocks"),
    "graded-plate": (lambda: _graded_plate(40, growth=1e-3),
                     "_helmholtz_blocks"),
}


@pytest.mark.parametrize("mesh", sorted(CEILING_MESHES))
def test_element_ceiling_at_the_edge(mesh, monkeypatch):
    """A contour whose solve is predicted to peak at exactly the memory
    the process may use is assembled; one byte less is refused with
    MeshError before any kernel pass: the mode path's rows, a uniform
    plate's Toeplitz fill or the general pass.  The prediction is
    MODE_PEAK_BYTES per node on the mode path and DENSE_PEAK x n^2 x 16 B
    on the dense one; the memory reading is patched, nothing large is
    allocated."""
    build, kernel_pass = CEILING_MESHES[mesh]
    c = build()
    n = c.n_nodes
    peak = MODE_PEAK_BYTES * n if mesh == "circle" else DENSE_PEAK * 16 * n * n
    assert _available_memory() > 0
    passes = []
    for name in ("_circulant_rows", "_toeplitz_blocks", "_helmholtz_blocks"):
        real = getattr(assembly, name)
        monkeypatch.setattr(assembly, name, lambda *a, real=real, name=name:
                            passes.append(name) or real(*a))
    monkeypatch.setattr(assembly, "_available_memory", lambda: peak - 1)
    with pytest.raises(MeshError, match=f"{c.n_elements} elements"):
        assemble_blocks(c, K0)
    assert passes == []
    monkeypatch.setattr(assembly, "_available_memory", lambda: peak)
    assemble_blocks(c, K0)
    assert passes == [kernel_pass]


ORACLE_MESHES = {
    "circle128": lambda: mesh_circle(1.1, 128),
    "circle512": lambda: mesh_circle(1.1, 512),
    "circle1024": lambda: mesh_circle(1.1, 1024),
    "clockwise128": lambda: _relabelled(mesh_circle(1.1, 128)),
    "from-node-3": lambda: Contour(nodes=np.roll(
        mesh_circle(1.1, 128).nodes, -3, axis=0), closed=True),
}
CYL_COAT = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)
SIX = [(pol, order) for pol in ("TE", "TM") for order in ("IBC0", "IBC1",
                                                          "IBC2")]


@pytest.mark.parametrize("mesh", sorted(ORACLE_MESHES))
def test_mode_path_matches_dense_oracle(mesh, monkeypatch):
    """The per-mode solve against the dense LU of the dense blocks (by
    name), at all six (pol, order) of the coated cylinder: currents within
    1e-10 relative and echo widths within 1e-9 dB on a 1 degree grid.  The
    mode path calls no LU."""
    c = ORACLE_MESHES[mesh]()
    rows = assemble_blocks(c, K0)
    dense = assemble_dense_blocks(c, K0)
    angles = np.arange(0.0, 360.0, 1.0)
    for pol, order in SIX:
        cf = fit_coefficients(CYL_COAT, pol, K0, order, method="pade")
        w = IncidentWave(pol=pol, k0=K0, phi_inc=0.3)
        want, want_sol = solve_and_pattern(c, cf, w, angles, blocks=dense)
        with monkeypatch.context() as m:
            m.setattr("hoibc2d.analysis.lu_factor", None)
            got, got_sol = solve_and_pattern(c, cf, w, angles, blocks=rows)
        x, ref = (np.concatenate([s.J, s.M]) for s in (got_sol, want_sol))
        err = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10, (pol, order, err)
        assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-9, (pol, order)


def test_mode_rcond_and_residual():
    """On circle-128 at all six (pol, order) the exact 1-norm rcond of the
    mode path is at most the dense LU's zgecon estimate (which bounds
    ||A^-1|| from below) and within 10x of it, and the residual's symbol
    matvec equals the dense reduced matrix (the Schur complement of the
    expanded full system on the same rows) times x to 1e-12."""
    c = mesh_circle(1.1, 128)
    rows = assemble_blocks(c, K0)
    dense = assemble_dense_blocks(c, K0)
    x = [1.0, 1j] @ np.random.default_rng(31).standard_normal((2, 256))
    for pol, order in SIX:
        cf = fit_coefficients(CYL_COAT, pol, K0, order, method="pade")
        w = IncidentWave(pol=pol, k0=K0, phi_inc=0.3)
        sol = solve_currents(build_reduced_system(c, cf, w, blocks=rows))
        est = lu_factor(build_reduced_system(c, cf, w, blocks=dense)
                        .reduced_matrix).rcond_estimate
        exact = sol.meta["rcond"]
        assert exact <= est * (1.0 + 1e-9) and est <= 10.0 * exact, \
            (pol, order, exact, est)
        assert sol.meta["residual"] <= 1e-13
        system = build_reduced_system(c, cf, w, blocks=rows)
        a = reduce_system(build_full_system(c, cf, w, blocks=rows))
        want = a.reduced_matrix @ x
        assert np.max(np.abs(apply_modes(system.reduced_matrix, x) - want)) \
            <= 1e-12 * np.max(np.abs(want)), (pol, order)


def test_zero_mode_symbol_raises(monkeypatch):
    """A mode whose 2 x 2 determinant is exactly 0, or not finite, is a
    SingularMatrixError naming the mode (exit code 3), with no NaN and no
    numpy warning on the way (warnings are errors in this suite)."""
    c = mesh_circle(1.1, 32)
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.3)
    symbols = _mode_symbols
    for bad in (0.0, np.nan, np.inf):
        def broken(blocks, table):
            out = symbols(blocks, table)
            out[5, 0] = bad         # a zero row, or a non-finite one
            return out

        monkeypatch.setattr("hoibc2d.assembly._mode_symbols", broken)
        system = build_reduced_system(c, TE1, w)
        with pytest.raises(SingularMatrixError, match="mode 5") as err:
            solve_currents(system)
        assert err.value.exit_code == 3


def test_mode_path_builds_its_symbols_once(monkeypatch):
    """A mode-path solve builds the per-mode symbols once, with the reduced
    system: the factor and the residual both read them from the
    BlockCirculant."""
    calls = []
    symbols = _mode_symbols

    def counted(*args):
        calls.append(args)
        return symbols(*args)

    monkeypatch.setattr("hoibc2d.assembly._mode_symbols", counted)
    c = mesh_circle(1.1, 64)
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.3)
    sol = solve_currents(build_reduced_system(c, TE2, w))
    assert len(calls) == 1
    assert sol.meta["residual"] <= 1e-13


def test_mode_path_memory_budget():
    """Kernel rows, symbols and a solve on circle-1024 stay under 0.5 n^2
    x 16 B of traced memory: no n x n array is made."""
    c = mesh_circle(1.1, 1024)
    w = IncidentWave(pol="TM", k0=K0, phi_inc=0.7)
    tracemalloc.start()
    try:
        blocks = assemble_blocks(c, K0)
        solve_currents(build_reduced_system(c, TM2, w, blocks=blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * c.n_nodes**2 * 16, peak / (c.n_nodes**2 * 16)


def test_band_dot_by_panels_is_columnwise():
    """Column k of a banded product of a matrix wider than BAND_PANEL is
    bitwise the product of column k alone, in either memory order, and
    the n x n product stays within 1.1 n^2 x 8 B of traced memory (the
    product and panels of 32 columns) at n = 1024."""
    rng = np.random.default_rng(5)
    n = 1024
    band = rng.standard_normal((n, 3))
    x = rng.standard_normal((n, n))
    fx = np.asfortranarray(x)
    for mat in (x, fx):
        got = _band_dot(band, mat)
        for k in range(n):
            assert np.array_equal(got[:, k], _band_dot(band, mat[:, k])), k
    tracemalloc.start()
    try:
        _band_dot(band, fx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 8, peak / (n * n * 8)


# --- guards and metadata ------------------------------------------------------

def test_resolution_guard_names_element():
    c = mesh_circle(1.0, 8)
    with pytest.raises(MeshError, match=r"element \d+"):
        _helmholtz_blocks(c, 20.0)


def test_wave_validation():
    with pytest.raises(UsageError):
        IncidentWave(pol="TEM", k0=K0, phi_inc=0.0)
    with pytest.raises(UsageError):
        IncidentWave(pol="TE", k0=0.0, phi_inc=0.0)
    with pytest.raises(UsageError):
        IncidentWave(pol="TE", k0=-1.0, phi_inc=0.0)


def test_polarization_mismatch_guard(circle32):
    w = IncidentWave(pol="TM", k0=K0, phi_inc=0.0)
    with pytest.raises(UsageError):
        build_full_system(circle32, TE1, w)


def test_system_meta(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.25)
    sys1 = build_reduced_system(circle32, TE1, w, blocks=circle32_blocks)
    meta = sys1.meta
    assert meta["pol"] == "TE" and meta["order"] == "IBC1"
    assert meta["k0"] == K0 and meta["mode"] == "p1"
    assert meta["a0"] == TE1.a0
    scaled = meta["coefficients_scaled"]
    # reactance-convention inputs are rotated onto the physical impedance
    assert scaled["a0"] == 1j * TE1.a0
    assert scaled["a"] == 1j * TE1.a / K0**2
    assert scaled["b"] == TE1.b / K0**2
    assert scaled["bp"] == 0.0
    sol = solve_currents(sys1)
    assert 0.0 < sol.meta["rcond"] <= 1.0
    assert sol.meta["residual"] < 1e-12


# --- property: Galerkin symmetry on arbitrary chains --------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(0.15, 0.5)),
                min_size=2, max_size=5))
def test_bs_symmetry_property(turns):
    """B and B-S are complex-symmetric on any open chain: the kernel is
    symmetric in x <-> y and Galerkin testing preserves that."""
    pts = [np.zeros(2)]
    angle = 0.0
    for dang, step in turns:
        angle += dang
        pts.append(pts[-1] + step * np.array([np.cos(angle), np.sin(angle)]))
    nodes = np.array(pts)
    c = Contour(nodes=nodes, closed=False)
    mats = _helmholtz_blocks(c, 2.0)
    for key in ("BS", "B"):
        m = mats[key]
        assert np.array_equal(m, m.T), key
