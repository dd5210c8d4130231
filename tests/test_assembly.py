"""Assembly tests: kernel matrices, block systems, reductions.

Reference values come from independent routes: a 30-digit adaptive
quadrature of the 1D self-element reduction, dense midpoint tensor
quadrature for off-diagonal element pairs, and structural identities
(complex symmetry, circulant structure on uniform circles, partition
of unity, exact zero blocks) that the discretization must satisfy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoibc2d.assembly import (
    IncidentWave,
    _helmholtz_blocks,
    _plain_kernels,
    assemble_b,
    assemble_blocks,
    assemble_bs,
    assemble_mass_and_d,
    assemble_q,
    assemble_rhs,
    build_full_system,
    build_reduced_system,
    dump_matrix,
    load_matrix,
    reduce_system,
    solve_currents,
)
from hoibc2d.errors import MeshError, UsageError
from hoibc2d.geometry import Contour, mesh_circle, mesh_plate
from hoibc2d.impedance import IbcCoefficients
from hoibc2d.specfun import hankel2_01_real

K0 = 2.0 * np.pi  # 1 m circle at ~300 MHz


# --- shared geometries ------------------------------------------------------

@pytest.fixture(scope="module")
def circle32():
    return mesh_circle(1.0, 32)


@pytest.fixture(scope="module")
def circle32_blocks(circle32):
    return assemble_blocks(circle32, K0)


@pytest.fixture(scope="module")
def corner():
    # two elements meeting at a 130-degree interior angle
    th = np.deg2rad(50.0)
    nodes = np.array([
        [0.0, 0.0],
        [0.3, 0.0],
        [0.3 + 0.25 * np.cos(th), 0.25 * np.sin(th)],
    ])
    return Contour(nodes=nodes, elements=np.array([[0, 1], [1, 2]]),
                   closed=False)


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
    for key in ("BS_p1", "B_p0"):
        m = circle32_blocks[key]
        assert np.max(np.abs(m - m.T)) <= 1e-10 * np.max(np.abs(m))


def test_blocks_finite_and_symmetric_at_large_k0d():
    """k0*D ~ 308: one kernel call spans Hankel arguments up to ~300,
    still under the resolution guard (k0*h = 1.94)."""
    blocks = assemble_blocks(mesh_circle(1.1, 500), 140.0)
    for key in ("BS_p1", "B_p0", "Q"):
        assert np.all(np.isfinite(blocks[key])), key
    for key in ("BS_p1", "B_p0"):
        m = blocks[key]
        assert np.max(np.abs(m - m.T)) <= 1e-13 * np.max(np.abs(m)), key


def test_circulant_on_uniform_circle(circle32_blocks):
    """Uniform circle: entries depend only on the index difference."""
    for key in ("BS_p1", "B_p0", "Q"):
        m = circle32_blocks[key]
        scale = np.max(np.abs(m))
        for i in range(1, m.shape[0]):
            assert np.max(np.abs(np.roll(m[0], i) - m[i])) <= 1e-10 * scale


def test_self_entry_against_high_precision_quadrature(corner, corner_mats):
    """BS[0,0] isolates the element-0 self pair; the double integral
    collapses to 1D moments of G, evaluated here with mpmath at 30
    digits (tanh-sinh handles the log endpoint)."""
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
    got = corner_mats["BS"][0, 0]
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_log_rule_refinement_converges(corner):
    bs8 = assemble_bs(corner, K_CORNER, n_log=8)
    bs16 = assemble_bs(corner, K_CORNER, n_log=16)
    d8 = np.diag(bs8)
    d16 = np.diag(bs16)
    assert np.max(np.abs(d16 - d8) / np.abs(d16)) <= 1e-8


def test_adjacent_pair_against_brute_force(corner, corner_mats):
    """Nodes 0 and 2 each belong to one element, so the (0,2) entries
    isolate the shared-vertex pair (e=0, f=1)."""
    SB, SQ = _brute_pair(corner, K_CORNER, 0, 1)
    bs_ref = _pair_bs(corner, 0, 1, K_CORNER, SB)
    got_bs = corner_mats["BS"][0, 2]
    got_q = corner_mats["Q"][0, 2]
    assert abs(got_bs - bs_ref[0, 1]) <= 1e-6 * abs(bs_ref[0, 1])
    assert abs(got_q - SQ[0, 1]) <= 1e-6 * abs(SQ[0, 1])

    q_p0 = _helmholtz_blocks(corner, K_CORNER, "P0_elementwise")["Q"]
    ref = SQ[0, 0] + SQ[0, 1]  # elementwise-constant trial
    assert abs(q_p0[0, 1] - ref) <= 1e-6 * abs(ref)


def test_distant_pair_against_brute_force():
    nodes = np.array([[0.0, 0.0], [0.3, 0.0], [0.55, 0.2], [0.7, 0.45]])
    c = Contour(nodes=nodes, elements=np.array([[0, 1], [1, 2], [2, 3]]),
                closed=False)
    mats = _helmholtz_blocks(c, K_CORNER)
    SB, SQ = _brute_pair(c, K_CORNER, 0, 2)
    bs_ref = _pair_bs(c, 0, 2, K_CORNER, SB)
    assert abs(mats["BS"][0, 3] - bs_ref[0, 1]) <= 1e-6 * abs(bs_ref[0, 1])
    assert abs(mats["Q"][0, 3] - SQ[0, 1]) <= 1e-6 * abs(SQ[0, 1])


def test_q_self_entries_exact_zero(corner_mats):
    # the displacement inside a straight element is orthogonal to n
    assert corner_mats["Q"][0, 0] == 0.0
    assert corner_mats["Q"][2, 2] == 0.0


def test_plate_q_identically_zero():
    p = mesh_plate(1.0, 16)
    assert np.max(np.abs(assemble_q(p, K0, trial_space="P1_nodal"))) == 0.0
    assert np.max(np.abs(assemble_q(p, K0))) == 0.0


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


# --- mass and derivative matrices -------------------------------------------

def test_mass_and_d_p1(circle32):
    m = assemble_mass_and_d(circle32, "p1")
    h = circle32.lengths[0]
    # row sums of the P1 mass are the nodal patch half-lengths = h here
    assert np.allclose(m["I1"].sum(axis=1), h, rtol=1e-13)
    assert np.array_equal(m["D1"], m["D3"])
    assert np.array_equal(m["D1"], m["D5"])
    # closed contour: int phi d psi = -int psi d phi
    assert np.max(np.abs(m["D1"] + m["D1"].T)) == 0.0
    assert np.max(np.abs(m["D5"].sum(axis=0))) == 0.0  # d/dl of partition of 1
    assert np.max(np.abs(m["K_p1"].sum(axis=1))) <= 1e-13
    assert np.min(np.linalg.eigvalsh(m["I1"])) > 0.0
    lumped = assemble_mass_and_d(circle32, "p1", lump=True)
    assert np.array_equal(lumped["I2"], np.diag(m["I1"].sum(axis=1)))
    assert np.array_equal(lumped["I1"], m["I1"])  # lumping touches I2 only


def test_mass_and_d_p0(circle32):
    m = assemble_mass_and_d(circle32, "p0")
    assert np.array_equal(m["I2"], np.diag(circle32.lengths))
    assert np.array_equal(m["D1"], -m["D5"].T)
    assert np.max(np.abs(m["D5"].sum(axis=0))) == 0.0
    assert np.max(np.abs(m["D3"] + m["D3"].T)) == 0.0


def test_mass_and_d_p0_open_boundary_terms():
    p = mesh_plate(1.0, 10)
    m = assemble_mass_and_d(p, "p0")
    n0 = p.n_elements
    # integration by parts leaves [phi psi] end contributions
    d1_interior = -m["D5"].T.copy()
    d1_interior[p.elements[0, 0], 0] += -1.0
    d1_interior[p.elements[-1, 1], n0 - 1] += 1.0
    assert np.array_equal(m["D1"], d1_interior)
    assert m["D3"][0, 0] == -0.5 and m["D3"][n0 - 1, n0 - 1] == 0.5
    assert np.max(np.abs(np.diag(m["D3"])[1:-1])) == 0.0

    with pytest.raises(UsageError):
        assemble_mass_and_d(p, "p2")


# --- right-hand sides --------------------------------------------------------

def test_rhs_zero_amplitude(circle32):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.2, amplitude=0.0)
    assert np.all(assemble_rhs(circle32, w) == 0.0)


def test_rhs_amplitude_linearity(circle32):
    w1 = IncidentWave(pol="TM", k0=K0, phi_inc=0.2)
    w2 = IncidentWave(pol="TM", k0=K0, phi_inc=0.2, amplitude=2.0 - 1.0j)
    r1 = assemble_rhs(circle32, w1)
    r2 = assemble_rhs(circle32, w2)
    assert np.allclose(r2, (2.0 - 1.0j) * r1, rtol=0, atol=1e-14 * np.max(np.abs(r1)))


def test_rhs_cyclic_permutation(circle32):
    """Rotating the incidence by one mesh step permutes the entries."""
    n = circle32.n_elements
    w0 = IncidentWave(pol="TE", k0=K0, phi_inc=0.37)
    w1 = IncidentWave(pol="TE", k0=K0, phi_inc=0.37 + 2 * np.pi / n)
    r0 = assemble_rhs(circle32, w0)
    r1 = assemble_rhs(circle32, w1)
    scale = np.max(np.abs(r0))
    for row0, row1 in ((r0[:n], r1[:n]), (r0[n:], r1[n:])):
        assert np.max(np.abs(np.roll(row0, 1) - row1)) <= 1e-10 * scale


def test_rhs_te_tm_row_exchange(circle32):
    """The TM E-row and the TE H-row test the same scalar moment."""
    n = circle32.n_nodes
    te = assemble_rhs(circle32, IncidentWave(pol="TE", k0=K0, phi_inc=1.1))
    tm = assemble_rhs(circle32, IncidentWave(pol="TM", k0=K0, phi_inc=1.1))
    assert np.array_equal(te[n:], tm[:n])


@pytest.mark.parametrize("space", ["P1_nodal", "P0_elementwise"])
def test_rhs_wave_block_columns(circle32, space):
    # a sequence of waves gives one column per wave, each its single-wave
    # vector up to the summation order of the batched moments
    waves = [IncidentWave(pol="TE", k0=K0, phi_inc=p, amplitude=1.0 + 0.3j * p)
             for p in np.linspace(0.0, 6.0, 7)]
    block = assemble_rhs(circle32, waves, space)
    assert block.shape == (2 * circle32.n_nodes if space == "P1_nodal"
                           else circle32.n_nodes + circle32.n_elements, 7)
    for k, w in enumerate(waves):
        one = assemble_rhs(circle32, w, space)
        assert np.max(np.abs(block[:, k] - one)) <= 1e-14 * np.max(np.abs(one))
    with pytest.raises(UsageError, match="sharing"):
        assemble_rhs(circle32, waves + [IncidentWave(pol="TM", k0=K0,
                                                     phi_inc=0.0)])
    with pytest.raises(UsageError, match="sharing"):
        assemble_rhs(circle32, [])


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


def test_auxiliary_row_identities(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.4)
    sys1 = build_full_system(circle32, TE1, w, blocks=circle32_blocks)
    sol = solve_currents(sys1, use="full")
    i2, d5 = circle32_blocks["I2"], circle32_blocks["D5"]
    x_ref = np.linalg.solve(i2, d5 @ sol.J)
    y_ref = np.linalg.solve(i2, d5 @ sol.M)
    scale = max(np.max(np.abs(x_ref)), np.max(np.abs(y_ref)))
    assert np.max(np.abs(sol.X - x_ref)) <= 1e-10 * scale
    assert np.max(np.abs(sol.Y - y_ref)) <= 1e-10 * scale


@pytest.mark.parametrize("coeffs,pol", [(TE1, "TE"), (TM1, "TM"),
                                        (TE2, "TE"), (TM2, "TM")])
def test_full_vs_reduced_currents(circle32, circle32_blocks, coeffs, pol):
    w = IncidentWave(pol=pol, k0=K0, phi_inc=0.7)
    full = build_full_system(circle32, coeffs, w, blocks=circle32_blocks)
    red = build_reduced_system(circle32, coeffs, w, blocks=circle32_blocks)
    sf = solve_currents(full, use="full")
    sr = solve_currents(red, use="reduced")
    for uf, ur in ((sf.J, sr.J), (sf.M, sr.M)):
        assert np.max(np.abs(uf - ur)) <= 1e-8 * np.max(np.abs(ur))


@pytest.mark.parametrize("coeffs,pol", [(TE1, "TE"), (TM2, "TM")])
def test_reduced_equals_schur_complement(circle32, circle32_blocks, coeffs, pol):
    w = IncidentWave(pol=pol, k0=K0, phi_inc=0.7)
    full = reduce_system(
        build_full_system(circle32, coeffs, w, blocks=circle32_blocks))
    direct = build_reduced_system(circle32, coeffs, w, blocks=circle32_blocks)
    scale = np.max(np.abs(full.reduced_matrix))
    assert np.max(np.abs(full.reduced_matrix - direct.reduced_matrix)) \
        <= 1e-12 * scale
    assert np.allclose(full.reduced_rhs, direct.reduced_rhs, rtol=0,
                       atol=1e-12 * np.max(np.abs(direct.reduced_rhs)))


def test_plate_endpoint_constraints_exact():
    p = mesh_plate(2.0, 40)
    w = IncidentWave(pol="TM", k0=K0, phi_inc=np.pi / 2)
    sys1 = build_full_system(p, TM1, w)
    sol = solve_currents(sys1, use="full")
    for vec in (sol.J, sol.M, sol.X, sol.Y):
        assert vec[0] == 0.0 and vec[-1] == 0.0
    red = solve_currents(build_reduced_system(p, TM1, w, blocks=sys1.blocks))
    assert red.J[0] == 0.0 and red.J[-1] == 0.0
    assert np.max(np.abs(red.J - sol.J)) <= 1e-8 * np.max(np.abs(sol.J))


def test_p0_mode_reduction_consistency():
    c = mesh_circle(1.0, 24)
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.3)
    full = build_full_system(c, TE1, w, mode="p0")
    assert full.sizes == (c.n_nodes, c.n_elements, c.n_elements, c.n_elements)
    red = build_reduced_system(c, TE1, w, mode="p0", blocks=full.blocks)
    sf = solve_currents(full, use="full")
    sr = solve_currents(red)
    assert np.max(np.abs(sf.J - sr.J)) <= 1e-8 * np.max(np.abs(sr.J))
    assert np.max(np.abs(sf.M - sr.M)) <= 1e-8 * np.max(np.abs(sr.M))


def test_p0_mode_guards(circle32):
    with pytest.raises(UsageError):
        build_full_system(circle32, TM1,
                          IncidentWave(pol="TM", k0=K0, phi_inc=0.0),
                          mode="p0")
    with pytest.raises(UsageError):
        build_full_system(circle32, TE2,
                          IncidentWave(pol="TE", k0=K0, phi_inc=0.0),
                          mode="p0")


def test_p0_open_contour():
    p = mesh_plate(2.0, 30)
    w = IncidentWave(pol="TE", k0=K0, phi_inc=np.pi / 3)
    sol = solve_currents(build_full_system(p, TE1, w, mode="p0"), use="full")
    assert sol.J[0] == 0.0 and sol.J[-1] == 0.0
    assert sol.J.size == p.n_nodes and sol.M.size == p.n_elements


def test_lumped_mass_option():
    c = mesh_circle(1.0, 32)
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    cons = build_reduced_system(c, TE1, w)
    lump = build_reduced_system(c, TE1, w, lump_mass=True)
    assert np.max(np.abs(cons.reduced_matrix - lump.reduced_matrix)) > 0.0
    j32c = solve_currents(cons).J
    j32l = solve_currents(lump).J
    d32 = np.max(np.abs(j32c - j32l)) / np.max(np.abs(j32c))
    assert d32 < 0.01
    c64 = mesh_circle(1.0, 64)
    j64c = solve_currents(build_reduced_system(c64, TE1, w)).J
    j64l = solve_currents(build_reduced_system(c64, TE1, w, lump_mass=True)).J
    d64 = np.max(np.abs(j64c - j64l)) / np.max(np.abs(j64c))
    assert d64 < 0.5 * d32  # second-order agreement under refinement


def test_blocks_reuse_across_orders(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    s1 = build_reduced_system(circle32, TE1, w, blocks=circle32_blocks)
    s2 = build_reduced_system(circle32, TE2, w, blocks=circle32_blocks)
    assert s1.blocks is circle32_blocks and s2.blocks is circle32_blocks
    assert np.max(np.abs(s1.reduced_matrix - s2.reduced_matrix)) > 0.0


# --- guards and metadata ------------------------------------------------------

def test_resolution_guard_names_element():
    c = mesh_circle(1.0, 8)
    with pytest.raises(MeshError, match=r"element \d+"):
        assemble_bs(c, 20.0)


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
    assert sol.meta["solved_form"] == "reduced"


def test_unknown_solve_target(circle32, circle32_blocks):
    w = IncidentWave(pol="TE", k0=K0, phi_inc=0.25)
    sys1 = build_reduced_system(circle32, TE1, w, blocks=circle32_blocks)
    with pytest.raises(UsageError):
        solve_currents(sys1, use="qr")
    with pytest.raises(UsageError):
        solve_currents(sys1, use="full")  # never assembled here


def test_incident_wave_field_values():
    w = IncidentWave(pol="TE", k0=2.0, phi_inc=0.0, amplitude=3.0j)
    assert w.field(np.zeros(2)) == 3.0j
    # quarter wavelength along the propagation direction: phase -pi/2
    val = w.field(np.array([np.pi / 4, 0.0]))
    assert abs(val - 3.0j * np.exp(-0.5j * np.pi)) < 1e-15


# --- dump/load ---------------------------------------------------------------

def test_matrix_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "block.bin"
    dump_matrix(path, m, meta={"name": "test", "k0": 2.0})
    back, sidecar = load_matrix(path)
    assert np.array_equal(back, m)
    assert sidecar["rows"] == 5 and sidecar["cols"] == 3
    assert sidecar["layout"] == "row-major"
    assert sidecar["meta"]["name"] == "test"
    first = (path.read_bytes(), (tmp_path / "block.bin.json").read_bytes())
    dump_matrix(path, m, meta={"name": "test", "k0": 2.0})
    assert (path.read_bytes(),
            (tmp_path / "block.bin.json").read_bytes()) == first


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
    elems = np.column_stack([np.arange(len(pts) - 1), np.arange(1, len(pts))])
    c = Contour(nodes=nodes, elements=elems, closed=False)
    mats = _helmholtz_blocks(c, 2.0)
    for key in ("BS", "B_p1"):
        m = mats[key]
        assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))
