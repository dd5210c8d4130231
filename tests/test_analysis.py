"""Far fields, echo widths, cylinder series, and solver-vs-series gates.

The modal series are validated through their own physics (optical
theorem, degeneration to the bare conductor, truncation stability).
The boundary-element pipeline is then compared against the
impedance-cylinder series, which solves the *identical* boundary
condition by separation of variables -- that comparison isolates
discretization error from impedance-model error and adjudicates every
sign in the assembly, right-hand side, and far-field chain at once.
"""

import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from hoibc2d import analysis
from hoibc2d.analysis import (
    SWEEP_CHUNK,
    RcsPattern,
    SeriesSolutionSpec,
    _pec_modes,
    _reciprocal_amplitude,
    compare_rcs,
    cylinder_modes,
    echo_width,
    far_field,
    impedance_cylinder_modes,
    monostatic_sweep,
    optical_theorem_residual,
    rcs_csv_text,
    scattered_field,
    series_coated_cylinder,
    series_impedance_cylinder,
    series_pec_cylinder,
    solve_and_pattern,
)
from hoibc2d.assembly import (MAX_KH, IncidentWave, SurfaceCurrents,
                              assemble_blocks, assemble_rhs)
from hoibc2d.errors import (MeshError, RangeError, TruncationError,
                            UsageError, ValidationError)
from hoibc2d.geometry import Contour, mesh_circle, mesh_plate
from hoibc2d.impedance import CoatingSpec, fit_coefficients
from hoibc2d.specfun import C0, Z0, gauss_legendre_unit

K0 = 2.0 * np.pi                      # 1 m wavelength
DEG = np.arange(0.0, 360.0, 1.0)
COAT = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)   # thick lossy cylinder coating
B = 1.1                                    # its outer radius for a = 1 m


# --- shared geometry and currents -------------------------------------------

@pytest.fixture(scope="module")
def circle128():
    return mesh_circle(B, 128)


@pytest.fixture(scope="module")
def blocks128(circle128):
    return assemble_blocks(circle128, K0)


@pytest.fixture(scope="module")
def circle96():
    return mesh_circle(1.0, 96)


@pytest.fixture(scope="module")
def smooth_currents(circle96):
    # any smooth current pair defines layer potentials; no solve needed
    th = np.arctan2(circle96.nodes[:, 1], circle96.nodes[:, 0])
    j = np.cos(th) + 0.3j * np.sin(2.0 * th)
    m = 0.5 - 0.2j * np.cos(th)
    return SurfaceCurrents(J=j, M=m)


# --- far field ---------------------------------------------------------------

def test_far_field_zero_currents(circle96):
    cur = SurfaceCurrents(J=np.zeros(96, complex), M=np.zeros(96, complex))
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    ff = far_field(cur, circle96, wave, [0.0, 45.0, 180.0])
    assert np.all(ff.values == 0.0)


def test_far_field_linearity(circle96):
    rng = np.random.default_rng(7)
    c1 = SurfaceCurrents(J=rng.standard_normal(96) + 1j * rng.standard_normal(96),
                         M=rng.standard_normal(96) + 1j * rng.standard_normal(96))
    c2 = SurfaceCurrents(J=rng.standard_normal(96) + 1j * rng.standard_normal(96),
                         M=rng.standard_normal(96) + 1j * rng.standard_normal(96))
    al, be = 0.7 - 0.2j, -1.1 + 0.4j
    mix = SurfaceCurrents(J=al * c1.J + be * c2.J, M=al * c1.M + be * c2.M)
    wave = IncidentWave(pol="TM", k0=K0, phi_inc=0.0)
    ang = [0.0, 33.0, 90.0, 200.0]
    f1 = far_field(c1, circle96, wave, ang).values
    f2 = far_field(c2, circle96, wave, ang).values
    fm = far_field(mix, circle96, wave, ang).values
    assert np.max(np.abs(fm - (al * f1 + be * f2))) <= 1e-12 * np.max(np.abs(fm))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_far_field_near_field_extrapolation(circle96, smooth_currents, pol):
    # The exact-kernel potential at a large radius, rescaled by
    # sqrt(r) e^{+ikr}, must reproduce the asymptotic amplitude.  The
    # radius keeps k0*r inside the Hankel working range; the next
    # asymptotic correction ~ 1/(8 k0 r) is below the tolerance.
    wave = IncidentWave(pol=pol, k0=K0, phi_inc=0.0)
    ang = np.array([0.0, 37.0, 90.0, 180.0, 271.0])
    ff = far_field(smooth_currents, circle96, wave, ang)
    r = 8.0e3 / K0
    pts = r * np.column_stack([np.cos(np.deg2rad(ang)), np.sin(np.deg2rad(ang))])
    u = scattered_field(smooth_currents, circle96, wave, pts)
    f_est = u * np.sqrt(r) * np.exp(1j * K0 * r)
    assert np.max(np.abs(f_est - ff.values)) <= 1e-4 * np.max(np.abs(ff.values))


def test_far_field_meta_and_mode_guards(circle96, smooth_currents):
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    ff = far_field(smooth_currents, circle96, wave, [10.0])
    assert "geometry" in ff.meta
    bad = SurfaceCurrents(J=np.zeros(95, complex), M=np.zeros(96, complex))
    with pytest.raises(UsageError, match="95"):
        far_field(bad, circle96, wave, [0.0])
    # an elementwise M (one value per element of an open plate) is refused
    # whatever its meta claims: both currents are nodal
    plate = mesh_plate(2.0, 40)
    elementwise = SurfaceCurrents(J=np.zeros(41, complex),
                                  M=np.zeros(40, complex), meta={"mode": "p0"})
    with pytest.raises(UsageError, match=r"\(40,\)"):
        far_field(elementwise, plate, wave, [0.0])
    # one current per call: a block of columns is not a current
    cols = SurfaceCurrents(J=np.zeros((96, 2), complex),
                           M=np.zeros(96, complex))
    with pytest.raises(UsageError, match=r"\(96, 2\)"):
        far_field(cols, circle96, wave, [0.0, 10.0])


# --- plane-wave traces against quadrature ------------------------------------
#
# The rhs and the far field share closed-form element moments; the
# references below integrate the same traces by 16-point Gauss-Legendre,
# which is exact to rounding on elements up to k0 h = 2.

TRACE_MESHES = {"circle": lambda: mesh_circle(1.0, 32),
                "plate": lambda: mesh_plate(2.0, 40)}
TRACE_POLS = ("TE", "TM")


def _gauss_rhs(contour, pol, k0, phis, n_gl=16):
    """[E-row; H-row] of the unit waves by n_gl-point Gauss-Legendre."""
    x, w = gauss_legendre_unit(n_gl)
    dirs = np.array([np.cos(phis), np.sin(phis)])
    u = np.exp(-1j * k0 * (contour.points(x) @ dirs))
    mom = np.einsum("aq,eqk,eq->eak", np.stack([1.0 - x, x]), u,
                    w * contour.lengths[:, None])
    dn = (contour.normals @ dirs)[:, None, :]
    sg = contour.sigma
    if pol == "TE":
        e_vals, h_vals = sg * Z0 * dn * mom, sg * mom
    else:
        e_vals, h_vals = sg * mom, -(sg / Z0) * dn * mom
    n1 = contour.n_nodes
    rhs = np.zeros((2 * n1, len(phis)), dtype=complex)
    for a in range(2):
        np.add.at(rhs, contour.elements[:, a], e_vals[:, a])
        np.add.at(rhs, n1 + contour.elements[:, a], h_vals[:, a])
    return rhs


def _gauss_far_field(contour, currents, pol, k0, angles, n_gl=16):
    """F of the layer densities against exp(i k0 x_hat.x), n_gl-point
    Gauss-Legendre on every element."""
    x, w = gauss_legendre_unit(n_gl)
    el = contour.elements

    def trace(v):
        return v[el[:, 0], None] * (1.0 - x) + v[el[:, 1], None] * x

    jv, mv = trace(currents.J), trace(currents.M)
    xhat = np.column_stack([np.cos(np.deg2rad(angles)),
                            np.sin(np.deg2rad(angles))])
    phase = np.exp(1j * k0 * (contour.points(x) @ xhat.T))   # (E, q, A)
    ndot = (contour.normals @ xhat.T)[:, None, :]
    sg = contour.sigma
    if pol == "TE":
        dens = -(sg * ndot * jv[..., None] + mv[..., None] / Z0)
    else:
        dens = sg * ndot * mv[..., None] - Z0 * jv[..., None]
    pref = 0.25 * k0 * np.sqrt(2.0 / (np.pi * k0)) * np.exp(0.25j * np.pi)
    return pref * np.einsum("eqa,eqa,eq->a", dens, phase,
                            w * contour.lengths[:, None])


def _random_currents(contour, seed=5):
    rng = np.random.default_rng(seed)
    n = contour.n_nodes
    return SurfaceCurrents(
        J=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        M=rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("kh", [0.085, 0.49, 1.0, 1.99])
@pytest.mark.parametrize("mesh", sorted(TRACE_MESHES))
def test_plane_wave_traces_against_gauss(mesh, kh):
    c = TRACE_MESHES[mesh]()
    k0 = kh / np.max(c.lengths)
    phis = np.linspace(0.1, 0.1 + 2.0 * np.pi, 12, endpoint=False)
    angles = np.arange(0.0, 360.0, 7.5)
    for pol in TRACE_POLS:
        want = _gauss_rhs(c, pol, k0, phis)
        got = assemble_rhs(c, pol, k0, phis)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        cur = _random_currents(c)
        want = _gauss_far_field(c, cur, pol, k0, angles)
        got = far_field(cur, c, IncidentWave(pol=pol, k0=k0, phi_inc=0.4),
                        angles).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mesh", sorted(TRACE_MESHES))
def test_plane_wave_traces_range_edge(mesh):
    """The closed-form moments hold below k0 h = MAX_KH and refuse the
    first frequency at it."""
    c = TRACE_MESHES[mesh]()
    k0 = MAX_KH / np.max(c.lengths)
    assert np.max(k0 * c.lengths) >= MAX_KH
    for pol in TRACE_POLS:
        wave = IncidentWave(pol=pol, k0=k0, phi_inc=0.3)
        with pytest.raises(MeshError, match=r"k0\*h"):
            assemble_rhs(c, pol, k0, [0.3])
        with pytest.raises(MeshError, match=r"k0\*h"):
            far_field(_random_currents(c), c, wave, [0.0, 90.0])


def _moved_node_plate(plate=None):
    """``plate`` (mesh_plate(2.0, 40) by default) with interior node 7 moved
    along it by 0.1%: no longer a uniform chain, so its far field takes the
    block path."""
    nodes = (mesh_plate(2.0, 40) if plate is None else plate).nodes.copy()
    nodes[7] *= 1.001
    return Contour(nodes=nodes, closed=False)


def _relabelled_plate():
    """mesh_plate(2.0, 40) with node 7 moved (:func:`_moved_node_plate`)
    and its nodes numbered from the other end: the plate turned by 180
    degrees, its normals along -y."""
    return Contour(nodes=_moved_node_plate().nodes[::-1], closed=False)


def _moved_node_circle():
    """mesh_circle(1.0, 32) with node 1 moved out by 0.1%: no rotation
    symmetry, so its far field takes the block path."""
    nodes = mesh_circle(1.0, 32).nodes.copy()
    nodes[1] *= 1.001
    return Contour(nodes=nodes, closed=True)


# block-path far fields ("circle" is a 32-gon with one node moved, the
# plate has one node moved too)
FF_MESHES = {"circle": _moved_node_circle,
             "relabelled-plate": _relabelled_plate}


@pytest.mark.parametrize("chunk", [None, 7], ids=["SWEEP_CHUNK", "chunk-7"])
@pytest.mark.parametrize("pol", TRACE_POLS)
@pytest.mark.parametrize("mesh", sorted(FF_MESHES))
def test_far_field_blocks_equal_one_block(mesh, pol, chunk, monkeypatch):
    """The far field in angle blocks is bitwise the one-block reciprocity
    product, for a full block plus a partial one and for blocks of 7."""
    c = FF_MESHES[mesh]()
    cur = _random_currents(c)
    angles = np.arange(SWEEP_CHUNK + 44) * (360.0 / (SWEEP_CHUNK + 44))
    rhs = assemble_rhs(c, pol, K0, np.deg2rad(angles) + np.pi)
    want = _reciprocal_amplitude(c, pol, K0, rhs,
                                 np.concatenate([cur.J, cur.M]))
    if chunk is not None:
        monkeypatch.setattr("hoibc2d.analysis.SWEEP_CHUNK", chunk)
    got = far_field(cur, c, IncidentWave(pol=pol, k0=K0, phi_inc=0.3),
                    angles).values
    assert np.array_equal(got, want)


# --- far field of a rotation-invariant contour, by modes ----------------------
#
# The oracle is the block path: the unit-wave block of assemble_rhs dotted
# with the currents (_reciprocal_amplitude).

def _block_far_field(c, cur, pol, k0, angles):
    rhs = assemble_rhs(c, pol, k0, np.deg2rad(angles) + np.pi)
    return _reciprocal_amplitude(c, pol, k0, rhs,
                                 np.concatenate([cur.J, cur.M]))


def _circle128_nodes():
    return mesh_circle(B, 128).nodes


MODE_FF_MESHES = {
    # (contour, k0): N = 8 at k0 h = 1.98, and k0 rho = 290 at N = 1024
    "circle8": (lambda: mesh_circle(1.0, 8),
                1.98 / (2.0 * np.sin(np.pi / 8))),
    "circle128": (lambda: mesh_circle(B, 128), K0),
    "circle512": (lambda: mesh_circle(B, 512), K0),
    "circle1024": (lambda: mesh_circle(1.0, 1024), 290.0),
    "clockwise": (lambda: Contour(nodes=_circle128_nodes()[::-1],
                                  closed=True), K0),
    "from-node-3": (lambda: Contour(nodes=np.roll(_circle128_nodes(), -3,
                                                  axis=0), closed=True), K0),
    "shifted": (lambda: Contour(nodes=_circle128_nodes() + [3.0, -1.7],
                                closed=True), K0),
}


def _check_block_oracle(c, k0, monkeypatch):
    """The far field of random currents on ``c`` at 360 angles, made with
    assemble_rhs out of reach, agrees with the block product to 1e-12 of
    max |F| at TE and TM."""
    cur = _random_currents(c)
    angles = np.arange(360) * 1.0
    want = {pol: _block_far_field(c, cur, pol, k0, angles)
            for pol in TRACE_POLS}
    monkeypatch.setattr("hoibc2d.analysis.assemble_rhs", None)
    for pol in TRACE_POLS:
        got = far_field(cur, c, IncidentWave(pol=pol, k0=k0, phi_inc=0.3),
                        angles).values
        err = np.max(np.abs(got - want[pol]))
        assert err <= 1e-12 * np.max(np.abs(want[pol])), (pol, err)


def _check_angle_by_angle(c, k0, pol, monkeypatch):
    """An angle's far field on ``c`` is bitwise the same whatever other
    angles share the call: alone, in another order, in blocks of 7."""
    cur = _random_currents(c)
    wave = IncidentWave(pol=pol, k0=k0, phi_inc=0.3)
    angles = np.arange(SWEEP_CHUNK + 44) * (360.0 / (SWEEP_CHUNK + 44))
    want = far_field(cur, c, wave, angles).values
    order = np.random.default_rng(3).permutation(angles.size)
    assert np.array_equal(far_field(cur, c, wave, angles[order]).values,
                          want[order])
    for k in (0, 17, angles.size - 1):
        assert far_field(cur, c, wave, angles[k:k + 1]).values[0] == want[k]
    monkeypatch.setattr("hoibc2d.analysis.SWEEP_CHUNK", 7)
    assert np.array_equal(far_field(cur, c, wave, angles).values, want)


@pytest.mark.parametrize("mesh", sorted(MODE_FF_MESHES))
def test_mode_far_field_matches_block_oracle(mesh, monkeypatch):
    """On a rotation-invariant contour the far field is a mode sum, not
    the unit-wave block, and it agrees with the block product."""
    build, k0 = MODE_FF_MESHES[mesh]
    _check_block_oracle(build(), k0, monkeypatch)


@pytest.mark.parametrize("pol", TRACE_POLS)
def test_mode_far_field_angle_by_angle(pol, monkeypatch):
    """On the mode path an angle's far field is its own."""
    _check_angle_by_angle(mesh_circle(B, 128), K0, pol, monkeypatch)


def test_mode_far_field_refuses_a_failing_tail(monkeypatch):
    """Too few modes leave a tail above FF_TAIL_TOL: TruncationError, not a
    truncated answer."""
    c = mesh_circle(B, 128)
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    far_field(_random_currents(c), c, wave, [0.0, 90.0])
    monkeypatch.setattr("hoibc2d.analysis._mode_count", lambda z: 3)
    with pytest.raises(TruncationError, match="tail"):
        far_field(_random_currents(c), c, wave, [0.0, 90.0])


# --- far field of a uniform plate, by Horner over the nodes ------------------
#
# The oracle is the block path again (_block_far_field).

_K_PLATE = 2.0 * np.pi * 6.8e9 / C0          # 30 wavelengths at 6.8 GHz


def _plate_large():
    return mesh_plate(30.0 * C0 / 6.8e9, 384)


def _turned_plate():
    """mesh_plate(2.0, 40) turned by 37 degrees and moved off the origin."""
    t = np.deg2rad(37.0)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return Contour(nodes=mesh_plate(2.0, 40).nodes @ rot.T + [3.0, -1.7],
                   closed=False)


CHAIN_FF_MESHES = {
    # (contour, k0): mesh_plate(2.0, 8) and (2.0, 40) have h = 0.25 and
    # 0.05; plate2048 bounds Horner's rounding at plate-large's k0 h
    "plate8-kh0.085": (lambda: mesh_plate(2.0, 8), 0.085 / 0.25),
    "plate8-kh1.99": (lambda: mesh_plate(2.0, 8), 1.99 / 0.25),
    "plate40-kh0.085": (lambda: mesh_plate(2.0, 40), 0.085 / 0.05),
    "plate40-kh1.99": (lambda: mesh_plate(2.0, 40), 1.99 / 0.05),
    "plate-large": (_plate_large, _K_PLATE),
    "plate2048": (lambda: mesh_plate(160.0, 2048), K0),
    "relabelled": (lambda: Contour(nodes=mesh_plate(2.0, 40).nodes[::-1],
                                   closed=False), 1.0 / 0.05),
    "turned-moved": (_turned_plate, 1.0 / 0.05),
}


@pytest.mark.parametrize("mesh", sorted(CHAIN_FF_MESHES))
def test_chain_far_field_matches_block_oracle(mesh, monkeypatch):
    """On a uniform plate the far field is a Horner sum over the nodes, not
    the unit-wave block, and it agrees with the block product."""
    build, k0 = CHAIN_FF_MESHES[mesh]
    _check_block_oracle(build(), k0, monkeypatch)


@pytest.mark.parametrize("pol", TRACE_POLS)
def test_chain_far_field_angle_by_angle(pol, monkeypatch):
    """On a uniform plate an angle's far field is its own."""
    _check_angle_by_angle(_plate_large(), _K_PLATE, pol, monkeypatch)


# contour and its assemble_rhs calls for a far field at 360 angles
PATH_MESHES = {"circle": (lambda: mesh_circle(1.0, 32), 0),
               "plate": (lambda: mesh_plate(2.0, 40), 0),
               "moved-node-plate": (_moved_node_plate, 2)}


@pytest.mark.parametrize("mesh", sorted(PATH_MESHES))
def test_far_field_path_by_contour(mesh, monkeypatch):
    """Only a contour that is neither rotation-invariant nor a uniform
    chain takes its far field through assemble_rhs, one block per
    SWEEP_CHUNK angles."""
    build, want = PATH_MESHES[mesh]
    c = build()
    calls = []
    rhs = analysis.assemble_rhs

    def counted(*args, **kwargs):
        calls.append(args)
        return rhs(*args, **kwargs)

    monkeypatch.setattr("hoibc2d.analysis.assemble_rhs", counted)
    far_field(_random_currents(c), c,
              IncidentWave(pol="TM", k0=K0, phi_inc=0.0), DEG)
    assert len(calls) == want


def _far_field_peak(c, count):
    """tracemalloc peak of one TM far field of random currents on ``c`` at
    ``count`` angles."""
    cur = _random_currents(c)
    wave = IncidentWave(pol="TM", k0=K0, phi_inc=0.5 * np.pi)
    tracemalloc.start()
    try:
        far_field(cur, c, wave, np.arange(count) * (360.0 / count))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_far_field_memory_budget():
    """One block-path far field of a 30-wavelength plate (one node moved)
    at 1440 angles stays within twelve complex (elements, angles) arrays of
    traced memory, and its peak does not grow with the angle count: 8 x
    SWEEP_CHUNK angles peak within 1.1 x the peak of SWEEP_CHUNK angles.
    On the uniform plate the Horner path holds eight complex values per
    node, 32 per angle of a chunk and 64 B per angle of the call (the
    angles, their phases and the output)."""
    c = _moved_node_plate(mesh_plate(30.0, 384))
    peaks = {count: _far_field_peak(c, count)
             for count in (1440, SWEEP_CHUNK, 8 * SWEEP_CHUNK)}
    assert peaks[1440] <= 12 * c.n_elements * 1440 * 16
    assert peaks[8 * SWEEP_CHUNK] <= 1.1 * peaks[SWEEP_CHUNK], peaks
    c = mesh_plate(30.0, 384)
    for count in (SWEEP_CHUNK, 8 * SWEEP_CHUNK):
        peak = _far_field_peak(c, count)
        assert peak <= 16 * (8 * c.n_nodes + 32 * SWEEP_CHUNK) + 64 * count, \
            (count, peak)


def test_sweep_memory_budget(te_ibc1):
    """An angle sweep holds one rhs block at a time: on a 30-wavelength
    plate its peak at 8 x SWEEP_CHUNK angles stays within 1.02 x its peak
    at SWEEP_CHUNK angles."""
    c = mesh_plate(30.0, 384)
    peaks = {}
    for count in (SWEEP_CHUNK, 8 * SWEEP_CHUNK):
        tracemalloc.start()
        try:
            monostatic_sweep(c, te_ibc1, np.arange(count) * (360.0 / count),
                             kind="angle", k0=K0)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * SWEEP_CHUNK] <= 1.02 * peaks[SWEEP_CHUNK], peaks


# --- echo width --------------------------------------------------------------

def test_echo_width_db_conversion(circle96, smooth_currents):
    wave = IncidentWave(pol="TM", k0=K0, phi_inc=0.0)
    ff = far_field(smooth_currents, circle96, wave, DEG)
    pat = echo_width(ff)
    lin = 2.0 * np.pi * np.abs(ff.values) ** 2
    assert np.allclose(10.0 ** (pat.sigma / 10.0), lin, rtol=1e-12)
    assert pat.meta["pol"] == "TM" and pat.meta["axis"] == "angle_deg"


# --- result-container validation ---------------------------------------------

def test_rcs_pattern_validation():
    with pytest.raises(ValidationError, match="increasing"):
        RcsPattern(angles=[0.0, 2.0, 1.0], sigma=[0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        RcsPattern(angles=[0.0, 1.0], sigma=[0.0, np.nan])
    with pytest.raises(ValidationError, match="1D"):
        RcsPattern(angles=[0.0, 1.0], sigma=[0.0])


def test_series_spec_validation():
    with pytest.raises(ValidationError):
        SeriesSolutionSpec(-1.0, 0.1, 4.0, 1.0, K0)
    with pytest.raises(ValidationError):
        SeriesSolutionSpec(1.0, -0.1, 4.0, 1.0, K0)
    with pytest.raises(ValidationError):
        SeriesSolutionSpec(1.0, 0.1, 4.0, 1.0, -K0)
    with pytest.raises(ValidationError, match="passive"):
        SeriesSolutionSpec(1.0, 0.1, 4.0 + 0.5j, 1.0, K0)
    with pytest.raises(ValidationError, match="minimum"):
        SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0, n_max=10)
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    assert spec.b == 1.1
    assert spec.n_max == 22   # ceil(k0 b) + 15 for this electrical size


# --- series physics ----------------------------------------------------------

def test_pec_degeneration_zero_thickness():
    for pol in ("TE", "TM"):
        spec = SeriesSolutionSpec(1.0, 0.0, 4.0 - 0.5j, 1.0, K0, n_max=22)
        assert np.array_equal(cylinder_modes(spec, pol), _pec_modes(K0, pol, 22))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_pec_degeneration_limit(pol):
    # one Richardson step in the thickness removes the O(d) term of the
    # coated interface system, leaving O(d^2) ~ 1e-9 at this step size
    d = 4e-6
    c1 = cylinder_modes(SeriesSolutionSpec(1.0, d, 4 - 0.5j, 1.0, K0, n_max=22), pol)
    c2 = cylinder_modes(SeriesSolutionSpec(1.0, 2 * d, 4 - 0.5j, 1.0, K0, n_max=22), pol)
    assert np.max(np.abs(2.0 * c1 - c2 - _pec_modes(K0, pol, 22))) <= 1e-8


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_optical_theorem_lossless(pol):
    coated = cylinder_modes(SeriesSolutionSpec(1.0, 0.05, 4.0, 1.0, K0), pol)
    assert optical_theorem_residual(coated) <= 1e-8
    assert optical_theorem_residual(_pec_modes(K0, pol, 22)) <= 1e-12
    reactive = impedance_cylinder_modes(1.0, 200j, K0, pol)
    assert optical_theorem_residual(reactive) <= 1e-8


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_optical_theorem_detects_loss(pol):
    lossy = cylinder_modes(SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0), pol)
    assert optical_theorem_residual(lossy) > 1e-2
    resistive = impedance_cylinder_modes(1.0, 200.0 + 0j, K0, pol)
    assert optical_theorem_residual(resistive) > 1e-2


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_truncation_stability(pol):
    base = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    more = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0, n_max=base.n_max + 10)
    p0 = series_coated_cylinder(base, pol, DEG)
    p1 = series_coated_cylinder(more, pol, DEG)
    assert compare_rcs(p0, p1).max_abs_dB <= 1e-10


def test_truncation_error_diagnostics():
    # 15 modes past k0*b is not enough margin at this electrical size
    with pytest.raises(TruncationError) as err:
        series_pec_cylinder(1.0, 40.0, "TE", DEG, n_max=55)
    assert err.value.diagnostics["n_max"] == 55
    assert err.value.diagnostics["tail_ratio"] > 1e-10
    series_pec_cylinder(1.0, 40.0, "TE", DEG, n_max=75)   # converged: no raise


def test_overflowing_series_is_a_truncation_error():
    # |Im k1 b| ~ 740: the coating's Bessel values overflow, and that is a
    # numerical failure, not an invalid curve; it is refused before any
    # arithmetic on them, so numpy warns of nothing
    spec = SeriesSolutionSpec(1.0, 0.1, 10.0 - 100.0j, 1.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError):
            cylinder_modes(spec, "TM")
        with pytest.raises(TruncationError):
            series_coated_cylinder(spec, "TM", DEG)


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_series_reach_order_200(pol):
    """Orders 0..200 are the documented working range of the Bessel
    arrays, and every series reads no order above its n_max: n_max = 200
    evaluates, and its first modes are bitwise those of n_max = 199."""
    def coated(n):
        return cylinder_modes(
            SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0, n_max=n), pol)

    series = {"coated": coated,
              "impedance": lambda n: impedance_cylinder_modes(
                  1.1, 100j, K0, pol, n_max=n),
              "pec": lambda n: _pec_modes(1.1 * K0, pol, n)}
    for name, modes in series.items():
        top = modes(200)
        assert top.shape == (201,) and np.all(np.isfinite(top)), name
        assert np.array_equal(top[:200], modes(199)), name
        with pytest.raises(RangeError):
            modes(201)


def _mpmath_bessel_jy(nmax, z):
    """J_0..J_nmax and Y_0..Y_nmax from 30-digit mpmath, rounded once."""
    with mp.workdps(30):
        z = mp.mpc(z)
        return (np.array([complex(mp.besselj(n, z)) for n in range(nmax + 1)]),
                np.array([complex(mp.bessely(n, z)) for n in range(nmax + 1)]))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_series_independent_of_bessel_library(pol, monkeypatch):
    """The frozen coated-cylinder curve (test_cli's pinned oracle) with
    every J and Y taken from mpmath instead of scipy moves <= 1e-12 dB."""
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    fast = series_coated_cylinder(spec, pol, DEG)
    monkeypatch.setattr("hoibc2d.analysis.bessel_jy", _mpmath_bessel_jy)
    exact = series_coated_cylinder(spec, pol, DEG)
    assert compare_rcs(fast, exact).max_abs_dB <= 1e-12


def test_series_bistatic_symmetry():
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    delta = np.arange(1.0, 180.0)
    left = series_coated_cylinder(spec, "TE", 30.0 - delta[::-1], phi_inc_deg=30.0)
    right = series_coated_cylinder(spec, "TE", 30.0 + delta, phi_inc_deg=30.0)
    lin_l = 10.0 ** (left.sigma[::-1] / 10.0)
    lin_r = 10.0 ** (right.sigma / 10.0)
    assert np.max(np.abs(lin_l - lin_r) / lin_r) <= 1e-12


def test_series_monostatic_mode():
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    mono = series_coated_cylinder(spec, "TM", [0.0, 90.0, 250.0], mode="monostatic")
    assert np.max(mono.sigma) - np.min(mono.sigma) <= 1e-12
    bi = series_coated_cylinder(spec, "TM", [180.0], mode="bistatic")
    assert abs(mono.sigma[0] - bi.sigma[0]) <= 1e-12
    with pytest.raises(UsageError, match="bistatic or monostatic"):
        series_coated_cylinder(spec, "TM", [0.0], mode="sideways")


# Regenerated reference values for the thick lossy coating (a = 1 m,
# d = 0.1 m, eps 4-0.5i at 1 m wavelength), bistatic, incidence 0 deg.
ORACLE_PINS = {
    "TE": [18.109285677358564, 3.9091284737653877, 0.7447427441144927,
           4.6860406604063956, 1.8461457988872625, 4.686040660406378,
           0.7447427441145236, 3.9091284737654117],
    "TM": [14.81940559475895, 2.713243242311021, 2.235139351088837,
           2.96946324821987, 3.250934311323249, 2.969463248219873,
           2.235139351088842, 2.7132432423110124],
}


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_series_regression_pins(pol):
    spec = SeriesSolutionSpec(1.0, 0.1, 4.0 - 0.5j, 1.0, K0)
    pat = series_coated_cylinder(spec, pol, np.arange(0.0, 360.0, 45.0))
    assert np.max(np.abs(pat.sigma - ORACLE_PINS[pol])) <= 1e-9


def test_impedance_series_guards():
    with pytest.raises(UsageError, match="TE or TM"):
        impedance_cylinder_modes(1.0, 100j, K0, "TEM")
    with pytest.raises(UsageError, match="positive"):
        impedance_cylinder_modes(-1.0, 100j, K0, "TE")
    with pytest.raises(UsageError, match="TE or TM"):
        series_pec_cylinder(1.0, K0, "te", DEG)


def test_impedance_series_scalar_vs_coefficients():
    # a fitted zeroth-order model and its physical scalar value must be
    # the same cylinder: the stored coefficient carries the reactance
    # convention, the scalar route takes the impedance verbatim
    cf = fit_coefficients(COAT, "TE", K0, "IBC0")
    a = series_impedance_cylinder(B, cf, K0, "TE", DEG)
    b = series_impedance_cylinder(B, 1j * cf.a0, K0, "TE", DEG)
    assert np.array_equal(a.sigma, b.sigma)


# --- solver versus series ----------------------------------------------------

@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_bem_matches_impedance_series_ibc0(circle128, blocks128, pol):
    cf = fit_coefficients(COAT, pol, K0, "IBC0")
    wave = IncidentWave(pol=pol, k0=K0, phi_inc=0.0)
    pat, _ = solve_and_pattern(circle128, cf, wave, DEG, blocks=blocks128)
    ser = series_impedance_cylinder(B, cf, K0, pol, DEG)
    assert compare_rcs(pat, ser).max_abs_dB <= 0.05


@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("order", ["IBC1", "IBC2"])
def test_bem_matches_impedance_series_higher_order(circle128, blocks128,
                                                   pol, order):
    # the series applies the identical rational condition mode by mode,
    # so the residual here is pure discretization error
    cf = fit_coefficients(COAT, pol, K0, order)
    wave = IncidentWave(pol=pol, k0=K0, phi_inc=0.0)
    pat, _ = solve_and_pattern(circle128, cf, wave, DEG, blocks=blocks128)
    ser = series_impedance_cylinder(B, cf, K0, pol, DEG)
    diff = compare_rcs(pat, ser)
    assert diff.max_abs_dB <= 0.15
    assert diff.mean_abs_dB <= 0.05


def test_accuracy_ordering_thin_lossy_cylinder():
    # thin highly lossy coating on a wavelength-sized core: the
    # zeroth-order model visibly degrades in TE while orders one and two
    # are an effective tie; in TM every order is already sub-0.05 dB and
    # the hierarchy is unresolved
    f = 6.8e9
    lam = C0 / f
    d = 1.5e-3
    k0 = 2.0 * np.pi / lam
    coat = CoatingSpec(10.0 - 5.0j, 1.0, d)
    mesh = mesh_circle(lam + d, 256)
    blocks = assemble_blocks(mesh, k0)
    spec = SeriesSolutionSpec(lam, d, 10.0 - 5.0j, 1.0, k0)
    means = {}
    for pol in ("TE", "TM"):
        oracle = series_coated_cylinder(spec, pol, DEG)
        wave = IncidentWave(pol=pol, k0=k0, phi_inc=0.0)
        for order in ("IBC0", "IBC1", "IBC2"):
            cf = fit_coefficients(coat, pol, k0, order)
            pat, _ = solve_and_pattern(mesh, cf, wave, DEG, blocks=blocks)
            means[pol, order] = compare_rcs(pat, oracle).mean_abs_dB
    assert means["TE", "IBC0"] > 3.0 * means["TE", "IBC1"]
    assert means["TE", "IBC2"] <= 1.05 * means["TE", "IBC1"]
    for order in ("IBC0", "IBC1", "IBC2"):
        assert means["TM", order] <= 0.05


# --- monostatic sweeps -------------------------------------------------------

@pytest.fixture(scope="module")
def te_ibc1():
    return fit_coefficients(COAT, "TE", K0, "IBC1")


@pytest.mark.parametrize("kind,pol,sweep", [
    pytest.param("circle", "TE", 1, id="circle-TE-p1-1"),
    pytest.param("circle", "TE", SWEEP_CHUNK + 44, id="circle-TE-p1-300"),
    pytest.param("plate", "TM", SWEEP_CHUNK + 44, id="plate-TM-p1-300"),
    pytest.param("plate", "TE", SWEEP_CHUNK + 44, id="plate-TE-p1-300"),
    pytest.param("plate", "TM", "frequency", id="plate-TM-p1-frequency")])
def test_monostatic_sweep_equals_bistatic(kind, pol, sweep):
    # one angle, or a full chunk of angles plus a partial one, or a few
    # frequencies, each point checked against its own bistatic solve at
    # phi_inc + 180; the plate pins its endpoints
    mesh = mesh_circle(B, 32) if kind == "circle" else mesh_plate(2.0, 32)
    cf = fit_coefficients(COAT, pol, K0, "IBC1")
    if sweep == "frequency":
        phi = 37.0
        freqs = np.array([0.8, 1.0, 1.3]) * C0
        curve = monostatic_sweep(mesh, cf, freqs, kind="frequency",
                                 phi_inc_deg=phi)
        assert curve.meta["axis"] == "freq_GHz"
        points = [(2.0 * np.pi * f / C0, phi, None) for f in freqs]
    else:
        blocks = assemble_blocks(mesh, K0)
        ang = np.linspace(37.0, 359.0, sweep)
        curve = monostatic_sweep(mesh, cf, ang, kind="angle", k0=K0)
        assert curve.meta["axis"] == "angle_deg"
        points = [(K0, phi, blocks) for phi in ang]
    for (k0, phi, blocks), sig in zip(points, curve.sigma):
        wave = IncidentWave(pol=pol, k0=k0, phi_inc=np.deg2rad(phi))
        pat, _ = solve_and_pattern(mesh, cf, wave, [phi + 180.0],
                                   blocks=blocks)
        assert abs(sig - pat.sigma[0]) <= 1e-12


def test_angle_sweep_composes_once(te_ibc1, monkeypatch):
    # the sweep's one matrix goes through build_reduced_system, the one
    # entry to the reduced system, whatever the number of angle chunks
    calls = []
    build = analysis.build_reduced_system

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr("hoibc2d.analysis.build_reduced_system", counted)
    monostatic_sweep(mesh_circle(B, 32), te_ibc1,
                     np.linspace(0.0, 359.0, SWEEP_CHUNK + 44),
                     kind="angle", k0=K0)
    assert len(calls) == 1


def test_angle_sweep_factors_in_place(te_ibc1, monkeypatch):
    # the sweep's LU takes the place of its composed matrix: no copy of A;
    # a 32-gon with one node moved has no rotation symmetry, so it takes
    # the dense path (a regular one is solved mode by mode)
    matrices, factors = [], []
    build, factor = analysis.build_reduced_system, analysis.lu_factor

    def built(*args, **kwargs):
        system = build(*args, **kwargs)
        matrices.append(system.reduced_matrix)
        return system

    def factored(*args, **kwargs):
        factors.append(factor(*args, **kwargs))
        return factors[-1]

    nodes = mesh_circle(B, 32).nodes.copy()
    nodes[1] *= 1.001
    monkeypatch.setattr("hoibc2d.analysis.build_reduced_system", built)
    monkeypatch.setattr("hoibc2d.analysis.lu_factor", factored)
    monostatic_sweep(Contour(nodes=nodes, closed=True), te_ibc1, [0.0, 90.0],
                     kind="angle", k0=K0)
    [a], [fac] = matrices, factors
    assert fac.lu is a


@pytest.mark.parametrize("plate", [mesh_plate(2.0, 40), mesh_plate(2.0, 41)],
                         ids=["nodes41", "nodes42"])
def test_uniform_plate_factors_two_halves_in_place(te_ibc1, plate,
                                                   monkeypatch):
    """A uniform plate's solve and its angle sweep each factor the two
    mirror halves, 2 ceil(n/2) and 2 floor(n/2) square, where they lie,
    through analysis.lu_factor (the name a tracer counts), and no
    2n x 2n matrix."""
    factors = []
    factor = analysis.lu_factor

    def factored(matrix, overwrite_a=False):
        factors.append((matrix, factor(matrix, overwrite_a=overwrite_a)))
        return factors[-1][1]

    monkeypatch.setattr("hoibc2d.analysis.lu_factor", factored)
    n = plate.n_nodes
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.5 * np.pi)
    solve_and_pattern(plate, te_ibc1, wave, DEG)
    monostatic_sweep(plate, te_ibc1, [0.0, 90.0], kind="angle", k0=K0)
    assert [m.shape[0] for m, _ in factors] \
        == [2 * ((n + 1) // 2), 2 * (n // 2)] * 2
    assert all(fac.lu is m for m, fac in factors)


def test_monostatic_rotational_invariance(te_ibc1):
    mesh = mesh_circle(B, 64)
    sweep = monostatic_sweep(mesh, te_ibc1, [0.0, 33.7, 90.0, 217.5],
                             kind="angle", k0=K0)
    assert np.max(sweep.sigma) - np.min(sweep.sigma) <= 1e-6


def test_bistatic_symmetry_solver(te_ibc1):
    mesh = mesh_circle(B, 64)
    wave = IncidentWave(pol="TE", k0=K0, phi_inc=0.0)
    pat, _ = solve_and_pattern(mesh, te_ibc1, wave, DEG)
    lin = 10.0 ** (pat.sigma / 10.0)
    i = np.arange(1, 180)
    assert np.max(np.abs(lin[i] - lin[360 - i]) / lin[360 - i]) <= 1e-6


def test_frequency_sweep():
    coat = CoatingSpec(10.0 - 5.0j, 1.0, 0.0015)
    mesh = mesh_circle(0.05, 32)

    def per_freq(f_hz):
        return fit_coefficients(coat, "TE", 2.0 * np.pi * f_hz / C0, "IBC1")

    sweep = monostatic_sweep(mesh, per_freq, [3.0e9, 3.5e9, 4.0e9],
                             kind="frequency")
    assert np.array_equal(sweep.angles, [3.0, 3.5, 4.0])   # axis in GHz
    assert np.all(np.isfinite(sweep.sigma))
    assert sweep.meta["axis"] == "freq_GHz"
    assert (sweep.meta["pol"], sweep.meta["ibc"]) == ("TE", "IBC1")
    # fixed coefficients label the curve with what was solved
    tm = fit_coefficients(coat, "TM", 2.0 * np.pi * 3.0e9 / C0, "IBC2")
    fixed = monostatic_sweep(mesh, tm, [3.0e9, 3.5e9], kind="frequency")
    assert (fixed.meta["pol"], fixed.meta["ibc"]) == ("TM", "IBC2")


def test_sweep_guards(circle128, te_ibc1):
    with pytest.raises(ValidationError, match="increasing"):
        monostatic_sweep(circle128, te_ibc1, [10.0, 5.0], kind="angle", k0=K0)
    with pytest.raises(ValidationError, match="at least one"):
        monostatic_sweep(circle128, te_ibc1, [], kind="angle", k0=K0)
    with pytest.raises(UsageError, match="k0"):
        monostatic_sweep(circle128, te_ibc1, [10.0], kind="angle")
    with pytest.raises(UsageError, match="angle or frequency"):
        monostatic_sweep(circle128, te_ibc1, [10.0], kind="radius", k0=K0)


# --- comparison and serialization --------------------------------------------

def test_compare_rcs_basics():
    x = RcsPattern(angles=DEG, sigma=np.sin(np.deg2rad(DEG)))
    y = RcsPattern(angles=DEG, sigma=np.cos(np.deg2rad(DEG)))
    same = compare_rcs(x, x)
    assert same.max_abs_dB == 0.0 and same.mean_abs_dB == 0.0
    ab, ba = compare_rcs(x, y), compare_rcs(y, x)
    assert ab.max_abs_dB == ba.max_abs_dB
    assert ab.fraction_within(0.5) <= ab.fraction_within(1.0) <= 1.0
    with pytest.raises(UsageError, match="grids"):
        compare_rcs(x, RcsPattern(angles=DEG[:-1], sigma=np.zeros(359)))


def test_rcs_csv_roundtrip_and_determinism():
    pat = RcsPattern(angles=[0.0, 1.0, 2.5], sigma=[1.25, -3.5, 0.1],
                     meta={"pol": "TE", "ibc": "IBC1", "axis": "angle_deg"})
    text = rcs_csv_text(pat)
    assert text == rcs_csv_text(pat)
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    assert header == sorted(header)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "angle_deg,sigma_dBm"
    for row, (a, s) in zip(body[1:], zip(pat.angles, pat.sigma)):
        xa, xs = row.split(",")
        assert float(xa) == a and float(xs) == s
