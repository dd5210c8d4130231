"""Contour construction, local frames, and mesh utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoibc2d import geometry as geo
from hoibc2d.errors import MeshError, UsageError


def test_circle_basic():
    c = geo.mesh_circle(1.0, 64)
    assert c.closed and c.n_nodes == 64 and c.n_elements == 64
    # inscribed polygon perimeter deficit below 0.2%
    assert abs(c.lengths.sum() - 2.0 * np.pi) < 0.002 * 2.0 * np.pi
    # all nodes on the circle
    assert np.allclose(np.hypot(c.nodes[:, 0], c.nodes[:, 1]), 1.0, atol=1e-14)


def test_circle_outward_normals():
    c = geo.mesh_circle(2.5, 32)
    mids = c.midpoints()
    rad = mids / np.hypot(mids[:, 0], mids[:, 1])[:, None]
    assert np.all(np.einsum("ij,ij->i", c.normals, rad) > 0.99)
    assert c.sigma == 1.0


def test_frames_orthonormal():
    for c in (geo.mesh_circle(1.0, 16), geo.mesh_plate(2.0, 10)):
        assert np.allclose(np.einsum("ij,ij->i", c.tangents, c.tangents), 1.0,
                           atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", c.normals, c.normals), 1.0,
                           atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", c.normals, c.tangents), 0.0,
                           atol=1e-14)
        cross = c.normals[:, 0] * c.tangents[:, 1] - c.normals[:, 1] * c.tangents[:, 0]
        assert np.allclose(cross, c.sigma, atol=1e-14)


def test_circle_closure_invariant():
    c = geo.mesh_circle(1.0, 48)
    closure = np.einsum("i,ij->j", c.lengths, c.tangents)
    assert np.linalg.norm(closure) < 1e-12 * c.lengths.sum()


def test_circle_nested_refinement():
    coarse = geo.mesh_circle(1.3, 32)
    fine = geo.mesh_circle(1.3, 64)
    assert np.allclose(fine.nodes[::2], coarse.nodes, atol=1e-15)


def test_circle_clockwise_nodes_still_outward():
    # a hand-built clockwise loop: builder-independent orientation handling
    ccw = geo.mesh_circle(1.0, 16)
    cw = geo.Contour(nodes=ccw.nodes[::-1], closed=True)
    mids = cw.midpoints()
    rad = mids / np.hypot(mids[:, 0], mids[:, 1])[:, None]
    assert np.all(np.einsum("ij,ij->i", cw.normals, rad) > 0.99)
    assert cw.sigma == -1.0


def test_plate_basic():
    c = geo.mesh_plate(1.0, 10)
    assert not c.closed and c.n_nodes == 11 and c.n_elements == 10
    assert np.allclose(c.tangents, [1.0, 0.0])
    assert np.allclose(c.normals, [0.0, 1.0])
    assert np.allclose(c.lengths, 0.1)
    assert c.sigma == -1.0
    assert abs(c.nodes[0, 0] + 0.5) < 1e-15 and abs(c.nodes[-1, 0] - 0.5) < 1e-15


def test_mesh_guards():
    with pytest.raises(MeshError):
        geo.mesh_circle(1.0, 7)
    with pytest.raises(MeshError):
        geo.mesh_plate(1.0, 4)
    with pytest.raises(UsageError):
        geo.mesh_circle(-1.0, 16)
    with pytest.raises(UsageError):
        geo.mesh_plate(0.0, 16)


def test_contour_chain_validation():
    with pytest.raises(MeshError):  # duplicate point makes a zero-length element
        geo.Contour(nodes=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                    closed=False)
    with pytest.raises(UsageError):  # one node makes no element
        geo.Contour(nodes=np.array([[0.0, 0.0]]), closed=False)


def test_contour_is_its_node_order():
    """Element e joins nodes e and e + 1, mod N on a loop, and the builders'
    fingerprints (carried by the solver's CSV headers) stay pinned."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for closed, want in ((False, [[0, 1], [1, 2], [2, 3]]),
                         (True, [[0, 1], [1, 2], [2, 3], [3, 0]])):
        c = geo.Contour(nodes=nodes, closed=closed)
        assert c.elements.tolist() == want
        assert c.n_elements == len(want) and not c.elements.flags.writeable
    assert geo.contour_hash(geo.mesh_circle(1.1, 512)) == "8ed126d365d9d411"
    assert geo.contour_hash(geo.mesh_plate(2.0, 40)) == "df213b444b9fb36d"


def test_contour_immutable():
    c = geo.mesh_circle(1.0, 16)
    with pytest.raises(ValueError):
        c.nodes[0, 0] = 5.0


def test_point_mapping():
    c = geo.mesh_plate(2.0, 8)
    p = c.points(np.array([0.0, 0.5, 1.0]))
    assert p.shape == (8, 3, 2)
    assert np.array_equal(p[:, 0], c.nodes[:-1])
    assert np.array_equal(p[:, 2], c.nodes[1:])
    assert np.allclose(p[:, 1], c.midpoints(), rtol=0.0, atol=1e-15)


# ------------------------------------------------------------- utilities

def test_contour_hash_stability():
    a = geo.mesh_circle(1.0, 32)
    b = geo.mesh_circle(1.0, 32)
    c = geo.mesh_circle(1.0, 64)
    assert geo.contour_hash(a) == geo.contour_hash(b)
    assert geo.contour_hash(a) != geo.contour_hash(c)
    assert len(geo.contour_hash(a)) == 16


@settings(max_examples=20, deadline=None)
@given(n=st.integers(8, 200), r=st.floats(0.01, 100.0))
def test_circle_invariants_property(n, r):
    c = geo.mesh_circle(r, n)
    closure = np.einsum("i,ij->j", c.lengths, c.tangents)
    assert np.linalg.norm(closure) < 1e-12 * c.lengths.sum()
    assert c.lengths.sum() < 2.0 * np.pi * r  # inscribed
    # chord geometry: perimeter = 2 n r sin(pi/n) exactly
    assert c.lengths.sum() == pytest.approx(2.0 * n * r * np.sin(np.pi / n), rel=1e-12)
