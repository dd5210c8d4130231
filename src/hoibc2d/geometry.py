"""Discretized 2D contours for the boundary-element solver.

A contour is a polyline of straight segments with a local frame on each
element: unit tangent tau, unit outward normal n, length h.  Two builders
cover the solver targets — a closed circle (coated-cylinder cross section)
and an open plate on the x axis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, UsageError

_MIN_ELEMENTS = 8


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Contour:
    """Straight-segment polyline with per-element frames.

    nodes      (N, 2) float [m]
    elements   (E, 2) int, node indices; consecutive elements share a node
    closed     True for loops (E = N), False for open arcs (E = N - 1)
    tangents   (E, 2) unit tau along the element
    normals    (E, 2) unit n pointing into the exterior domain
    lengths    (E,) element lengths h_e [m]
    sigma      +1 or -1: the z component of n x tau, constant per contour
    """

    nodes: np.ndarray
    elements: np.ndarray
    closed: bool
    tangents: np.ndarray = field(init=False)
    normals: np.ndarray = field(init=False)
    lengths: np.ndarray = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        nodes = _frozen(np.asarray(self.nodes, dtype=float))
        elems = _frozen(np.asarray(self.elements, dtype=int))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elems)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise UsageError("nodes must be an (N, 2) array")
        n_nodes, n_el = nodes.shape[0], elems.shape[0]
        expect = n_nodes if self.closed else n_nodes - 1
        if n_el != expect:
            raise MeshError(
                f"{'closed' if self.closed else 'open'} contour needs "
                f"{expect} elements for {n_nodes} nodes, got {n_el}"
            )
        for e in range(n_el - 1):
            if elems[e, 1] != elems[e + 1, 0]:
                raise MeshError(f"elements {e} and {e + 1} do not chain")
        if self.closed and elems[-1, 1] != elems[0, 0]:
            raise MeshError("closed contour does not wrap around")
        # a polyline through each node once: no node starts (or ends) two
        # elements, which the assembly's scatter to nodes relies on
        visits = elems[:, 0] if self.closed else np.append(elems[:, 0],
                                                           elems[-1, 1])
        if np.unique(visits).size != n_nodes:
            raise MeshError("contour does not visit every node exactly once")

        vec = nodes[elems[:, 1]] - nodes[elems[:, 0]]
        h = np.hypot(vec[:, 0], vec[:, 1])
        if np.any(h <= 0.0):
            raise MeshError("zero-length element")
        tau = vec / h[:, None]
        object.__setattr__(self, "lengths", _frozen(h))
        object.__setattr__(self, "tangents", _frozen(tau))
        # orientation is fixed by the builder via the node ordering; the
        # normal is tau rotated a quarter turn, sign chosen per contour
        sig = -1.0 if not self.closed else self._loop_sign(nodes, elems)
        n = sig * np.stack([tau[:, 1], -tau[:, 0]], axis=1)
        object.__setattr__(self, "normals", _frozen(n))
        # z component of n x tau; = sig since n is tau rotated by -sig*90deg
        object.__setattr__(self, "sigma", sig)

    @staticmethod
    def _loop_sign(nodes, elems):
        # shoelace area: positive for counterclockwise node ordering, in
        # which case (tau_y, -tau_x) already points outward
        p = nodes[elems[:, 0]]
        q = nodes[elems[:, 1]]
        area2 = float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
        if area2 == 0.0:
            raise MeshError("degenerate closed contour (zero area)")
        return 1.0 if area2 > 0.0 else -1.0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[self.elements[:, 0]] + self.nodes[self.elements[:, 1]])

    def points(self, t) -> np.ndarray:
        """(E, len(t), 2) images of local coordinates t in [0, 1] on every
        element: start + t (end - start)."""
        a = self.nodes[self.elements[:, 0]]
        b = self.nodes[self.elements[:, 1]]
        t = np.asarray(t, dtype=float)
        return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def mesh_circle(radius: float, n_elements: int) -> Contour:
    """Closed regular polygon inscribed in the circle of given radius.

    Node j sits at angle 2 pi j / N, so refining N -> 2N keeps every old
    node at an even index (nested meshes for convergence studies).
    """
    if radius <= 0.0:
        raise UsageError("radius must be positive")
    if n_elements < _MIN_ELEMENTS:
        raise MeshError(
            f"mesh too coarse: n_elements = {n_elements} < {_MIN_ELEMENTS}"
        )
    ang = 2.0 * np.pi * np.arange(n_elements) / n_elements
    nodes = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elems = np.stack(
        [np.arange(n_elements), (np.arange(n_elements) + 1) % n_elements], axis=1
    )
    return Contour(nodes=nodes, elements=elems, closed=True)


def mesh_plate(length: float, n_elements: int) -> Contour:
    """Open straight strip on the x axis, centered on the origin.

    Tangents are +x, normals +y (the illuminated side); the assembly pins
    every P1 field to zero at the two endpoint nodes.
    """
    if length <= 0.0:
        raise UsageError("length must be positive")
    if n_elements < _MIN_ELEMENTS:
        raise MeshError(
            f"mesh too coarse: n_elements = {n_elements} < {_MIN_ELEMENTS}"
        )
    x = np.linspace(-0.5 * length, 0.5 * length, n_elements + 1)
    nodes = np.stack([x, np.zeros_like(x)], axis=1)
    elems = np.stack([np.arange(n_elements), np.arange(n_elements) + 1], axis=1)
    return Contour(nodes=nodes, elements=elems, closed=False)


def contour_hash(contour: Contour) -> str:
    """Stable fingerprint of the mesh (logged with every solve)."""
    m = hashlib.sha256()
    m.update(b"closed" if contour.closed else b"open")
    m.update(contour.nodes.tobytes())
    m.update(contour.elements.astype(np.int64).tobytes())
    return m.hexdigest()[:16]

