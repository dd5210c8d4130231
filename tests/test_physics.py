"""Reference-free physics checks of the solver: reciprocity and the energy
balance of the far field, which need no reference solution.

The scatterer is a counter-clockwise, non-symmetric closed "egg",
r(t) = 0.55 (1 + 0.2 cos t + 0.1 sin 2t), coated with a 0.1 m layer at
k0 = 2 pi.  No two of its element pairs are congruent, so the kernel
pass evaluates every distant pair on its own.  At IBC0 the discrete
problem is reciprocal and, for a lossless layer, lossless to rounding; at
IBC1 and IBC2 both defects are discretization errors and fall under mesh
refinement.  The bounds were fixed before the measurement: at most 1e-13
at IBC0, a fall of at least 3x per doubling of N = 60 -> 120 -> 240 at
IBC1 and IBC2 (measured 4-8x), and a positive absorbed fraction for a
lossy layer.  Open contours are not checked here (ROADMAP.md, items 1-3).

The same egg traversed clockwise is the same scatterer, so its echo width
must not change; it does, because the incident traces and the far field
carry the contour's orientation sign sigma (ROADMAP.md, item 1).  That
check is a strict xfail until item 1 is fixed.
"""

import numpy as np
import pytest

from hoibc2d.analysis import far_field, solve_and_pattern
from hoibc2d.assembly import (
    IncidentWave,
    SurfaceCurrents,
    assemble_blocks,
    assemble_rhs,
    build_reduced_system,
)
from hoibc2d.geometry import Contour
from hoibc2d.impedance import CoatingSpec, fit_coefficients
from hoibc2d.linsolve import lu_factor, solve

K0 = 2.0 * np.pi
LOSSLESS = CoatingSpec(4.0, 1.0, 0.1)
LOSSY = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)
MESHES = (60, 120, 240)
CASES = [(pol, order) for pol in ("TE", "TM")
         for order in ("IBC0", "IBC1", "IBC2")]


def _egg(n):
    t = 2.0 * np.pi * np.arange(n) / n
    r = 0.55 * (1.0 + 0.2 * np.cos(t) + 0.1 * np.sin(2.0 * t))
    return Contour(nodes=np.column_stack([r * np.cos(t), r * np.sin(t)]),
                   closed=True)


@pytest.fixture(scope="module")
def eggs():
    """{N: (egg, its assembled blocks)} for the N of MESHES."""
    contours = {n: _egg(n) for n in MESHES}
    return {n: (c, assemble_blocks(c, K0)) for n, c in contours.items()}


def _amplitudes(egg, coating, pol, order, inc_deg, obs_deg):
    """F[s, i], the far field towards obs_deg[s] of the unit wave incident
    at inc_deg[i], all waves solved on one factorization; ``egg`` is a
    contour and its blocks."""
    c, blocks = egg
    coeffs = fit_coefficients(coating, pol, K0, order)
    wave = IncidentWave(pol=pol, k0=K0, phi_inc=0.0)
    system = build_reduced_system(c, coeffs, wave, blocks=blocks)
    fac = lu_factor(system.reduced_matrix, overwrite_a=True)
    x = solve(fac, assemble_rhs(c, pol, K0, np.deg2rad(inc_deg)))
    n1 = c.n_nodes
    return np.column_stack([
        far_field(SurfaceCurrents(J=col[:n1], M=col[n1:]), c, wave,
                  obs_deg).values for col in x.T])


def _reciprocity_defect(egg, pol, order):
    """max |F(phi_s, phi_i) - F(phi_i + 180, phi_s + 180)| / max |F| on a
    10 degree grid, for the lossy layer."""
    grid = 10.0 * np.arange(36)
    f = _amplitudes(egg, LOSSY, pol, order, grid, grid)
    back = (np.arange(36) + 18) % 36
    return np.max(np.abs(f - f[back][:, back].T)) / np.max(np.abs(f))


def _absorbed_fraction(egg, coating, pol, order, phi_inc=30.0):
    """(ext - sca) / ext by the optical theorem: with u_sc ~ F e^{-i k r}
    / sqrt(r), a unit wave loses ext = -sqrt(8 pi / k0) Re[F(phi_inc)
    e^{-i pi/4}] and scatters sca = int |F|^2 dphi (on a 1 degree grid,
    exact for the band-limited |F|^2)."""
    obs = np.append(np.arange(360.0), phi_inc)
    f = _amplitudes(egg, coating, pol, order, [phi_inc], obs)[:, 0]
    sca = 2.0 * np.pi * np.mean(np.abs(f[:-1]) ** 2)
    ext = -np.sqrt(8.0 * np.pi / K0) * np.real(f[-1] * np.exp(-0.25j * np.pi))
    return (ext - sca) / ext


def _check_defects(defects, order):
    """IBC0 holds to rounding at every N; IBC1 and IBC2 fall at least 3x
    per doubling."""
    if order == "IBC0":
        assert max(defects) <= 1e-13, defects
    else:
        assert all(coarse >= 3.0 * fine
                   for coarse, fine in zip(defects, defects[1:])), defects


@pytest.mark.parametrize("pol, order", CASES)
def test_egg_reciprocity(eggs, pol, order):
    _check_defects([_reciprocity_defect(eggs[n], pol, order)
                    for n in MESHES], order)


@pytest.mark.parametrize("pol, order", CASES)
def test_egg_energy_balance(eggs, pol, order):
    """A lossless layer neither absorbs nor emits; a lossy one absorbs."""
    _check_defects([abs(_absorbed_fraction(eggs[n], LOSSLESS, pol, order))
                    for n in MESHES], order)
    assert _absorbed_fraction(eggs[MESHES[-1]], LOSSY, pol, order) > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a clockwise contour (sigma = -1) is solved "
                          "wrongly: ROADMAP.md item 1")
@pytest.mark.parametrize("pol, order", CASES)
def test_egg_orientation_invariance(pol, order):
    """The egg of N = 120 and its clockwise traversal give one echo width
    (lossy layer, phi_inc = 30 deg, 1 deg grid) to 1e-9 dB."""
    egg = _egg(120)
    coeffs = fit_coefficients(LOSSY, pol, K0, order)
    wave = IncidentWave(pol=pol, k0=K0, phi_inc=np.deg2rad(30.0))
    ccw, cw = (solve_and_pattern(c, coeffs, wave, np.arange(360.0))[0].sigma
               for c in (egg, Contour(nodes=egg.nodes[::-1], closed=True)))
    assert np.max(np.abs(ccw - cw)) <= 1e-9, np.max(np.abs(ccw - cw))
