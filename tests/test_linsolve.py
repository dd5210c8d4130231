"""LU factorization, multi-RHS solves, and conditioning diagnostics."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from hoibc2d import linsolve as ls
from hoibc2d.errors import SingularMatrixError, UsageError


def _in_place(a):
    """Factor a Fortran-ordered complex copy of ``a`` where it lies, and
    check that it did (f2py would copy any other input silently)."""
    fa = np.asfortranarray(a, dtype=complex)
    if fa is a:
        fa = fa.copy(order="F")
    f = ls.lu_factor(fa, overwrite_a=True)
    assert f.lu is fa
    return f


# lu_factor on the input as given, and in place on a Fortran-ordered copy:
# every check below that factors runs on both
ROUTES = (ls.lu_factor, _in_place)


def test_identity():
    f = ls.lu_factor(np.eye(4))
    assert f.rcond_estimate == pytest.approx(1.0)
    x = ls.solve(f, np.arange(4.0))
    assert np.allclose(x, np.arange(4.0))


def test_permutation_handled():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = ls.solve(ls.lu_factor(a), np.array([2.0, 3.0]))
    assert np.allclose(x, [3.0, 2.0])


def test_random_complex_residual():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = ls.solve(ls.lu_factor(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_residual_backward_error_bound():
    rng = np.random.default_rng(11)
    n = 80
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = ls.lu_factor(a)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = ls.solve(f, b)
    res = np.linalg.norm(a @ x - b, np.inf)
    bound = 100.0 * n * np.finfo(float).eps * np.linalg.norm(a, np.inf) * \
        np.linalg.norm(x, np.inf)
    assert res <= bound


def test_lu_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for factor in ROUTES:
        f = factor(a)
        lower = np.tril(f.lu, -1) + np.eye(30)
        upper = np.triu(f.lu)
        assert np.array_equal(np.sort(f.perm), np.arange(30))
        assert np.linalg.norm(a[f.perm] - lower @ upper) <= \
            1e-12 * np.linalg.norm(a)


def test_factor_leaves_input_unchanged():
    """Without ``overwrite_a`` the matrix is only read, row-major or
    Fortran-ordered, and both give the same LU and rcond, bitwise."""
    rng = np.random.default_rng(13)
    a = rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70))
    want = ls.lu_factor(a.copy())
    for m in (a.copy(), np.asfortranarray(a)):
        before = m.copy()
        f = ls.lu_factor(m)
        assert m.tobytes() == before.tobytes()
        assert not np.shares_memory(f.lu, m)
        assert f.lu.tobytes() == want.lu.tobytes()
        assert f.rcond_estimate == want.rcond_estimate


def test_overwrite_in_place_only_where_it_can():
    """``overwrite_a`` factors a Fortran-ordered complex array where it
    lies, bitwise the copying route's LU and rcond; a row-major or a real
    array cannot hold the LU, so it is copied, left as it was, and factored
    all the same."""
    rng = np.random.default_rng(19)
    a = rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70))
    want = ls.lu_factor(a)
    f = _in_place(a)
    assert f.lu.tobytes() == want.lu.tobytes()
    assert np.array_equal(f.perm, want.perm)
    assert f.rcond_estimate == want.rcond_estimate
    b = rng.standard_normal(70) + 1j * rng.standard_normal(70)
    for m in (a.copy(), a.real.copy(), np.asfortranarray(a.real)):
        before = m.copy()
        f = ls.lu_factor(m, overwrite_a=True)
        assert m.tobytes() == before.tobytes()
        assert not np.shares_memory(f.lu, m)
        assert f.lu.tobytes() == ls.lu_factor(m).lu.tobytes()
        x = ls.solve(f, b)
        assert np.linalg.norm(m @ x - b) <= 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [1, ls.NORM_PANEL - 1, ls.NORM_PANEL + 1, 70])
def test_one_norm_by_panels(n):
    """The panelled 1-norm is bitwise numpy's of the row-major matrix (the
    rounding rcond inherits), for either memory order and any panel
    remainder."""
    rng = np.random.default_rng(n)
    a = (rng.standard_normal((n, n)) * rng.lognormal(0.0, 3.0, (n, n))
         + 1j * rng.standard_normal((n, n)))
    want = np.linalg.norm(a, 1)
    assert ls._norm1(a) == want
    assert ls._norm1(np.asfortranarray(a)) == want


def test_multi_rhs_matches_looped():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    B = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    f = ls.lu_factor(a)
    X = ls.solve(f, B)
    for k in range(3):
        xk = ls.solve(f, B[:, k])
        assert np.array_equal(X[:, k], xk)  # same substitution path, bitwise


_THREADED_CHILD = textwrap.dedent("""
    import numpy as np
    from hoibc2d import linsolve as ls

    rng = np.random.default_rng(17)
    n = 512  # the shape of the auxiliary-field elimination's solve(fac, d5)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = ls.lu_factor(a)
    x = ls.solve(f, b)
    bad = []
    for k in range(n):
        if not np.array_equal(x[:, k], ls.solve(f, b[:, k])):
            bad.append(("1-D", k))
        if not np.array_equal(x[:, k], ls.solve(f, b[:, k:k + 1])[:, 0]):
            bad.append(("n x 1", k))
    print("mismatches", len(bad), bad[:4])
""")


_RHS_CHILD = textwrap.dedent("""
    import numpy as np
    from hoibc2d.analysis import SWEEP_CHUNK
    from hoibc2d.assembly import assemble_rhs
    from hoibc2d.geometry import Contour, mesh_circle, mesh_plate

    turned = Contour(nodes=mesh_plate(2.0, 40).nodes[::-1], closed=False)
    rng = np.random.default_rng(23)
    bad = []
    for name, c in (("circle", mesh_circle(1.1, 128)),
                    ("plate", turned)):
        for pol in ("TE", "TM"):
            for width in (1, 7, SWEEP_CHUNK + 44):
                phis = rng.uniform(0.0, 2.0 * np.pi, width)
                block = assemble_rhs(c, pol, 6.0, phis)
                for k in range(width):
                    one = assemble_rhs(c, pol, 6.0, phis[k:k + 1])[:, 0]
                    if not np.array_equal(block[:, k], one):
                        bad.append((name, pol, width, k))
    print("mismatches", len(bad), bad[:4])
""")


def _run_threaded(child):
    # BLAS only rounds differently when it runs threaded, so the child
    # process asks OpenBLAS/OpenMP for two threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[:2] == ["mismatches", "0"], out.stdout


_MODES_CHILD = textwrap.dedent("""
    import numpy as np
    from hoibc2d.analysis import SWEEP_CHUNK
    from hoibc2d.assembly import (IncidentWave, assemble_rhs,
                                  build_reduced_system)
    from hoibc2d.geometry import mesh_circle
    from hoibc2d.impedance import CoatingSpec, fit_coefficients
    from hoibc2d.linsolve import BlockCirculant, apply_modes, factor_modes

    c = mesh_circle(1.1, 128)
    coat = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)
    rng = np.random.default_rng(37)
    bad = []
    for pol in ("TE", "TM"):
        cf = fit_coefficients(coat, pol, 6.0, "IBC2")
        system = build_reduced_system(
            c, cf, IncidentWave(pol=pol, k0=6.0, phi_inc=0.0))
        assert isinstance(system.reduced_matrix, BlockCirculant)
        inverse, _ = factor_modes(system.reduced_matrix)
        for width in (1, 7, SWEEP_CHUNK + 44):
            rhs = assemble_rhs(c, pol, 6.0,
                               rng.uniform(0.0, 2.0 * np.pi, width))
            x = apply_modes(inverse, rhs)
            for k in range(width):
                one = apply_modes(inverse, rhs[:, k])
                block = apply_modes(inverse, rhs[:, k:k + 1])[:, 0]
                if not np.array_equal(x[:, k], one):
                    bad.append((pol, width, k, "1-D"))
                if not np.array_equal(x[:, k], block):
                    bad.append((pol, width, k, "n x 1"))
    print("mismatches", len(bad), bad[:4])
""")


_MIRROR_CHILD = textwrap.dedent("""
    import numpy as np
    from hoibc2d.analysis import SWEEP_CHUNK, _factor
    from hoibc2d.assembly import (IncidentWave, assemble_rhs,
                                  build_reduced_system)
    from hoibc2d.geometry import Contour, mesh_plate
    from hoibc2d.impedance import CoatingSpec, fit_coefficients
    from hoibc2d.linsolve import MirrorPair

    c = Contour(nodes=mesh_plate(2.0, 40).nodes[::-1], closed=False)
    coat = CoatingSpec(4.0 - 0.5j, 1.0, 0.1)
    rng = np.random.default_rng(43)
    bad = []
    for pol in ("TE", "TM"):
        cf = fit_coefficients(coat, pol, 6.0, "IBC2")
        system = build_reduced_system(
            c, cf, IncidentWave(pol=pol, k0=6.0, phi_inc=0.0))
        assert isinstance(system.reduced_matrix, MirrorPair)
        apply, _, _ = _factor(system)
        for width in (1, 7, SWEEP_CHUNK + 44):
            rhs = assemble_rhs(c, pol, 6.0,
                               rng.uniform(0.0, 2.0 * np.pi, width))
            x = apply(rhs)
            for k in range(width):
                if not np.array_equal(x[:, k], apply(rhs[:, k])):
                    bad.append((pol, width, k, "1-D"))
                if not np.array_equal(x[:, k], apply(rhs[:, k:k + 1])[:, 0]):
                    bad.append((pol, width, k, "n x 1"))
    print("mismatches", len(bad), bad[:4])
""")


def test_multi_rhs_bitwise_under_threaded_blas():
    # the promise of test_multi_rhs_matches_looped, at two BLAS threads
    _run_threaded(_THREADED_CHILD)


def test_rhs_columns_bitwise_under_threaded_blas():
    """Column k of a block of right-hand sides is bitwise the block of
    its angle alone, at widths 1, 7 and SWEEP_CHUNK + 44, on a circle and
    on a plate numbered from its other end."""
    _run_threaded(_RHS_CHILD)


def test_mode_solve_columns_bitwise_under_threaded_blas():
    """The mode path keeps the sweep's promise: column k of a block solve
    on a circle is bitwise the solve of that column alone, as a vector and
    as an n x 1 block, at two BLAS threads."""
    _run_threaded(_MODES_CHILD)


def test_mirror_solve_columns_bitwise_under_threaded_blas():
    """The mirror split keeps the sweep's promise: column k of a block
    solve on a plate numbered from its other end, folded, solved by both
    halves and unfolded, is bitwise the solve of that column alone, as a
    vector and as an n x 1 block, at two BLAS threads."""
    _run_threaded(_MIRROR_CHILD)


def _random_symbols(n, seed=41):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))


def test_mode_factor_against_dense():
    """factor_modes and apply_modes against the dense block-circulant
    matrix they stand for: A x, the solve and the exact 1-norm rcond."""
    n = 24
    s = _random_symbols(n)
    # block (p, q) is the circulant of the first column ifft(s[:, p, q])
    col = np.fft.ifft(s, axis=0)
    k = (np.arange(n)[:, None] - np.arange(n)) % n
    a = np.block([[col[k, p, q] for q in range(2)] for p in range(2)])
    x = _random_symbols(n, 43)[:, 0].T.ravel()
    inverse, rcond = ls.factor_modes(ls.BlockCirculant(s))
    assert ls.BlockCirculant(s).shape == (2 * n, 2 * n)
    assert np.allclose(ls.apply_modes(ls.BlockCirculant(s), x), a @ x,
                       rtol=0, atol=1e-13 * np.max(np.abs(a @ x)))
    assert np.allclose(a @ ls.apply_modes(inverse, x), x,
                       rtol=0, atol=1e-12 * np.max(np.abs(x)))
    want = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))
    assert rcond == pytest.approx(want, rel=1e-12)


def test_singular_mode_is_named():
    """A zero, non-finite or overflowing mode raises SingularMatrixError
    naming the mode, without a numpy warning (warnings are errors here)."""
    for bad in ("zero", "nan", "inf", "tiny"):
        s = _random_symbols(10)
        if bad == "zero":
            s[3, :, 1] = 0.0
        elif bad == "tiny":           # det 1e-310: the inverse overflows
            s[3] = [[1.0, 0.0], [0.0, 1e-310]]
        else:
            s[3, 1, 0] = getattr(np, bad)
        with pytest.raises(SingularMatrixError, match="mode 3"):
            ls.factor_modes(ls.BlockCirculant(s))


def test_zero_rhs_and_linearity():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    f = ls.lu_factor(a)
    assert np.all(ls.solve(f, np.zeros(10)) == 0.0)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    alpha = 2.5 - 0.5j
    assert np.allclose(ls.solve(f, alpha * b), alpha * ls.solve(f, b),
                       rtol=1e-13, atol=0.0)


def test_singular_matrix_reports_column():
    a = np.eye(5, dtype=complex)
    a[:, 2] = 0.0
    for factor in ROUTES:
        with pytest.raises(SingularMatrixError) as exc:
            factor(a)
        assert exc.value.column == 2
        with pytest.raises(SingularMatrixError):
            factor(np.zeros((3, 3)))


def test_rcond_warning_logged(caplog):
    a = np.diag([1.0, 1e-14])
    with caplog.at_level("WARNING", logger="hoibc2d.linsolve"):
        f = ls.lu_factor(a)
    assert f.rcond_estimate < 1e-12
    assert any("ill-conditioned" in r.message for r in caplog.records)


def test_usage_errors():
    for factor in ROUTES:
        with pytest.raises(UsageError):
            factor(np.zeros((2, 3)))
        # a non-finite entry, found through the 1-norm that lu_factor
        # needs anyway, and a 1-norm that overflows
        for bad in (np.nan, np.inf, -np.inf, 1j * np.inf, -1j * np.inf):
            with pytest.raises(UsageError):
                factor(np.array([[1.0, 0.0], [bad, 1.0]]))
            # in the first and in the last panel of the 1-norm
            for col in (0, -1):
                big = np.eye(ls.NORM_PANEL + 3, dtype=complex)
                big[1, col] = bad
                with pytest.raises(UsageError):
                    factor(big)
        with pytest.raises(UsageError):
            factor(np.full((2, 2), 1e308))
    f = ls.lu_factor(np.eye(3))
    with pytest.raises(UsageError):
        ls.solve(f, np.zeros(4))


def test_rcond_tracks_true_condition():
    # diagonal matrices: rcond is exactly min/max
    f = ls.lu_factor(np.diag([4.0, 2.0, 0.5]))
    assert f.rcond_estimate == pytest.approx(0.125, rel=1e-12)
