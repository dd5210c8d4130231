"""The solves of the reduced system: a dense complex LU with pivoting,
reusable multi-RHS solves and a 1-norm reciprocal-condition estimate for
every contour, a mode-by-mode solve for a block-circulant one, and a
solve by two half-size LUs for a mirror-symmetric one.

A rotation-invariant closed contour (``assembly`` notes) gives a reduced
matrix of four circulant n x n blocks.  The DFT turns it into n
independent 2 x 2 systems, one per mode (P. J. Davis, *Circulant
Matrices*, Wiley 1979): :class:`BlockCirculant` holds their (n, 2, 2)
symbols, :func:`factor_modes` inverts each by Cramer's rule and
:func:`apply_modes` applies symbols to a block of columns by ``numpy.fft``
and elementwise products, O(n log n) per column and O(n) memory.  Its
rcond is exact, not estimated: every column of a block column has the
absolute sums of the first, which is the inverse DFT of the symbols.
``numpy.fft`` transforms one column at a time, so column k of a block is
bitwise the solve of that column alone, and it calls no BLAS.

A uniform chain (``assembly`` notes) gives a centrosymmetric reduced
matrix, A = P A P with P reversing the nodes within J and within M.  The
even/odd change of basis splits it into two half-size blocks (Cantoni &
Butler, *Linear Algebra Appl.* 13 (1976) 275-288): :class:`MirrorPair`
holds them, each is LU-factored in place, and :func:`solve_mirror` solves
a block of right-hand sides by their even and odd parts, column by column
bitwise as :func:`solve` does.  Two LUs of half the size take about a
quarter of the flops of one LU of A.

Every other contour takes the dense LU, and memory bounds its size.  Per
n^2 x 16 B, n nodes (tracemalloc, n = 512 and 1024): the kernel pass peaks
at 4 plus fixed buffers, up to ~11 MB for a slice of pairs (a jittered
circle, with no congruent pairs); with the one elimination of the
auxiliary fields (peak 4.6) the blocks keep 4.0 (B, B - S, Q and the real
couplings G, G2; I1, D and K are (n, 3) bands).  Composing the reduced 2n
system adds only A, 4 (and from IBC1 one real product, 0.5, while it
composes).  A is column-major, so its LU takes its place
(``overwrite_a``) and adds nothing, and the residual reads the blocks, not
A: a solve peaks while it composes, at DENSE_PEAK = 8.5 (8.0 at IBC0),
143 MB at n = 1024.  A MirrorPair holds 2.0 where A held 4.0, and its
halves are composed from folded blocks, one half-size temporary at a
time: a uniform plate's solve peaks at 2.55 above its blocks, 6.6 in
all (tracemalloc, n = 385, TM IBC2; the dense composition of the same
plate peaked at 4.57 above its blocks).  On the mode path no n x n
array is made: blocks, symbols, a solve and a far field stay O(n), at
most 5.4 kB per node (tracemalloc, n = 1024 and 4096, k0 h up to 1.99;
the kernel row's buffers peak, the far field's modes follow), budgeted
at MODE_PEAK_BYTES per node.  Angle sweeps of other contours add a block of
O(elements x SWEEP_CHUNK), independent of the angle count, and so do
their far fields, except on a uniform plate, whose far field is
O(nodes + SWEEP_CHUNK) (``analysis.far_field``).
``assembly.check_memory`` refuses, before the kernel pass, a contour
whose predicted peak exceeds the memory the process may use.  The
factorization objects are immutable and may be shared across threads;
each solve runs independent substitution passes.

Threaded BLAS goes through ``scipy.linalg`` alone.  numpy and scipy each
bundle an OpenBLAS with its own thread pool (numpy's 0.3.31 and scipy's
0.3.30 on the 2-core VM where this was measured).  A numpy product (``@``,
``np.dot``) wakes numpy's pool, whose threads then compete for the cores
with scipy's LU: with numpy products in its kernel pass and right-hand
sides, the benchmark's orders-cylinder operation ran in one process at a
median of 1.38 s with both pools at 2 threads and 0.98 s with numpy's at
1 (8 operations each).  So the package's solve path makes no numpy BLAS
call: the kernel contractions are ``np.einsum`` (no ``optimize``, which
calls no BLAS), the plane-wave direction products elementwise, and the
residual's block products scipy's ``zgemv`` and ``dgemv``; the same
operation now runs at 0.96 s with numpy's pool at 2 threads and 0.94 s
at 1.  tests/test_numpy_blas.py keeps it so, with an allowlist of two
oracles.

On the dense path every right-hand side, one column or a block, goes
through the same pair of level-3 triangular solves (``ztrsm``).  Column k
of any multi-column solve is therefore bit-identical to the solve of that
column alone, at any BLAS thread count.  LAPACK ``getrs`` gives no such promise: threaded OpenBLAS
solves a single column with different rounding from a block (about 3e-15
apart).  The price is that a single column no longer takes BLAS's threaded
single-column substitution: at n = 256 it costs 0.11 ms instead of 0.05 ms
(2-core VM, OpenBLAS 0.3.31); block solves run at the same speed.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack
from scipy.linalg import lu_factor as _sp_lu_factor

from .errors import SingularMatrixError, UsageError

log = logging.getLogger(__name__)

RCOND_WARN = 1e-12
NORM_PANEL = 32     # columns per panel of the 1-norm (_norm1)
# predicted peak of a solve (module notes): n^2 x 16 B units, n nodes, on
# the dense path, and bytes per node on the mode path
DENSE_PEAK = 8.5
MODE_PEAK_BYTES = 8192


@dataclass(frozen=True)
class Factorization:
    """``lu`` holds unit-lower L and upper U with ``A[perm] = L @ U``:
    ``perm[i]`` is the row of A that ends up in row i.
    """

    lu: np.ndarray
    perm: np.ndarray
    n: int
    rcond_estimate: float


def _norm1(a):
    """max_j sum_i |a_ij|, a column panel at a time through one real
    n x NORM_PANEL row-major buffer, so no n^2 temporary.  Row-major, each
    column sums in row order: bitwise ``np.linalg.norm(a, 1)`` of a
    row-major ``a``, whatever the memory order of ``a``.  An inf or NaN
    entry makes it inf or NaN."""
    n, m = a.shape
    buf = np.empty((n, min(m, NORM_PANEL)))
    norm = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, m, NORM_PANEL):
            panel = buf[:, :min(NORM_PANEL, m - lo)]
            np.abs(a[:, lo:lo + NORM_PANEL], out=panel)
            norm = np.maximum(norm, panel.sum(axis=0).max())
    return float(norm)


def lu_factor(matrix, overwrite_a=False) -> Factorization:
    """Partial-pivoted LU of a square complex matrix with rcond attached.

    Exact singularity (a zero pivot) raises with the offending column; a
    merely terrible condition number only warns, because near-resonance
    systems are legitimately ill-conditioned and the caller sees rcond.

    ``overwrite_a`` (scipy's keyword) lets the LU take the place of
    ``matrix``: a Fortran-contiguous complex128 array is factored where it
    lies, with no copy, and ``lu`` is then that array (also after a
    failure, which leaves it partly factored).  Any other input is copied
    first and left as it was, as without ``overwrite_a``.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise UsageError("empty matrix")
    anorm = _norm1(a)
    if not np.isfinite(anorm):
        raise UsageError("matrix has non-finite entries, or its 1-norm "
                         "overflows")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact singularity
        try:
            lu, piv = _sp_lu_factor(a, overwrite_a=overwrite_a,
                                    check_finite=False)
        except Exception as exc:  # LinAlgError on hard zero-pivot failures
            raise SingularMatrixError(
                f"LU factorization failed: {exc}", column=None
            ) from exc
    diag = np.abs(np.diagonal(lu))
    if np.any(diag == 0.0):
        col = int(np.argmin(diag != 0.0))
        raise SingularMatrixError(
            f"matrix is exactly singular (zero pivot in column {col})",
            column=col,
        )
    if anorm == 0.0:
        rcond = 0.0
    else:
        rcond, info = lapack.zgecon(lu, anorm, norm="1")
        if info != 0:
            raise SingularMatrixError(f"condition estimate failed (info={info})",
                                      column=None)
        rcond = float(rcond)
    if rcond < RCOND_WARN:
        log.warning("ill-conditioned system: rcond estimate %.3e", rcond)
    perm = np.arange(a.shape[0])
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    return Factorization(lu=lu, perm=perm, n=a.shape[0],
                         rcond_estimate=rcond)


def solve(f: Factorization, rhs) -> np.ndarray:
    """Solve A x = rhs reusing the factorization; rhs is (n,) or (n, k).

    A 1-D rhs is solved as an n x 1 block: permute the rows, then a
    unit-lower and an upper ``ztrsm``.  ``solve(f, B)[:, k]`` is bitwise
    equal to ``solve(f, B[:, k])`` for any width and BLAS thread count.
    """
    b = np.asarray(rhs, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise UsageError(
            f"rhs shape {b.shape} incompatible with system of size {f.n}"
        )
    x = np.asfortranarray((b[:, None] if b.ndim == 1 else b)[f.perm])
    x = blas.ztrsm(1.0, f.lu, x, lower=1, diag=1, overwrite_b=1)
    x = blas.ztrsm(1.0, f.lu, x, overwrite_b=1)
    return x[:, 0] if b.ndim == 1 else x


@dataclass(frozen=True)
class BlockCirculant:
    """The 2n x 2n matrix [[A00, A01], [A10, A11]] of four circulant
    n x n blocks, held as its per-mode symbols: ``symbols[m, p, q]`` is
    the DFT (numpy's order) of the first column of block (p, q), so that
    block (p, q) times x is ifft(symbols[:, p, q] * fft(x))."""

    symbols: np.ndarray

    @property
    def shape(self):
        n2 = 2 * self.symbols.shape[0]
        return (n2, n2)


@dataclass(frozen=True)
class MirrorPair:
    """The 2n x 2n matrix A = P A P, P reversing the n nodes within J and
    within M, held as its even and odd halves: ``even`` (2 ceil(n/2)
    square) is A on the vectors x = P x and ``odd`` (2 floor(n/2) square)
    A on x = -P x, each read on the nodes k < ceil(n/2) (resp.
    floor(n/2)) of J and of M, with node n - 1 - k folded onto node k
    (Cantoni & Butler, *Linear Algebra Appl.* 13 (1976) 275-288).  A
    middle node, of an odd n, is even."""

    even: np.ndarray
    odd: np.ndarray

    @property
    def shape(self):
        n2 = self.even.shape[0] + self.odd.shape[0]
        return (n2, n2)


def solve_mirror(even, odd, rhs):
    """Solve A x = rhs for a :class:`MirrorPair` A whose halves are
    factored as ``even`` and ``odd`` (:func:`lu_factor`), rhs (2n,) or
    (2n, K): the even part (b + P b) / 2 of rhs on the nodes
    k < ceil(n/2) and the odd part (b - P b) / 2 on k < floor(n/2), of J
    and of M, are solved by their halves (:func:`solve`), then unfolded:
    x_k = u_k + v_k and x_(n-1-k) = u_k - v_k.  Column k is bitwise the
    solve of that column alone, as :func:`solve`'s are."""
    b = np.asarray(rhs, dtype=complex)
    h, ho = even.n // 2, odd.n // 2
    n = h + ho
    if b.ndim not in (1, 2) or b.shape[0] != 2 * n:
        raise UsageError(
            f"rhs shape {b.shape} incompatible with system of size {2 * n}")
    tail = b.shape[1:]
    b = b.reshape((2, n) + tail)
    rev = b[:, ::-1]
    u = solve(even, (0.5 * (b[:, :h] + rev[:, :h])).reshape((2 * h,) + tail))
    v = solve(odd, (0.5 * (b[:, :ho] - rev[:, :ho])).reshape((2 * ho,) + tail))
    u, v = u.reshape((2, h) + tail), v.reshape((2, ho) + tail)
    x = np.empty_like(b)
    x[:, :h] = u
    x[:, :ho] += v
    x[:, ::-1][:, :ho] = u[:, :ho] - v
    return x.reshape((2 * n,) + tail)


def apply_modes(a, x):
    """A x for a :class:`BlockCirculant` A and x of shape (2n,) or (2n, K):
    the DFT of each column's J and M halves, a 2 x 2 product per mode,
    and the inverse DFT.  Column k is bitwise A times that column alone."""
    n = a.symbols.shape[0]
    xh = np.fft.fft(x.reshape((2, n) + x.shape[1:]), axis=1)
    s = a.symbols.reshape((n, 2, 2) + (1,) * (x.ndim - 1))
    yh = np.empty_like(xh)
    for p in range(2):
        yh[p] = s[:, p, 0] * xh[0] + s[:, p, 1] * xh[1]
    return np.fft.ifft(yh, axis=1).reshape(x.shape)


def _norm1_modes(symbols):
    """The 1-norm of the BlockCirculant of ``symbols``: the largest
    absolute sum of the two columns of its first block column, the
    inverse DFTs of the symbols; every other column is a cyclic shift of
    one of them within each block."""
    return float(np.abs(np.fft.ifft(symbols, axis=0)).sum(axis=(0, 1)).max())


def factor_modes(a):
    """(A^-1, rcond) of a :class:`BlockCirculant` A: the inverse, inverted
    mode by mode (Cramer's rule on each 2 x 2 symbol), and the exact
    1-norm reciprocal condition of A.

    A mode whose symbol or determinant is not finite or whose
    determinant is exactly 0, or whose inverse overflows, raises
    SingularMatrixError naming the mode; no NaN is returned and numpy
    warns of nothing.  A small rcond only warns, as in :func:`lu_factor`.
    """
    s = a.symbols
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
        ok = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(det) & (det != 0)
        inv = np.empty_like(s)
        if ok.all():
            inv[:, 0, 0], inv[:, 1, 1] = s[:, 1, 1] / det, s[:, 0, 0] / det
            inv[:, 0, 1], inv[:, 1, 0] = -s[:, 0, 1] / det, -s[:, 1, 0] / det
            ok = np.isfinite(inv).all(axis=(1, 2))
        if not ok.all():
            m = int(np.argmin(ok))
            raise SingularMatrixError(
                f"block-circulant matrix is singular at mode {m} (2 x 2 "
                f"determinant {complex(det[m]):.3e})", column=None)
        rcond = 1.0 / (_norm1_modes(s) * _norm1_modes(inv))
    if rcond < RCOND_WARN:
        log.warning("ill-conditioned system: rcond %.3e", rcond)
    return BlockCirculant(inv), float(rcond)
