"""Dense complex LU with pivoting, reusable multi-RHS solves, and a
1-norm reciprocal-condition estimate.

The systems assembled upstream are dense; one dense LU is the whole
strategy, and memory bounds the size.  Per n^2 x 16 B, n nodes
(tracemalloc on circles, n = 512 and 1024): the kernel pass peaks at 4
plus fixed buffers, up to ~11 MB for a slice of pairs (a jittered circle,
with no congruent pairs); with the one elimination of the auxiliary fields
(peak 5.0) the blocks keep 4.0 (B, B - S, Q and the real couplings G, G2;
I1, D and K are (n, 3) bands).  Composing the reduced 2n system adds only
A, 4 (and from IBC1 one real product, 0.5, while it composes).  A is
column-major, so its LU takes its place (``overwrite_a``) and adds
nothing, and the residual reads the blocks, not A: a solve peaks while it
composes, at 8.5 (8.0 at IBC0), 143 MB at n = 1024.  Far fields and angle
sweeps add a block of O(elements x SWEEP_CHUNK), independent of the angle
count.  The factorization object is immutable and may be shared across
threads; each solve runs independent substitution passes.

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

Every right-hand side, one column or a block, goes through the same pair of
level-3 triangular solves (``ztrsm``).  Column k of any multi-column solve is
therefore bit-identical to the solve of that column alone, at any BLAS
thread count.  LAPACK ``getrs`` gives no such promise: threaded OpenBLAS
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

