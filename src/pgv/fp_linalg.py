"""Exact dense linear algebra over the prime field F_p.

Everything here works on numpy int64 arrays whose entries are residues in
[0, p).  Vectors are rows; the row-space convention matches the rest of the
library, where a module element is a row vector acted on from the right.

Integer arrays are brought back to residues by ``as_residues`` alone.  numpy's
int64 remainder runs a hardware division per element, several times the cost
of a floor division by a scalar, which numpy turns into a multiply and a
shift, so on all but small arrays a residue is formed as x - (x // p) * p,
and at p = 2 as x & 1.  Large float64 products are reduced by ``_mod_float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

MAX_PRIME = 1 << 15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    p = int(p)
    if p > MAX_PRIME or not is_prime(p):
        raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")
    return p


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod p")
    return pow(a, p - 2, p)


# Arrays of fewer elements than this are reduced by np.remainder, one ufunc
# call; from here on the three calls of the floor-division form cost less.
DIVIDE_MIN = 256


def as_residues(a, p: int) -> np.ndarray:
    """a mod p as a new C-ordered int64 array; a itself is left as it is.

    Exact for every int64 value, negatives included, since x // p floors:
    x - (x // p) * p is then in [0, p).  A 0-d input gives a numpy scalar, as
    ``%`` does.
    """
    x = np.asarray(a, dtype=np.int64)
    if p == 2:
        return np.bitwise_and(x, 1, order="C")
    if x.size < DIVIDE_MIN:
        return np.remainder(x, p, order="C")
    q = np.floor_divide(x, p, order="C")
    q *= p
    return np.subtract(x, q, out=q)


# The blocked elimination works through column panels of PANEL columns and
# updates the other rows in PANEL x PANEL tiles.  A panel has at most PANEL
# pivots, so every partial sum of a tile product is at most PANEL * (p - 1)^2
# < 2^53 for p <= MAX_PRIME and float64 arithmetic stays exact.  A tile
# product has PANEL^3 = 2^18 multiply-adds, below the size at which OpenBLAS
# splits a product over threads: on a small shared host the hand-off to a
# second thread can cost several milliseconds.
PANEL = 64
BLAS_MIN = 1 << 16  # multiply-adds from which matmul_mod uses a float64 product


def _mod_float(x: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """out = x mod p for float64 integers x with -2^52 < x < 2^53.

    The rounded quotient is within |x / p| * 2^-53 < 1/p of x / p, which is
    an integer (then the quotient is exact) or at least 1/p from one, so its
    floor q is exact, and so are q * p and x - q * p.  np.remainder on floats
    is several times slower.
    """
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=out)


def _float_exact(inner: int, p: int) -> bool:
    """Whether a float64 product of residue matrices with this inner size is exact."""
    return inner * (p - 1) ** 2 < 1 << 53


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for residue matrices, or stacks of them as np.matmul takes.

    A product of at least BLAS_MIN multiply-adds, counted over the whole
    stack, runs as a float64 BLAS product when that is exact, i.e.
    inner * (p - 1)^2 < 2^53 (numpy makes one BLAS call per matrix of a
    stack).  Smaller ones stay in int64,
    which numpy multiplies without BLAS, so a run that makes only small
    products never allocates BLAS's buffers.
    """
    a, b = np.asarray(a), np.asarray(b)
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    madds = int(np.prod(stack)) * a.shape[-2] * a.shape[-1] * b.shape[-1]
    if madds >= BLAS_MIN and _float_exact(a.shape[-1], p):
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return _mod_float(prod, p, out=prod).astype(np.int64)
    return as_residues(np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64), p)


def _eliminate(
    A: np.ndarray, p: int, n: Optional[int] = None, swaps: Optional[List[Tuple[int, int]]] = None
) -> List[int]:
    """The per-pivot loop: bring the first n columns of residues A (all by
    default) to RREF in place; returns the pivots.

    The columns from n on are tag columns, which the row operations carry
    along: the row that becomes pivot j gets a 1 in tag column n + j first.
    Each row exchange is appended to ``swaps`` when it is given.
    """
    m, width = A.shape
    n = width if n is None else n
    r = 0
    piv: List[int] = []
    for c in range(n):
        if r == m:
            break
        hits = A[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            if swaps is not None:
                swaps.append((r, i))
        # Row r is zero left of c, and its tags are zero from n + r + 1 on.
        end = min(width, n + r + 1)
        if end > n:
            A[r, n + r] = 1
        row = A[r, c:end]
        if row[0] != 1:
            row = A[r, c:end] = as_residues(row * inv_scalar(row[0], p), p)
        col = A[:, c]
        others = col.nonzero()[0]
        others = others[others != r]
        if others.size:
            A[others, c:end] = as_residues(A[others, c:end] - col[others, None] * row, p)
        piv.append(c)
        r += 1
    return piv


def _eliminate_blocked(A: np.ndarray, p: int) -> List[int]:
    """RREF of residues A in place, one column panel at a time.

    The per-pivot loop runs once per panel, on the rows below those already
    holding pivots, with one zero tag column per panel column.  Since the
    row that becomes pivot j is tagged in column j, the k pivot rows end with
    the inverse of their k x k pivot block (as it was before the panel) in
    their tags.  Those rows are swapped into place and multiplied by that
    inverse, and every other row with a nonzero entry in a pivot column is
    cleared by float64 tile products.
    """
    m, n = A.shape
    W = A.view(np.float64)  # the float64 working copy lives in A's own buffer
    _recast(A, W)
    r = 0
    piv: List[int] = []
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        panel = W[r:, c0 : c0 + PANEL]
        w = panel.shape[1]
        local = np.zeros((m - r, 2 * w), dtype=np.int64)
        local[:, :w] = panel
        swaps: List[Tuple[int, int]] = []
        found = _eliminate(local, p, w, swaps)
        if not found:
            continue
        k = len(found)
        for i, j in swaps:
            W[[r + i, r + j]] = W[[r + j, r + i]]
        cols = [c0 + c for c in found]
        pivot_rows = W[r : r + k]
        inverse = local[:k, w : w + k].astype(np.float64)
        for a in range(c0, n, PANEL):
            block = pivot_rows[:, a : a + PANEL]
            _mod_float(inverse @ block, p, out=block)
        factors = W[:, cols]
        touched = np.flatnonzero(factors.any(axis=1))
        touched = touched[(touched < r) | (touched >= r + k)]
        for t in range(0, touched.size, PANEL):
            rows = touched[t : t + PANEL]
            f = factors[rows]
            for a in range(c0, n, PANEL):
                update = f @ pivot_rows[:, a : a + PANEL]
                np.subtract(W[rows, a : a + PANEL], update, out=update)
                W[rows, a : a + PANEL] = _mod_float(update, p, out=update)
        piv.extend(cols)
        r += k
    _recast(W, A)
    return piv


def _recast(src: np.ndarray, dst: np.ndarray) -> None:
    """dst[:] = src where dst views src's buffer as the other 8-byte dtype.

    A PANEL of rows at a time, so numpy's copy of the overlapping source is
    one panel, not a second matrix.
    """
    for i in range(0, src.shape[0], PANEL):
        dst[i : i + PANEL] = src[i : i + PANEL]


def rref_array(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    Matrices with both dimensions above PANEL take the blocked path; the
    result is the same, since the RREF is unique.
    """
    A = as_residues(a, p)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    if min(A.shape) > PANEL:
        return A, _eliminate_blocked(A, p)
    return A, _eliminate(A, p)


def rank_array(a: np.ndarray, p: int) -> int:
    _, piv = rref_array(a, p)
    return len(piv)


def left_kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of {x : x @ a = 0}: ``right_kernel_basis`` of a^T."""
    return right_kernel_basis(np.asarray(a).T, p)


def right_kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of {x : a @ x^T = 0}, one row per free column of the RREF of a.

    The row of free column f has a 1 at f, zeros at the other free columns
    and minus column f of the RREF at the pivot columns, so the rows are
    independent residues but not in RREF; ``right_kernel_array`` gives the
    canonical basis.
    """
    A, piv = rref_array(a, p)
    n = A.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = as_residues(-A[: len(piv), free].T, p)
    return basis


def left_kernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (rows, in RREF) of {x : x @ a = 0}."""
    return right_kernel_array(np.asarray(a).T, p)


def right_kernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (rows, in RREF) of {x : a @ x^T = 0}: the RREF of
    ``right_kernel_basis``."""
    basis = right_kernel_basis(a, p)
    if not basis.shape[0]:
        return basis
    out, _ = rref_array(basis, p)
    return out


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution x of a @ x = b (column convention), free variables 0.

    b may hold several right-hand sides as its columns; all are solved by one
    elimination of [a | b], and None is returned unless every one is solvable.
    """
    a = as_residues(a, p)
    b = as_residues(b, p)
    rhs = b.reshape(b.shape[0], -1)
    if a.shape[0] != rhs.shape[0]:
        raise ValueError("dimension mismatch")
    n = a.shape[1]
    R, piv = rref_array(np.concatenate([a, rhs], axis=1), p)
    if piv and piv[-1] >= n:
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    x[piv] = R[: len(piv), n:]
    return x.reshape((n,) + b.shape[1:])


def solve_left(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution x of x @ a = b (row convention), free variables 0.

    b may be a stack of rows; the solutions then come back as a stack too.
    """
    x = solve_array(np.ascontiguousarray(np.asarray(a).T), np.asarray(b).T, p)
    return None if x is None else x.T


def vector_codes(t: int, p: int) -> np.ndarray:
    """Every vector of F_p^t as a row: row c holds the base-p digits of c,
    least significant first.  ``encode`` is its inverse."""
    return np.arange(p**t, dtype=np.int64)[:, None] // p ** np.arange(t, dtype=np.int64) % p


def encode(rows, p: int) -> np.ndarray:
    """The code of each vector along the last axis (entries taken mod p)."""
    rows = as_residues(rows, p)
    return rows @ p ** np.arange(rows.shape[-1], dtype=np.int64)


def is_invertible(a: np.ndarray, p: int) -> bool:
    a = as_residues(a, p)
    return a.shape[0] == a.shape[1] and rank_array(a, p) == a.shape[0]


# -- the echelon representation ------------------------------------------------
#
# A subspace of F_p^n is stored as its canonical RREF basis (no zero rows)
# together with the pivot column of each row.  Because the pivot columns of
# such a basis hold an identity block, reducing rows against it is one matrix
# product, rows - rows[:, pivots] @ basis, and no elimination.


def _reduce(rows: np.ndarray, basis: np.ndarray, pivots: Sequence[int], p: int) -> np.ndarray:
    """Residues of rows after clearing the pivot columns of an RREF basis."""
    B = as_residues(np.atleast_2d(rows), p)
    if len(pivots):
        B = as_residues(B - B[:, list(pivots)] @ basis, p)
    return B


def _extend(
    basis: np.ndarray, pivots: Sequence[int], rows: np.ndarray, p: int
) -> Tuple[np.ndarray, List[int], int]:
    """RREF basis and pivots of span(basis) + span(rows), and the rank gained.

    Only the residues of rows are eliminated; the old rows are then cleared
    at the new pivot columns and both sets are merged by pivot.
    """
    B = _reduce(rows, basis, pivots, p)
    B = B[np.any(B, axis=1)]
    if not B.shape[0]:
        return basis, list(pivots), 0
    R, new_piv = rref_array(B, p)
    new = R[: len(new_piv)]
    old = _reduce(basis, new, new_piv, p)
    merged_piv = list(pivots) + new_piv
    order = np.argsort(merged_piv, kind="stable")
    merged = np.vstack([old, new])[order]
    return merged, [merged_piv[i] for i in order], len(new_piv)


@dataclass(frozen=True, eq=False)
class FpSubspace:
    """Subspace of F_p^ambient_dim in its one echelon representation.

    Invariant: ``basis`` is the canonical RREF basis (int64 residues, no zero
    rows, read-only) and ``pivots[i]`` is the pivot column of row i, so two
    subspaces are equal exactly when their bases are.  ``from_rows`` builds
    one with exactly one elimination; ``RowSpace`` is the only mutable
    builder and hands over its rows with none.  The constructor checks the
    pivot structure without eliminating.
    """

    p: int
    ambient_dim: int
    basis: np.ndarray
    pivots: Tuple[int, ...]

    def __post_init__(self):
        b = as_residues(self.basis, self.p)
        piv = tuple(int(c) for c in self.pivots)
        if b.ndim != 2 or b.shape != (len(piv), self.ambient_dim):
            raise ValueError("basis must have one row per pivot and ambient_dim columns")
        increasing = all(c1 < c2 for c1, c2 in zip(piv, piv[1:]))
        if not increasing or (piv and not 0 <= piv[0] <= piv[-1] < b.shape[1]):
            raise ValueError("pivots must increase within the ambient dimension")
        before_pivot = np.arange(b.shape[1])[None, :] < np.array(piv, dtype=np.int64)[:, None]
        identity = np.array_equal(b[:, list(piv)], np.eye(len(piv), dtype=np.int64))
        if np.any(b[before_pivot]) or not identity:
            raise ValueError("basis must be in RREF with no zero rows")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "pivots", piv)

    @classmethod
    def from_rows(cls, rows, p: int, ambient_dim: Optional[int] = None) -> "FpSubspace":
        arr = as_residues(np.array(rows, dtype=np.int64), p)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.size == 0:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for empty row list")
            arr = arr.reshape(0, ambient_dim)
        R, piv = rref_array(arr, p)
        return cls(p, arr.shape[1], R[: len(piv)], tuple(piv))

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "FpSubspace":
        return cls(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Residues of rows modulo the subspace: zero exactly for members."""
        return _reduce(rows, self.basis, self.pivots, self.p)

    def contains(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return not np.any(self.reduce(other.basis))

    def sum(self, other: "FpSubspace") -> "FpSubspace":
        self._check_compatible(other)
        basis, piv, _ = _extend(self.basis, self.pivots, other.basis, self.p)
        return FpSubspace(self.p, self.ambient_dim, basis, tuple(piv))

    def _check_compatible(self, other: "FpSubspace"):
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspace mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpSubspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis.shape, self.basis.tobytes()))


class RowSpace:
    """Mutable builder of a row space, kept in the echelon representation.

    Used where a span really grows batch by batch (orbit closures, large
    equation systems); ``subspace()`` freezes it into an
    ``FpSubspace`` without another elimination.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows = np.zeros((0, ncols), dtype=np.int64)
        self._piv: List[int] = []

    @property
    def dim(self) -> int:
        return len(self._piv)

    @property
    def basis(self) -> np.ndarray:
        return self._rows

    def add(self, rows: np.ndarray) -> int:
        """Add rows to the span; returns the rank gained."""
        self._rows, self._piv, gained = _extend(self._rows, self._piv, rows, self.p)
        return gained

    def subspace(self) -> FpSubspace:
        return FpSubspace(self.p, self.ncols, self._rows, tuple(self._piv))


def complement_reps(sub: np.ndarray, space: np.ndarray, p: int) -> np.ndarray:
    """Rows of RREF(`space`) that extend row-space `sub` to span `space`.

    Deterministic and greedy: row i of the RREF basis R of `space` is kept
    when it lies outside the span of `sub` and of the rows of R before it,
    that is when column len(sub) + i of [sub; R]^T is a pivot column, so one
    elimination decides every row.  The kept rows are those of R as they
    are, not reduced against `sub`.
    """
    R, piv = rref_array(space, p)
    R = R[: len(piv)]
    k = len(sub)
    _, cols = rref_array(np.vstack([sub, R]).T, p)
    return R[[c - k for c in cols if c >= k]]
