"""Exact dense linear algebra over the prime field F_p.

Arrays in and out are numpy int64 arrays whose entries are residues in
[0, p).  Vectors are rows; the row-space convention matches the rest of the
library, where a module element is a row vector acted on from the right.

Elimination has two kernels.  At p = 2 and 3, ``rref_array``,
``left_kernel_basis`` and ``complement_reps`` pack each row into Python ints
and eliminate by word operations: one int per row and XOR at p = 2
(``_rref_f2``, ``_left_kernel_f2``), two bit planes per row at p = 3
(``_rref_f3``, ``_left_kernel_f3``).  The RREF of a matrix of fewer than
PACK_MIN entries runs the numpy per-pivot loop (``_eliminate``) instead, as
does every elimination at p >= 5.  The loop is the tests' oracle at every p.
Left kernels and complements need no transpose.  ``RowSpace``, the
incremental builder, keeps the same packed echelon at p = 2 and 3 and
reduces each row once as it is added; its basis comes out by one
back-substitution (``_echelon_rref``), the one that ``_rref_f2`` and
``_rref_f3`` end with.

Integer arrays are brought back to residues by ``as_residues`` alone, but for
the packed F_2 kernel, which reads each entry's parity as it packs.  numpy's
int64 remainder runs a hardware division per element, several times the cost
of a floor division by a scalar, which numpy turns into a multiply and a
shift, so on all but small arrays a residue is formed as x - (x // p) * p,
and at p = 2 as x & 1.  Large float64 products are reduced by ``_mod_float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


# The multiply-adds from which matmul_mod runs a product through float64 BLAS,
# which is exact while every partial sum stays below 2^53 (``_float_exact``).
BLAS_MIN = 1 << 16


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


def _eliminate(A: np.ndarray, p: int) -> List[int]:
    """The per-pivot loop: bring the residues A to RREF in place; returns the
    pivots."""
    m, n = A.shape
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
        row = A[r, c:]  # row r is zero left of c
        if row[0] != 1:
            row = A[r, c:] = as_residues(row * inv_scalar(row[0], p), p)
        col = A[:, c]
        others = col.nonzero()[0]
        others = others[others != r]
        if others.size:
            A[others, c:] = as_residues(A[others, c:] - col[others, None] * row, p)
        piv.append(c)
        r += 1
    return piv


# -- F_2 on packed rows ---------------------------------------------------------
#
# At p = 2 a row of n entries is one Python int with column j at bit
# 8 * ceil(n / 8) - 1 - j, the order of np.packbits, so the leading column of
# a row is read from bit_length() and a row operation is one XOR.  An echelon
# is a dict from leading bit to packed row.


# An RREF over F_2 or F_3 of fewer entries than this runs the per-pivot loop,
# which costs less there than packing and unpacking.  On a 2-vCPU Xeon host,
# over the F_2 RREFs that find-noninner makes: about 4.5 against 8 us per call
# on its 690 single-row or single-column ones below 9 entries, while from 9
# entries on (and at 2 x 2 and 2 x 3) packing costs less.  Over the F_3 RREFs
# of the registry checks the two break even at about 9 to 12 entries.
PACK_MIN = 9


def _pack_f2(A: np.ndarray) -> List[int]:
    """The rows of the int64 matrix A, taken mod 2, as packed ints.

    The parity comes from an unsafe cast to uint8, which keeps the lowest bit
    of every int64, negatives included (two's complement), so no int64
    residue copy of A is made.
    """
    return _ints_of_rows(np.packbits(np.bitwise_and(A, 1, dtype=np.uint8, casting="unsafe"), axis=1))


def _ints_of_rows(bits: np.ndarray) -> List[int]:
    """The rows of a uint8 matrix, each read as one big-endian int.

    Rows of at most 8 bytes, which most are, are read by numpy as 64-bit
    words, all at once, instead of by one int.from_bytes call each.
    """
    m, nbytes = bits.shape
    if nbytes <= 8:
        words = np.zeros((m, 8), dtype=np.uint8)
        words[:, 8 - nbytes :] = bits
        return words.view(">u8").ravel().tolist()
    data = bits.tobytes()
    return [int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "big") for i in range(m)]


def _unpack_bits(rows: Sequence[int], n: int, bitorder: str) -> np.ndarray:
    """Packed rows back to a writable uint8 matrix of n columns."""
    nbytes = (n + 7) // 8
    data = b"".join([row.to_bytes(nbytes, bitorder) for row in rows])
    bits = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(bits, axis=1, count=n, bitorder=bitorder)


def _unpack_f2(rows: Sequence[int], n: int, bitorder: str = "big") -> np.ndarray:
    """Packed rows back to an int64 matrix of n columns; with ``bitorder``
    "little", column j is read from bit j instead."""
    return _unpack_bits(rows, n, bitorder).astype(np.int64)


def _reduce_f2(echelon: Dict[int, int], row: int, floor: int) -> int:
    """row reduced by the echelon rows at its leading bit until that bit is
    below ``floor`` or new; a row with a new leading bit joins ``echelon``."""
    lead = row.bit_length() - 1
    while lead >= floor:
        other = echelon.get(lead)
        if other is None:
            echelon[lead] = row
            break
        row ^= other
        lead = row.bit_length() - 1
    return row


def _rref_f2(A: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """``rref_array`` of the int64 matrix A at p = 2: each row joins the
    echelon or reduces to zero, then ``_echelon_rref``."""
    echelon: Dict[int, int] = {}
    for row in _pack_f2(A):
        _reduce_f2(echelon, row, 0)
    return _echelon_rref(echelon, 2, *A.shape)


def _left_kernel_f2(A: np.ndarray) -> np.ndarray:
    """``left_kernel_basis`` of the int64 matrix A at p = 2, in the same basis.

    Row i is packed above an m-bit tag holding e_i (column i at bit i) and
    reduced in order, tag and all.  Every echelon row's tag is supported on
    the independent rows before it, so a row i whose entries reduce to zero
    leaves e_i plus the unique expression of row i in the independent rows
    before it.  Those are the free columns of a^T and their kernel rows in
    ``right_kernel_basis(a^T)``: a 1 at i and the column of the RREF at the
    pivots before it.  No transpose or second elimination is needed.
    """
    m = A.shape[0]
    echelon: Dict[int, int] = {}
    kernel = []
    for i, row in enumerate(_pack_f2(A)):
        row = _reduce_f2(echelon, row << m | 1 << i, m)
        if row.bit_length() <= m:
            kernel.append(row)
    return _unpack_f2(kernel, m, "little")


# -- F_3 on bit-sliced rows -----------------------------------------------------
#
# At p = 3 a row is a pair of packed ints in the layout above: the bit plane
# of its entries equal to 1 and that of its entries equal to 2 (Boothby &
# Bradshaw, "Bitslicing and the method of four Russians over larger finite
# fields", 2009), so (ones | twos).bit_length() gives the leading column.
# The sum of two rows takes six word operations (Harrison, Page & Smart,
# "Software implementation of finite fields of characteristic three", LMS J.
# Comput. Math. 5, 2002), and negation swaps the planes.  An echelon maps a
# leading bit to a row whose entry there is 1.


_PLANES = np.array([1, 2]).reshape(2, 1, 1)


def _pack_f3(A: np.ndarray) -> List[Tuple[int, int]]:
    """The rows of the int64 matrix A, taken mod 3, as pairs of packed ints."""
    m, n = A.shape
    rows = _ints_of_rows(np.packbits(as_residues(A, 3) == _PLANES, axis=2).reshape(2 * m, (n + 7) // 8))
    return list(zip(rows[:m], rows[m:]))


def _unpack_f3(rows: Sequence[Tuple[int, int]], n: int, bitorder: str = "big") -> np.ndarray:
    """Row pairs back to an int64 matrix of n residue columns (``_unpack_f2``)."""
    m = len(rows)
    bits = _unpack_bits([row[0] for row in rows] + [row[1] for row in rows], n, bitorder)
    bits[m:] <<= 1
    bits[:m] |= bits[m:]
    return bits[:m].astype(np.int64)


def _reduce_f3(echelon: Dict[int, Tuple[int, int]], ones: int, twos: int, floor: int) -> Tuple[int, int]:
    """``_reduce_f2`` on a row pair: a row with a new leading bit joins
    ``echelon`` scaled to a leading 1."""
    lead = (ones | twos).bit_length() - 1
    while lead >= floor:
        other = echelon.get(lead)
        if other is None:
            echelon[lead] = (twos, ones) if twos >> lead else (ones, twos)
            break
        # Add the echelon row times minus the row's leading entry.
        b2, b1 = other if ones >> lead else other[::-1]
        t = (ones | b2) ^ (twos | b1)
        ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
        lead = (ones | twos).bit_length() - 1
    return ones, twos


def _rref_f3(A: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """``rref_array`` of the int64 matrix A at p = 3: ``_rref_f2`` on row
    pairs."""
    echelon: Dict[int, Tuple[int, int]] = {}
    for ones, twos in _pack_f3(A):
        _reduce_f3(echelon, ones, twos, 0)
    return _echelon_rref(echelon, 3, *A.shape)


def _echelon_rref(echelon: dict, p: int, m: int, n: int) -> Tuple[np.ndarray, List[int]]:
    """The RREF of the span of a packed echelon of n columns (``_reduce_f2``
    at p = 2, ``_reduce_f3`` at p = 3) as an int64 matrix padded with zero
    rows to m rows, and its pivot columns.  The echelon is left as it is.

    Back-substitution runs from the last pivot column to the first: each
    echelon row is cleared at the pivot columns after its own by the reduced
    rows there, which bring no other pivot bit back.  At p = 3 a row with
    entry c at such a column is cleared by adding -c times the reduced row.
    """
    leads = sorted(echelon)  # the last pivot column first
    reduced: dict = {}
    later = 0  # the bits of the pivot columns after the current one
    for lead in leads:
        row = echelon[lead]
        if p == 2:
            hits = row & later
            while hits:
                bit = hits.bit_length() - 1
                row ^= reduced[bit]
                hits ^= 1 << bit
        else:
            ones, twos = row
            hits = (ones | twos) & later
            while hits:
                at = hits.bit_length() - 1
                bit = 1 << at
                other = reduced[at]
                b2, b1 = other if ones & bit else other[::-1]
                t = (ones | b2) ^ (twos | b1)
                ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
                hits ^= bit
            row = (ones, twos)
        reduced[lead] = row
        later |= 1 << lead
    leads.reverse()
    rows = [reduced[lead] for lead in leads]
    width = 8 * ((n + 7) // 8)
    if p == 2:
        R = _unpack_f2(rows + [0] * (m - len(rows)), n)
    else:
        R = _unpack_f3(rows + [(0, 0)] * (m - len(rows)), n)
    return R, [width - 1 - lead for lead in leads]


def _left_kernel_f3(A: np.ndarray) -> np.ndarray:
    """``left_kernel_basis`` of the int64 matrix A at p = 3, in the same
    basis, by the tagged pass of ``_left_kernel_f2``."""
    m = A.shape[0]
    echelon: Dict[int, Tuple[int, int]] = {}
    kernel = []
    for i, (ones, twos) in enumerate(_pack_f3(A)):
        row = _reduce_f3(echelon, ones << m | 1 << i, twos << m, m)
        if (row[0] | row[1]).bit_length() <= m:
            kernel.append(row)
    return _unpack_f3(kernel, m, "little")


def _int_matrix(a) -> np.ndarray:
    A = np.asarray(a, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    return A


def rref_array(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    A matrix of at least PACK_MIN entries runs on packed rows at p = 2
    (``_rref_f2``) and p = 3 (``_rref_f3``), whatever its shape.  The rest
    take the per-pivot loop.  Every path gives the same result, since the
    RREF is unique.
    """
    A = _int_matrix(a)
    if p == 2 and A.size >= PACK_MIN:
        return _rref_f2(A)
    if p == 3 and A.size >= PACK_MIN:
        return _rref_f3(A)
    A = as_residues(A, p)
    return A, _eliminate(A, p)


def rank_array(a: np.ndarray, p: int) -> int:
    _, piv = rref_array(a, p)
    return len(piv)


def left_kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of {x : x @ a = 0}: ``right_kernel_basis`` of a^T.

    At p = 2 and 3 the same basis comes from one pass over the rows of a
    (``_left_kernel_f2``, ``_left_kernel_f3``), with no transpose; it is the
    same because each of its rows is the unique kernel vector with a 1 at
    one dependent row and its other entries at the independent rows before
    it.
    """
    if p == 2:
        return _left_kernel_f2(_int_matrix(a))
    if p == 3:
        return _left_kernel_f3(_int_matrix(a))
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
) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """RREF basis and pivots of span(basis) + span(rows), and the rows that
    joined: one per pivot gained, reduced against the old basis.

    Only the residues of rows are eliminated; the old rows are then cleared
    at the new pivot columns and both sets are merged by pivot.
    """
    B = _reduce(rows, basis, pivots, p)
    B = B[np.any(B, axis=1)]
    if not B.shape[0]:
        return basis, list(pivots), B
    R, new_piv = rref_array(B, p)
    new = R[: len(new_piv)]
    old = _reduce(basis, new, new_piv, p)
    merged_piv = list(pivots) + new_piv
    order = np.argsort(merged_piv, kind="stable")
    merged = np.vstack([old, new])[order]
    return merged, [merged_piv[i] for i in order], new


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
        if piv:
            # RREF with no zero rows: each row's first nonzero entry is a 1
            # at its pivot, and the pivot columns hold no other nonzero entry.
            nonzero = b != 0
            at = np.array(piv)
            rref = (
                (nonzero.argmax(axis=1) == at).all()
                and (b[np.arange(len(piv)), at] == 1).all()
                and np.count_nonzero(nonzero[:, at]) == len(piv)
            )
            if not rref:
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
    """Mutable builder of a row space: the one place where a span grows batch
    by batch (submodule closures, filtration products).

    At p = 2 and 3 it keeps a packed echelon, a dict from leading bit to
    packed row as ``_reduce_f2`` and ``_reduce_f3`` build it: ``add`` packs a
    batch once and reduces each row, which joins with a new leading bit or
    vanishes, and a row never changes once it is in.  ``basis`` and
    ``subspace()`` back-substitute and unpack once (``_echelon_rref``), with
    no ``rref_array``.  At p >= 5 it keeps the RREF basis and merges each
    batch into it (``_extend``).
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._echelon: dict = {}  # p = 2, 3: leading bit -> packed row
        self._rows = np.zeros((0, ncols), dtype=np.int64)  # p >= 5: the RREF basis
        self._piv: List[int] = []
        # The leading bits (p = 2, 3) or the rows (p >= 5) in the order they joined.
        self._joined: list = []

    @property
    def dim(self) -> int:
        return len(self._joined)

    @property
    def basis(self) -> np.ndarray:
        return self._rref()[0]

    def add(self, rows) -> int:
        """Add one row or a batch of rows of ``ncols`` columns to the span;
        returns the rank gained."""
        A = np.asarray(rows, dtype=np.int64)
        if A.ndim == 1:
            A = A[None]
        if A.ndim != 2 or A.shape[1] != self.ncols:
            raise ValueError(f"rows of {self.ncols} columns expected, got shape {np.shape(rows)}")
        before = self.dim
        # A row repeated in the batch lies in the span once its first copy
        # is in, so only the first copy is reduced.
        if self.p == 2:
            for row in dict.fromkeys(_pack_f2(A)):
                row = _reduce_f2(self._echelon, row, 0)
                if row:
                    self._joined.append(row.bit_length() - 1)
        elif self.p == 3:
            for ones, twos in dict.fromkeys(_pack_f3(A)):
                ones, twos = _reduce_f3(self._echelon, ones, twos, 0)
                if ones | twos:
                    self._joined.append((ones | twos).bit_length() - 1)
        else:
            self._rows, self._piv, new = _extend(self._rows, self._piv, A, self.p)
            self._joined.extend(new)
        return self.dim - before

    def joined(self, start: int = 0) -> np.ndarray:
        """The rows that joined the span after the first ``start``, in the
        order they joined, as they joined (not in RREF): the first k of them
        span the space the builder had at dim k."""
        if self.p == 2:
            return _unpack_f2([self._echelon[lead] for lead in self._joined[start:]], self.ncols)
        if self.p == 3:
            return _unpack_f3([self._echelon[lead] for lead in self._joined[start:]], self.ncols)
        rows = self._joined[start:]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.ncols)

    def _rref(self) -> Tuple[np.ndarray, List[int]]:
        if self.p in (2, 3):
            return _echelon_rref(self._echelon, self.p, self.dim, self.ncols)
        return self._rows, self._piv

    def subspace(self) -> FpSubspace:
        basis, piv = self._rref()
        return FpSubspace(self.p, self.ncols, basis, tuple(piv))


def complement_reps(sub: np.ndarray, space: np.ndarray, p: int) -> np.ndarray:
    """Rows of RREF(`space`) that extend row-space `sub` to span `space`.

    Deterministic and greedy: row i of the RREF basis R of `space` is kept
    when it lies outside the span of `sub` and of the rows of R before it,
    that is when column len(sub) + i of [sub; R]^T is a pivot column.  At
    p = 2 and 3 one pass over the packed rows of [sub; R] in order decides
    every row: a row is kept when it reduces to something nonzero, and so
    joins the echelon.  At p >= 5 the RREF of [sub; R]^T does.  The kept
    rows are those of R as they are, not reduced against `sub`.
    """
    R, piv = rref_array(space, p)
    R = R[: len(piv)]
    k = len(sub)
    rows = np.vstack([sub, R])
    echelon: dict = {}
    if p == 2:
        new = [i for i, row in enumerate(_pack_f2(rows)) if _reduce_f2(echelon, row, 0)]
    elif p == 3:
        new = [i for i, (ones, twos) in enumerate(_pack_f3(rows)) if any(_reduce_f3(echelon, ones, twos, 0))]
    else:
        _, new = rref_array(rows.T, p)
    return R[[i - k for i in new if i >= k]]
