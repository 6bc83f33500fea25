import contextlib
import itertools
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pgv.fp_linalg as fl
from pgv.fp_linalg import (
    FpSubspace,
    RowSpace,
    check_prime,
    complement_reps,
    left_kernel_array,
    left_kernel_basis,
    matmul_mod,
    rank_array,
    right_kernel_array,
    right_kernel_basis,
    rref_array,
    solve_array,
    solve_left,
)
from pgv.cohomology import cohomology
from pgv.gmodule import _closure
from tests.groups import (
    NumpyRowSpace,
    intersect,
    loop_left_kernel,
    naive_closure,
    numpy_loop_rref,
    small_modules,
    transposed_complement_reps,
)


def all_vectors(n, p):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def span_by_enumeration(rows, p):
    """Oracle: the set of all F_p-combinations of the given rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    seen = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        v = tuple((np.array(coeffs) @ rows) % p)
        seen.add(v)
    return seen


def kernel_space(m, p):
    """Right kernel {v : m @ v = 0} as a subspace."""
    m = np.atleast_2d(np.asarray(m, dtype=np.int64))
    return FpSubspace.from_rows(right_kernel_array(m, p), p, m.shape[1])


def test_rref_identity_f2():
    R, piv = rref_array(np.eye(3, dtype=np.int64), 2)
    assert np.array_equal(R, np.eye(3, dtype=np.int64))
    assert len(piv) == 3
    assert piv == [0, 1, 2]


def test_rref_single_row_f2():
    R, piv = rref_array(np.array([[1, 1]]), 2)
    assert np.array_equal(R, [[1, 1]])
    assert len(piv) == 1 and piv == [0]


def test_rref_rank_matches_span_enumeration_f3():
    rng = np.random.default_rng(7)
    for _ in range(8):
        m = rng.integers(0, 3, size=(4, 4))
        rank = rank_array(m, 3)
        # Oracle: size of the row span equals 3^rank.
        assert len(span_by_enumeration(m, 3)) == 3**rank


def test_rref_idempotent():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(6):
            m = rng.integers(0, p, size=(5, 7))
            R1, piv1 = rref_array(m, p)
            R2, piv2 = rref_array(R1, p)
            assert np.array_equal(R1, R2) and piv1 == piv2


def test_kernel_forced_by_rank_nullity():
    k = kernel_space([[1, 1]], 2)
    assert k.dim == 1
    assert not k.reduce([1, 1]).any()
    k2 = kernel_space(np.eye(2, dtype=np.int64), 3)
    assert k2.dim == 0


def test_kernel_membership_exhaustive_f2():
    rng = np.random.default_rng(11)
    m = rng.integers(0, 2, size=(3, 5))
    k = kernel_space(m, 2)
    members = {
        tuple(v) for v in all_vectors(5, 2) if not np.any((m @ v) % 2)
    }
    claimed = span_by_enumeration(k.basis, 2) if k.dim else {tuple([0] * 5)}
    assert members == claimed


def test_rank_nullity_random():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        for _ in range(10):
            m = rng.integers(0, p, size=(4, 6))
            _, piv = rref_array(m, p)
            assert len(piv) + kernel_space(m, p).dim == 6


def test_solve_identity():
    b = np.array([4, 0, 2])
    assert np.array_equal(solve_array(np.eye(3, dtype=np.int64), b, 5), b)


def test_solve_inconsistent():
    assert solve_array(np.array([[1], [1]]), np.array([0, 1]), 2) is None


def test_solve_consistent_f3_vs_enumeration():
    rng = np.random.default_rng(13)
    found = 0
    while found < 5:
        m = rng.integers(0, 3, size=(3, 3))
        x_true = rng.integers(0, 3, size=3)
        b = (m @ x_true) % 3
        x = solve_array(m, b, 3)
        assert x is not None
        assert np.array_equal((m @ x) % 3, b)
        # Oracle: x is among the full solution set enumerated over 27 vectors.
        sols = [v for v in all_vectors(3, 3) if np.array_equal((m @ v) % 3, b)]
        assert any(np.array_equal(x, v) for v in sols)
        found += 1


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_array(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), 2)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solve_left_stack_matches_row_by_row(p, k, rows, seed):
    """One elimination for a stack of right-hand sides gives the same rows as
    solving each row on its own, and None as soon as one row is unsolvable."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, size=(k, 6))
    b = (rng.integers(0, p, size=(rows, k)) @ basis) % p
    got = solve_left(basis, b, p)
    assert got is not None and got.shape == (rows, k)
    for row, x in zip(b, got):
        assert np.array_equal(solve_left(basis, row, p), x)
        assert np.array_equal((x @ basis) % p, row)
    outside = [v for v in all_vectors(6, p)[: p**3] if solve_left(basis, v, p) is None]
    if outside:
        assert solve_left(basis, np.vstack([b, outside[0]]), p) is None


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(2, 0, 0)
@example(7, 0, 0)
@example(7, 4, 0)
def test_vector_codes_encode_round_trip(p, t, seed):
    codes = fl.vector_codes(t, p)
    assert codes.shape == (p**t, t)
    assert np.array_equal(fl.encode(codes, p), np.arange(p**t))
    # Row c holds the digits of c, least significant first.
    assert [tuple(r) for r in codes] == [v[::-1] for v in itertools.product(range(p), repeat=t)]
    # Entries are read mod p: unreduced and negative representatives agree.
    shift = np.random.default_rng(seed).integers(-3, 4, size=codes.shape)
    assert np.array_equal(fl.encode(codes + p * shift, p), np.arange(p**t))
    assert np.array_equal(fl.encode(-codes, p), fl.encode((p - codes) % p, p))


def test_subspace_sum_with_zero():
    u = FpSubspace.from_rows([[1, 0, 1], [0, 1, 0]], 2)
    z = FpSubspace.zero(3, 2)
    assert u.sum(z) == u
    assert intersect(u, u) == u


def test_subspace_modular_law_f2_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = FpSubspace.from_rows(rng.integers(0, 2, size=(3, 6)), 2)
        v = FpSubspace.from_rows(rng.integers(0, 2, size=(3, 6)), 2)
        s = u.sum(v)
        i = intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        # Oracle: membership agreement by exhaustive enumeration.
        su = span_by_enumeration(u.basis, 2) if u.dim else {(0,) * 6}
        sv = span_by_enumeration(v.basis, 2) if v.dim else {(0,) * 6}
        inter = su & sv
        got = span_by_enumeration(i.basis, 2) if i.dim else {(0,) * 6}
        assert inter == got


def test_rowspace_incremental_matches_batch():
    rng = np.random.default_rng(23)
    for p in (2, 3):
        rows = rng.integers(0, p, size=(12, 8))
        rs = RowSpace(p, 8)
        for i in range(0, 12, 3):
            rs.add(rows[i : i + 3])
        R, piv = rref_array(rows, p)
        assert np.array_equal(rs.basis, R[: len(piv)])


def test_complement_reps_extends_basis():
    sub = np.array([[1, 0, 0, 0]], dtype=np.int64)
    space = np.eye(4, dtype=np.int64)
    reps = complement_reps(sub, space, 2)
    assert reps.shape[0] == 3


def reference_complement_reps(sub, space, p):
    """Oracle: add the RREF rows of `space` one at a time to a RowSpace
    holding `sub`, keeping each row that grows the rank."""
    n = space.shape[1]
    acc = RowSpace(p, n)
    acc.add(sub)
    R, piv = rref_array(space, p)
    kept = [row for row in R[: len(piv)] if acc.add(row.reshape(1, -1))]
    return np.array(kept, dtype=np.int64).reshape(len(kept), n)


def test_complement_reps_matches_row_at_a_time_reference():
    rng = np.random.default_rng(41)
    for p in (2, 3, 5):
        for n in range(7):  # n = 0 is H^2 of the trivial group
            for _ in range(10):
                # Random rows: in general neither in RREF nor independent.
                space = rng.integers(0, p, size=(int(rng.integers(0, 6)), n))
                sub = rng.integers(0, p, size=(int(rng.integers(0, 4)), n))
                combination = (sub[:1] * (p - 1) + sub[-1:]) % p
                dependent = np.vstack([sub, combination, np.zeros((1, n), dtype=np.int64)])
                for s in (sub, dependent, sub[:0], np.vstack([space, sub]), space[::-1]):
                    got = complement_reps(s, space, p)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, reference_complement_reps(s, space, p)), (p, n, s, space)


EDGES = np.array([0, -1, 1, 1 << 62, -(1 << 62), (1 << 62) - 1, 1 - (1 << 62)], dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.sampled_from(["0-d", "row", "matrix", "transposed", "strided"]),
    st.integers(min_value=1, max_value=3 * fl.DIVIDE_MIN),
    st.integers(min_value=1, max_value=62),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=3, layout="row", size=fl.DIVIDE_MIN - 1, bits=62, seed=0)
@example(p=3, layout="row", size=fl.DIVIDE_MIN, bits=62, seed=0)
@example(p=32749, layout="transposed", size=2 * fl.DIVIDE_MIN, bits=62, seed=1)
@example(p=2, layout="strided", size=fl.DIVIDE_MIN + 1, bits=62, seed=2)
@example(p=5, layout="0-d", size=1, bits=62, seed=3)
def test_as_residues_matches_np_remainder(p, layout, size, bits, seed):
    # Every int64 value up to +-2^62, negatives included, on both sides of
    # DIVIDE_MIN, in views that are not C-contiguous; the input stays as it is.
    rng = np.random.default_rng(seed)
    bound = 1 << bits
    values = rng.integers(-bound, bound, size=2 * size, dtype=np.int64, endpoint=True)
    values[: EDGES.size] = EDGES[: 2 * size]
    if layout == "0-d":
        a = np.array(values[0])
    elif layout == "row":
        a = values[:size]
    elif layout == "matrix":
        a = values.reshape(2, size)
    elif layout == "transposed":
        a = values.reshape(2, size).T
    else:
        a = values[::2]
    before = a.copy()

    got = fl.as_residues(a, p)
    want = np.remainder(a, p)
    assert np.array_equal(a, before)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    if a.ndim:
        assert got.flags.c_contiguous and not np.shares_memory(got, a)


def test_check_prime_rejects():
    for bad in (1, 4, 9, (1 << 15) + 1):
        with pytest.raises(ValueError):
            check_prime(bad)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solve_exact_when_present(p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(4, 5))
    x = rng.integers(0, p, size=5)
    b = (m @ x) % p
    got = solve_array(m, b, p)
    assert got is not None
    assert np.array_equal((m @ got) % p, b)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_left_kernel_annihilates(p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(5, 4))
    k = left_kernel_array(m, p)
    assert not np.any((k @ m) % p)
    assert k.shape[0] == 5 - rank_array(m, p)


# -- the one echelon representation --------------------------------------------


def span_or_zero(rows, p, n):
    return span_by_enumeration(rows, p) if len(rows) else {(0,) * n}


def small(p, *row_counts):
    """True when enumerating every combination of each row set stays cheap."""
    return all(p**k <= 729 for k in row_counts)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_builders_agree_on_canonical_basis_and_pivots(p, n, m, nmats, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(m, n))
    R, piv = rref_array(rows, p)
    want = R[: len(piv)]

    sub = FpSubspace.from_rows(rows, p, n)
    assert np.array_equal(sub.basis, want) and sub.pivots == tuple(piv)

    rs = RowSpace(p, n)
    for lo in range(0, m, 2):
        rs.add(rows[lo : lo + 2])
    built = rs.subspace()
    assert np.array_equal(built.basis, want) and built.pivots == tuple(piv)
    assert built == sub and hash(built) == hash(sub)

    assert _closure(p, rows, []) == sub
    mats = [rng.integers(0, p, size=(n, n)) for _ in range(nmats)]
    closed = _closure(p, rows, mats)
    c_basis, c_piv = naive_closure(rows, mats, p)
    assert np.array_equal(closed.basis, c_basis) and closed.pivots == tuple(c_piv)

    if small(p, m, n):
        members = span_or_zero(rows, p, n)
        assert span_or_zero(sub.basis, p, n) == members
        closed_members = span_or_zero(closed.basis, p, n)
        assert members <= closed_members
        for mtx in mats:
            assert {tuple((np.array(v) @ mtx) % p) for v in closed_members} <= closed_members


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contains_sum_intersect_match_rank_definitions(p, n, ku, kv, seed):
    rng = np.random.default_rng(seed)
    u_rows = rng.integers(0, p, size=(ku, n))
    v_rows = rng.integers(0, p, size=(kv, n))
    u = FpSubspace.from_rows(u_rows, p, n)
    v = FpSubspace.from_rows(v_rows, p, n)
    stacked = np.vstack([u_rows, v_rows]).reshape(-1, n)
    rank_sum = rank_array(stacked, p) if stacked.size else 0

    assert u.contains(v) == (rank_sum == u.dim)
    s = u.sum(v)
    assert s == FpSubspace.from_rows(stacked, p, n) and s.dim == rank_sum
    i = intersect(u, v)
    assert i.dim == u.dim + v.dim - rank_sum
    assert u.contains(i) and v.contains(i)
    x = rng.integers(0, p, size=n)
    with_x = np.vstack([u.basis, x[None, :]])
    assert (not u.reduce(x).any()) == (rank_array(with_x, p) == u.dim)

    if small(p, n, ku + kv):
        su, sv = span_or_zero(u.basis, p, n), span_or_zero(v.basis, p, n)
        assert span_or_zero(i.basis, p, n) == su & sv
        assert span_or_zero(s.basis, p, n) == span_or_zero(stacked, p, n)
        assert u.contains(v) == (sv <= su)


def test_rref_runs_once_per_from_rows_and_never_per_subspace(monkeypatch):
    calls = []
    real = fl.rref_array

    def counting(a, p):
        calls.append(np.shape(a))
        return real(a, p)

    monkeypatch.setattr(fl, "rref_array", counting)
    rows = np.array([[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0]])
    sub = FpSubspace.from_rows(rows, 3)
    assert len(calls) == 1
    rs = RowSpace(3, 4)
    rs.add(rows)
    calls.clear()
    assert rs.subspace() == sub
    assert calls == []


def test_subspace_basis_is_read_only_echelon():
    sub = FpSubspace.from_rows([[0, 2, 1], [0, 1, 1]], 3)
    assert sub.pivots == (1, 2)
    with pytest.raises(ValueError):
        sub.basis[0, 0] = 1
    with pytest.raises(ValueError):  # not reduced above the second pivot
        FpSubspace(3, 3, np.array([[0, 1, 1], [0, 0, 1]]), (1, 2))
    with pytest.raises(ValueError):  # pivot entry is not 1
        FpSubspace(3, 3, np.array([[0, 2, 0]]), (1,))
    with pytest.raises(ValueError):  # a zero row
        FpSubspace(3, 3, np.zeros((1, 3), dtype=np.int64), (0,))
    with pytest.raises(ValueError):  # a nonzero entry before the first row's pivot
        FpSubspace(3, 3, np.array([[1, 1, 0], [0, 0, 1]]), (1, 2))
    with pytest.raises(ValueError):  # pivots out of order
        FpSubspace(3, 3, np.array([[0, 0, 1], [1, 0, 0]]), (2, 0))
    with pytest.raises(ValueError):  # a pivot repeated
        FpSubspace(3, 3, np.array([[0, 1, 0], [0, 1, 1]]), (1, 1))
    with pytest.raises(ValueError):  # a second nonzero entry below the first pivot
        FpSubspace(3, 3, np.array([[1, 0, 0], [2, 1, 0]]), (0, 1))
    with pytest.raises(ValueError):  # a pivot outside the ambient dimension
        FpSubspace(3, 3, np.array([[0, 0, 0]]), (3,))
    # Bases in RREF are accepted, the empty one too.
    assert FpSubspace(3, 3, np.array([[1, 0, 2], [0, 1, 1]]), (0, 1)).dim == 2
    assert FpSubspace(3, 0, np.zeros((0, 0), dtype=np.int64), ()).dim == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rowspace_add_checks_the_batch_width(p):
    rs = RowSpace(p, 4)
    for bad in (np.ones((2, 3)), np.ones((2, 5)), np.ones(5), np.ones((1, 2, 4)), np.zeros((0, 3))):
        with pytest.raises(ValueError):
            rs.add(bad)
    assert rs.dim == 0
    assert rs.add(np.zeros((0, 4), dtype=np.int64)) == 0
    assert rs.add([1, 0, 0, 1]) == 1  # one row, 1-D
    assert rs.add(np.array([p + 1, 0, 0, 1])) == 0
    for bad in (np.ones((1, 3)), np.ones(8), [[1, 2, 3, 4, 5]]):
        with pytest.raises(ValueError):
            rs.add(bad)
    assert rs.add(np.zeros((0, 4))) == 0 and rs.dim == 1
    assert np.array_equal(rs.basis, [[1, 0, 0, 1]]) and rs.subspace().pivots == (0,)


def rowspace_batch(kind, m, ncols, p, rng, earlier):
    if kind == "zero":
        return np.zeros((m, ncols), dtype=np.int64)
    if kind == "repeat":  # an earlier batch again
        return earlier[int(rng.integers(len(earlier)))] if earlier else np.zeros((0, ncols), dtype=np.int64)
    if kind == "row":
        return rng.integers(0, p, size=ncols)
    if kind == "low rank":
        return rng.integers(0, p, size=(m, 2)) @ rng.integers(0, p, size=(2, ncols))
    return rng.integers(-p, 2 * p, size=(m, ncols))  # raw entries, not residues


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from([0, 1, 8, 9, 70]),
    st.lists(
        st.tuples(st.sampled_from(["random", "zero", "repeat", "row", "low rank"]), st.integers(0, 12)), max_size=8
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, ncols=70, batches=[("random", 12), ("repeat", 0), ("low rank", 12), ("zero", 3)], seed=0)
@example(p=3, ncols=9, batches=[("row", 1), ("repeat", 0), ("random", 12), ("random", 12)], seed=1)
@example(p=5, ncols=8, batches=[("zero", 0), ("random", 3), ("repeat", 0), ("random", 12)], seed=2)
@example(p=5, ncols=0, batches=[("random", 3), ("row", 0), ("random", 0)], seed=3)
@example(p=2, ncols=1, batches=[("zero", 2), ("row", 0), ("random", 4)], seed=4)
@example(p=3, ncols=0, batches=[("row", 0), ("zero", 5)], seed=5)
def test_rowspace_matches_the_numpy_builder_after_every_batch(p, ncols, batches, seed):
    rng = np.random.default_rng(seed)
    fast, slow = RowSpace(p, ncols), NumpyRowSpace(p, ncols)
    earlier = []
    for kind, m in batches:
        rows = rowspace_batch(kind, m, ncols, p, rng, earlier)
        earlier.append(rows)
        with deadline():
            gained = fast.add(rows)
        assert gained == slow.add(rows) and fast.dim == slow.dim
        basis = fast.basis
        assert basis.dtype == np.int64 and np.array_equal(basis, slow.basis)
        sub, want = fast.subspace(), slow.subspace()
        assert sub == want and sub.pivots == want.pivots
        # What joined, in order, spans the space at every dimension on the way.
        joined = fast.joined()
        assert joined.shape == (fast.dim, ncols)
        assert np.array_equal(fast.joined(fast.dim - gained), joined[fast.dim - gained :])
        assert FpSubspace.from_rows(joined, p, ncols) == sub


# -- large matrices against the per-pivot row loop ----------------------------


def loop_rref(a, p):
    """Oracle: the plain per-pivot row loop over the whole matrix."""
    A = np.array(a, dtype=np.int64) % p
    m, n = A.shape
    r = 0
    piv = []
    for c in range(n):
        if r == m:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        piv.append(c)
        r += 1
    return A, piv


def loop_right_kernel(a, p):
    """Oracle: kernel basis filled by the double loop, then canonicalized by the row loop."""
    A, piv = loop_rref(a, p)
    n = A.shape[1]
    free = [j for j in range(n) if j not in set(piv)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for row_idx, pc in enumerate(piv):
            basis[k, pc] = (-A[row_idx, f]) % p
    return loop_rref(basis, p)[0]


WIDE = 64  # the matrices below reach 3 * WIDE + 10 rows and columns


def random_matrix(p, shape, rank, rng):
    """Residues with some zero rows and columns, of rank at most ``rank`` when given."""
    if rank is None:
        a = rng.integers(0, p, size=shape)
    else:
        left = rng.integers(0, p, size=(shape[0], rank))
        a = (left @ rng.integers(0, p, size=(rank, shape[1]))) % p
    a[:, rng.random(shape[1]) < 0.2] = 0
    a[rng.random(shape[0]) < 0.1] = 0
    return a


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.integers(min_value=1, max_value=3 * WIDE + 10),
    st.integers(min_value=1, max_value=3 * WIDE + 10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3 * WIDE)),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, m=WIDE + 1, n=2 * WIDE + 7, rank=None, transposed=False, raw=False, seed=1)
@example(p=3, m=2 * WIDE + 7, n=WIDE + 1, rank=WIDE - 3, transposed=True, raw=True, seed=2)
@example(p=32749, m=3 * WIDE, n=3 * WIDE + 5, rank=2 * WIDE + 1, transposed=False, raw=True, seed=3)
@example(p=7, m=WIDE, n=3 * WIDE, rank=None, transposed=True, raw=False, seed=4)
def test_large_rrefs_and_kernels_match_row_loop(p, m, n, rank, transposed, raw, seed):
    rng = np.random.default_rng(seed)
    shape = (n, m) if transposed else (m, n)
    a = random_matrix(p, shape, rank, rng)
    if raw:  # unreduced and negative entries
        a = a + p * rng.integers(-3, 4, size=shape)
    if transposed:  # a non-contiguous view
        a = a.T
    before = a.copy()

    R, piv = rref_array(a, p)
    want_R, want_piv = loop_rref(a, p)
    assert piv == want_piv
    assert R.dtype == np.int64 and np.array_equal(R, want_R)
    assert np.array_equal(right_kernel_array(a, p), loop_right_kernel(a, p))
    assert np.array_equal(left_kernel_array(a, p), loop_right_kernel(np.asarray(a).T, p))
    assert np.array_equal(a, before)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.integers(min_value=1, max_value=3 * WIDE + 10),
    st.integers(min_value=1, max_value=3 * WIDE + 10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3 * WIDE)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, m=WIDE + 1, n=2 * WIDE + 7, rank=None, seed=1)
@example(p=3, m=2 * WIDE + 7, n=WIDE + 1, rank=WIDE - 3, seed=2)
@example(p=32749, m=3, n=5, rank=0, seed=3)  # everything is free
def test_plain_kernel_basis_matches_row_loop(p, m, n, rank, seed):
    a = random_matrix(p, (m, n), rank, np.random.default_rng(seed))
    basis = right_kernel_basis(a, p)
    piv = loop_rref(a, p)[1]
    free = [j for j in range(n) if j not in piv]
    assert basis.dtype == np.int64 and basis.shape == (len(free), n)
    assert basis.min(initial=0) >= 0 and basis.max(initial=0) < p
    assert not ((a @ basis.T) % p).any()
    # An identity at the free columns: the rows are independent, so a basis.
    assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
    assert len(loop_rref(basis, p)[1]) == len(free)
    # The same space as the canonical kernel: their RREFs agree.
    assert np.array_equal(loop_rref(basis, p)[0], loop_right_kernel(a, p))
    assert np.array_equal(left_kernel_basis(a.T, p), basis)


def test_solution_space_is_the_same_with_canonical_intermediate_kernels(monkeypatch):
    # The cocycle solver eliminates its intermediate kernels again, so the
    # plain basis must give the same canonical Z as canonical kernels do.
    cases = [(m, degree) for m in small_modules() for degree in (1, 2)]
    plain_z = [cohomology(m.group, m, degree).z_basis for m, degree in cases]
    plain = fl.left_kernel_basis
    differs = []

    def canonical(a, p):
        basis = plain(a, p)
        R, piv = rref_array(basis, p)
        differs.append(not np.array_equal(R[: len(piv)], basis))
        return R[: len(piv)]

    monkeypatch.setattr(fl, "left_kernel_basis", canonical)
    for (m, degree), z in zip(cases, plain_z):
        assert np.array_equal(cohomology(m.group, m, degree).z_basis, z), (m.group.name, m.name, degree)
    assert any(differs)  # some intermediate kernel really is not canonical


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=32749, m=90, k=90, n=90, seed=0)  # a float64 product
@example(p=3, m=2, k=5, n=4, seed=1)  # an int64 one
def test_matmul_mod_matches_int64_product(p, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, k))
    b = rng.integers(0, p, size=(k, n))
    got = matmul_mod(a, b, p)
    assert got.dtype == np.int64 and np.array_equal(got, (a @ b) % p)


@pytest.mark.parametrize("p,rows,inner,stack", [(2, 4, 8, 8), (3, 54, 27, 8), (3, 5, 6, 1)])
def test_matmul_mod_on_a_stack(p, rows, inner, stack):
    """A matrix times a stack of matrices, on both sides of BLAS_MIN."""
    assert (stack * rows * inner * inner >= fl.BLAS_MIN) == (rows == 54)
    rng = np.random.default_rng(rows)
    a = rng.integers(0, p, size=(rows, inner))
    b = rng.integers(0, p, size=(stack, inner, inner))
    got = matmul_mod(a, b, p)
    assert got.dtype == np.int64 and np.array_equal(got, (a @ b) % p)
    assert np.array_equal(matmul_mod(b, a.T, p), (b @ a.T) % p)


def test_matmul_mod_guard_sits_at_2_53(monkeypatch):
    p = 32749
    widest = ((1 << 53) - 1) // (p - 1) ** 2
    assert fl._float_exact(widest, p) and not fl._float_exact(widest + 1, p)
    assert fl._float_exact(1 << 40, 2)
    # Past the guard the product is the int64 one.
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, size=(70, 33))
    b = rng.integers(0, p, size=(33, 90))
    assert a.size * b.shape[1] >= fl.BLAS_MIN
    float_path = matmul_mod(a, b, p)
    monkeypatch.setattr(fl, "_float_exact", lambda inner, q: False)
    int_path = matmul_mod(a, b, p)
    assert np.array_equal(float_path, (a @ b) % p)
    assert np.array_equal(int_path, (a @ b) % p)


# -- F_2 and F_3 on packed rows against the numpy loop --------------------------


def unitriangular_product(n, rng, p=2):
    """An invertible n x n matrix over F_p: lower times upper unitriangular."""
    lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    return (lower @ upper) % p


def packed_matrix(kind, m, n, rng, p=2):
    k = min(m, n)
    if kind == "zero":
        return np.zeros((m, n), dtype=np.int64)
    if kind == "full":  # rank min(m, n)
        return (unitriangular_product(m, rng, p)[:, :k] @ unitriangular_product(n, rng, p)[:k]) % p
    if kind == "deficient":  # rank below min(m, n) when that is positive
        return random_matrix(p, (m, n), max(k - 1 - int(rng.integers(0, k + 1)), 0), rng)
    a = rng.integers(0, p, size=(m, n))
    if kind == "duplicates" and m:
        a[rng.integers(0, m, size=m // 2 + 1)] = a[rng.integers(0, m, size=m // 2 + 1)]
    return a


PACKED_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 200]
PACKED_KINDS = ["random", "zero", "full", "deficient", "duplicates"]


def packed_case(kind, rows, width, tall, raw, seed, p=2):
    rng = np.random.default_rng(seed)
    m, n = (width, rows) if tall else (rows, width)
    a = packed_matrix(kind, m, n, rng, p)
    if raw:  # negative entries and entries of p and above
        a = a + p * rng.integers(-3, 4, size=a.shape)
    return a


PACKED_CASE = (
    st.sampled_from(PACKED_KINDS),
    st.integers(min_value=0, max_value=70),
    st.sampled_from(PACKED_WIDTHS),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def packed_examples(test):
    """Every width, tall and wide, of every kind, with raw entries."""
    cases = [("random", 0, 200, False, False), ("random", 5, 0, False, False)]
    cases += [("random", 3, 0, True, False), ("zero", 6, 9, False, True)]
    cases += [("full", 1, 1, False, True), ("random", 2, 4, True, True), ("duplicates", 4, 1, False, False)]
    cases += [(kind, 70, width, tall, True) for kind in PACKED_KINDS for width in PACKED_WIDTHS for tall in (False, True)]
    for seed, case in enumerate(cases):
        test = example(*case, seed)(test)
    return test


@contextlib.contextmanager
def deadline(seconds=1.0):
    """Fail instead of hanging: a packed reduction whose leading entry does
    not cancel, as under a wrong row addition, would loop forever.  Every
    case here takes milliseconds."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_packed_rref(a, p, packed):
    before = a.copy()
    want_R, want_piv = numpy_loop_rref(a, p)
    # The packed kernel at every size, and rref_array, which routes by shape.
    with deadline():
        results = [packed(fl.as_residues(a, p)), rref_array(a, p)]
    for R, piv in results:
        assert piv == want_piv and all(type(c) is int for c in piv)
        assert R.dtype == np.int64 and R.shape == a.shape and R.flags.c_contiguous
        assert np.array_equal(R, want_R)
    assert np.array_equal(a, before)


def check_packed_left_kernel(a, p):
    before = a.copy()
    with deadline():
        K = left_kernel_basis(a, p)
    want = loop_left_kernel(a, p)
    assert K.dtype == np.int64 and K.shape == want.shape
    assert np.array_equal(K, want)
    assert not ((K @ a) % p).any()
    assert np.array_equal(a, before)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(*PACKED_CASE)
@packed_examples
def test_packed_rref_matches_the_numpy_loop(kind, rows, width, tall, raw, seed):
    check_packed_rref(packed_case(kind, rows, width, tall, raw, seed), 2, fl._rref_f2)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(*PACKED_CASE)
@packed_examples
def test_bit_sliced_f3_rref_matches_the_numpy_loop(kind, rows, width, tall, raw, seed):
    check_packed_rref(packed_case(kind, rows, width, tall, raw, seed, 3), 3, fl._rref_f3)


def test_f3_planes_add_and_negate_entrywise():
    # Every pair of entries (a_j, b_j) side by side, behind a leading column:
    # reducing (c | a) at that column by the echelon row (1 | b) leaves
    # a - c b, and a row with a new leading 2 joins the echelon negated.
    a, b = (np.array(x) for x in zip(*itertools.product(range(3), repeat=2)))
    lead = 15  # the bit of column 0: 10 columns take 2 bytes
    (b1, b2), = fl._pack_f3(np.concatenate([[1], b])[None])
    for c in (1, 2):
        (a1, a2), = fl._pack_f3(np.concatenate([[c], a])[None])
        echelon = {lead: (b1, b2)}
        with deadline():
            reduced = fl._reduce_f3(echelon, a1, a2, lead)
        got = fl._unpack_f3([reduced], 10)[0]
        assert got[0] == 0 and np.array_equal(got[1:], (a - c * b) % 3), c
        assert echelon == {lead: (b1, b2)}
        fresh = {}
        fl._reduce_f3(fresh, a1, a2, lead)
        assert np.array_equal(fl._unpack_f3([fresh[lead]], 10)[0], (np.concatenate([[c], a]) * c) % 3)


def test_only_tiny_f2_rrefs_take_the_loop(monkeypatch):
    packed = []
    real = fl._rref_f2

    def counting(A):
        packed.append(A.shape)
        return real(A)

    monkeypatch.setattr(fl, "_rref_f2", counting)
    assert fl.PACK_MIN == 9
    for shape in ((1, 8), (2, 4), (8, 1), (0, 5), (1, 9), (3, 3), (9, 1)):
        rref_array(np.ones(shape, dtype=np.int64), 2)
    rref_array(np.ones((3, 3), dtype=np.int64), 3)
    assert packed == [(1, 9), (3, 3), (9, 1)]


def test_only_tiny_f3_rrefs_take_the_loop(monkeypatch):
    packed, looped = [], []
    real_f3, real_loop = fl._rref_f3, fl._eliminate

    def counting_f3(A):
        packed.append(A.shape)
        return real_f3(A)

    def counting_loop(A, p):
        looped.append(A.shape)
        return real_loop(A, p)

    monkeypatch.setattr(fl, "_rref_f3", counting_f3)
    monkeypatch.setattr(fl, "_eliminate", counting_loop)
    assert fl.PACK_MIN == 9
    shapes = ((1, 8), (2, 4), (8, 1), (0, 5), (1, 9), (3, 3), (6, 3), (7, 3), (9, 1), (18, 9), (19, 9))
    for shape in shapes:
        rref_array(np.ones(shape, dtype=np.int64), 3)
    # Tall or wide, every matrix of at least PACK_MIN entries is packed.
    assert packed == [(1, 9), (3, 3), (6, 3), (7, 3), (9, 1), (18, 9), (19, 9)]
    assert looped == [(1, 8), (2, 4), (8, 1), (0, 5)]
    # Large ones run the loop once on the whole matrix at p >= 5 only; a
    # tall one at p = 3 is packed.
    del looped[:]
    rng = np.random.default_rng(0)
    for p, shape in ((5, (70, 70)), (3, (200, 65))):
        a = rng.integers(0, p, size=shape)
        R, piv = rref_array(a, p)
        want_R, want_piv = loop_rref(a, p)
        assert piv == want_piv and np.array_equal(R, want_R)
    assert looped == [(70, 70)] and packed[-1] == (200, 65)
    # Other primes never take it, and left kernels and complements at p = 3
    # take no RREF of a transpose: the kernel none at all, the complement
    # only that of `space`.
    for p in (2, 5):
        rref_array(np.ones((3, 3), dtype=np.int64), p)
    assert len(packed) == 8
    del packed[:], looped[:]
    rrefs = []
    real_rref = fl.rref_array

    def counting_rref(a, p):
        rrefs.append(np.shape(a))
        return real_rref(a, p)

    monkeypatch.setattr(fl, "rref_array", counting_rref)
    left_kernel_basis(np.ones((30, 4), dtype=np.int64), 3)
    complement_reps(np.ones((2, 50), dtype=np.int64), np.eye(50, dtype=np.int64), 3)
    assert rrefs == [(50, 50)] and packed == [(50, 50)] and looped == []


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(*PACKED_CASE)
@packed_examples
def test_packed_left_kernel_matches_the_loop_kernel_of_the_transpose(kind, rows, width, tall, raw, seed):
    check_packed_left_kernel(packed_case(kind, rows, width, tall, raw, seed), 2)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(*PACKED_CASE)
@packed_examples
def test_bit_sliced_f3_left_kernel_matches_the_loop_kernel_of_the_transpose(kind, rows, width, tall, raw, seed):
    check_packed_left_kernel(packed_case(kind, rows, width, tall, raw, seed, 3), 3)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(st.sampled_from([2, 3, 5]), *PACKED_CASE, st.integers(min_value=0, max_value=6))
@example(2, "zero", 0, 0, False, False, 0, 0)
@example(3, "random", 0, 9, False, False, 1, 3)
@example(3, "full", 70, 65, False, True, 2, 6)
@example(3, "duplicates", 70, 64, True, True, 3, 5)
@example(5, "deficient", 40, 9, False, True, 4, 4)
@example(2, "random", 70, 200, True, True, 5, 6)
def test_complement_reps_matches_the_transposed_rref(p, kind, rows, width, tall, raw, seed, nsub):
    space = packed_case(kind, rows, width, tall, raw, seed, p)
    rng = np.random.default_rng(seed + 1)
    n = space.shape[1]
    # sub mixes rows of span(space), repeated and zero rows and random ones.
    combos = rng.integers(-2, 3, size=(nsub, space.shape[0])) @ space
    sub = np.vstack([combos, combos[:1], np.zeros((nsub % 2, n), dtype=np.int64), rng.integers(0, p, size=(nsub // 3, n))])
    for s in (sub, sub[:0], sub[::-1]):
        with deadline():
            got = complement_reps(s, space, p)
        want = transposed_complement_reps(s, space, p)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want), (p, kind, s.shape, space.shape)
