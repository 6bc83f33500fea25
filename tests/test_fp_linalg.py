import itertools

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
from tests.groups import intersect, small_modules


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


def naive_closure(seeds, mats, p):
    """Oracle: stack images and re-run RREF from scratch until the rank stops."""
    R, piv = rref_array(seeds, p)
    while True:
        basis = R[: len(piv)]
        R2, piv2 = rref_array(np.vstack([basis] + [(basis @ m) % p for m in mats]), p)
        if len(piv2) == len(piv):
            return basis, piv
        R, piv = R2, piv2


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


# -- the blocked kernel against the per-pivot row loop -------------------------


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


PANEL = fl.PANEL


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
    st.integers(min_value=1, max_value=3 * PANEL + 10),
    st.integers(min_value=1, max_value=3 * PANEL + 10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3 * PANEL)),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, m=PANEL + 1, n=2 * PANEL + 7, rank=None, transposed=False, raw=False, seed=1)
@example(p=3, m=2 * PANEL + 7, n=PANEL + 1, rank=PANEL - 3, transposed=True, raw=True, seed=2)
@example(p=32749, m=3 * PANEL, n=3 * PANEL + 5, rank=2 * PANEL + 1, transposed=False, raw=True, seed=3)
@example(p=7, m=PANEL, n=3 * PANEL, rank=None, transposed=True, raw=False, seed=4)
def test_blocked_kernel_matches_row_loop(p, m, n, rank, transposed, raw, seed):
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


def test_blocked_kernel_runs_past_one_panel(monkeypatch):
    # Both dimensions above the panel width take the blocked path; pivots
    # then come from more than one panel.
    rng = np.random.default_rng(0)
    a = rng.integers(0, 5, size=(PANEL + 30, 2 * PANEL + 30))
    calls = []
    real = fl._eliminate_blocked

    def counting(A, p):
        calls.append(A.shape)
        return real(A, p)

    loops = []
    real_loop = fl._eliminate

    def counting_loop(A, p, n=None, swaps=None):
        loops.append((A.shape, n))
        return real_loop(A, p, n, swaps)

    monkeypatch.setattr(fl, "_eliminate_blocked", counting)
    monkeypatch.setattr(fl, "_eliminate", counting_loop)
    R, piv = rref_array(a, 5)
    assert calls == [a.shape]
    # One pass of the loop per panel, on the panel and its tag columns; the
    # last panel is never reached, since the first two hold every pivot.
    assert loops == [((PANEL + 30, 2 * PANEL), PANEL), ((30, 2 * PANEL), PANEL)]
    rref_array(a[:PANEL], 5)
    assert calls == [a.shape]
    assert len(piv) == PANEL + 30 and piv[-1] >= PANEL
    assert np.array_equal(R, loop_rref(a, 5)[0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.integers(min_value=1, max_value=2 * PANEL + 10),
    st.integers(min_value=1, max_value=PANEL),
    st.one_of(st.none(), st.integers(min_value=0, max_value=PANEL)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, rows=2 * PANEL + 10, width=PANEL, rank=None, seed=0)  # tall
@example(p=3, rows=7, width=PANEL, rank=None, seed=1)  # wide
@example(p=32749, rows=PANEL, width=PANEL, rank=PANEL // 2, seed=2)  # rank-deficient
@example(p=7, rows=PANEL + 5, width=40, rank=0, seed=3)  # no pivot at all
def test_panel_tags_hold_the_inverse_pivot_block(p, rows, width, rank, seed):
    # The blocked path runs the loop on a panel plus one zero tag column per
    # panel column.  The tags of the k pivot rows must end as B^-1, where B
    # is those rows (in the order the swaps bring them) at the pivot columns.
    rng = np.random.default_rng(seed)
    panel = random_matrix(p, (rows, width), rank, rng)
    panel[: rows // 3] = 0  # the first pivot rows arrive by swaps
    local = np.zeros((rows, 2 * width), dtype=np.int64)
    local[:, :width] = panel
    swaps = []
    found = fl._eliminate(local, p, width, swaps)

    R, piv = loop_rref(panel, p)
    assert found == piv and np.array_equal(local[:, :width], R)
    k = len(found)
    assert swaps or not (k and rows // 3)
    arrived = panel.copy()
    for i, j in swaps:
        arrived[[i, j]] = arrived[[j, i]]
    B = arrived[:k][:, found]
    aug, aug_piv = loop_rref(np.hstack([B, np.eye(k, dtype=np.int64)]), p)
    assert aug_piv == list(range(k))  # B is invertible
    assert np.array_equal(local[:k, width : width + k], aug[:, k:])
    assert not local[:k, width + k :].any()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 32749]),
    st.integers(min_value=1, max_value=3 * PANEL + 10),
    st.integers(min_value=1, max_value=3 * PANEL + 10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3 * PANEL)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(p=2, m=PANEL + 1, n=2 * PANEL + 7, rank=None, seed=1)
@example(p=3, m=2 * PANEL + 7, n=PANEL + 1, rank=PANEL - 3, seed=2)
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
