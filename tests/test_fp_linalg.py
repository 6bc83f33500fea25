import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgv.fp_linalg as fl
from pgv.fp_linalg import (
    FpSubspace,
    RowSpace,
    check_prime,
    complement_reps,
    left_kernel_array,
    rank_array,
    right_kernel_array,
    rref_array,
    solve_array,
)
from pgv.gmodule import _closure


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
    assert k.contains_vector([1, 1])
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


def test_subspace_sum_with_zero():
    u = FpSubspace.from_rows([[1, 0, 1], [0, 1, 0]], 2)
    z = FpSubspace.zero(3, 2)
    assert u.sum(z) == u
    assert u.intersect(u) == u


def test_subspace_modular_law_f2_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = FpSubspace.from_rows(rng.integers(0, 2, size=(3, 6)), 2)
        v = FpSubspace.from_rows(rng.integers(0, 2, size=(3, 6)), 2)
        s = u.sum(v)
        i = u.intersect(v)
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
    i = u.intersect(v)
    assert i.dim == u.dim + v.dim - rank_sum
    assert u.contains(i) and v.contains(i)
    x = rng.integers(0, p, size=n)
    with_x = np.vstack([u.basis, x[None, :]])
    assert u.contains_vector(x) == (rank_array(with_x, p) == u.dim)

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
