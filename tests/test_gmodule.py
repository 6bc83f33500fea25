import itertools

import numpy as np
import pytest

from pgv.catalog import builtin_catalog, find_entry
from pgv.cohomology import sample_nG_module
from pgv import fp_linalg as fl
from pgv.fp_linalg import FpSubspace, rank_array
from pgv.group_core import (
    Subgroup,
    center,
    centralizer,
    direct_product_tables,
    elementary_abelian_normals,
    frattini,
    from_pc_presentation,
    omega1,
    subgroup_closure,
)
from pgv.gmodule import (
    FreeBimodule,
    GModule,
    ModuleError,
    annihilator,
    annihilator_by_products,
    d_G,
    dual_module,
    embed_into_free,
    fixed_points,
    free_submodule_closure,
    generated_submodule,
    is_free_submodule,
    minimal_generators,
    module_from_conjugation,
    quotient_module,
    radical,
    restrict_action,
    trivial_module,
    tuple_product_matrix,
)
from tests.groups import (
    cyclic_group,
    dense_free_actions,
    fixed_points_in_carrier,
    h1_of_restriction,
    naive_closure,
    pres_d16,
    pres_d8,
    pres_heis27,
    regular_module,
)


def klein():
    return direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))


def all_vectors(n, p):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def test_fixed_points_regular_is_all_ones():
    g = from_pc_presentation(pres_d8())
    m = regular_module(g)
    f = fixed_points(m)
    assert f.dim == 1
    assert not f.reduce(np.ones(8, dtype=np.int64)).any()


def test_fixed_points_trivial_module():
    g = klein()
    m = trivial_module(g, 3)
    assert fixed_points(m).dim == 3


def test_augmentation_ideal_of_f2c2():
    g = cyclic_group(2, 2)
    m = regular_module(g)
    aug = generated_submodule(m, np.array([[1, 1]]))
    sub = restrict_action(m, aug)
    f = fixed_points(sub)
    assert f.dim == 1
    # Oracle: enumerate all 4 vectors of the regular module.
    fixed = [
        v
        for v in all_vectors(2, 2)
        if all(np.array_equal((v @ m.act[x]) % 2, v) for x in range(2))
    ]
    inside = [v for v in fixed if not aug.reduce(v).any()]
    assert len(inside) == 2  # zero and the all-ones vector


def test_radical_trivial_and_regular():
    g = from_pc_presentation(pres_d8())
    assert radical(trivial_module(g, 2)).dim == 0
    assert radical(regular_module(g)).dim == 7


def test_radical_matches_definition_oracle():
    g = klein()
    fb = FreeBimodule(g, 2)
    rng = np.random.default_rng(5)
    mod = fb.as_gmodule("right")
    carrier = free_submodule_closure(fb, rng.integers(0, 2, size=(2, 8)), "right")
    sub = restrict_action(mod, carrier)
    rad = radical(sub)
    # Definition oracle: span of x * r over all x in the module and r in the
    # augmentation ideal of F_2(G), enumerated exhaustively.
    aug_elements = [
        r for r in all_vectors(4, 2) if int(r.sum()) % 2 == 0
    ]
    span = set()
    vecs = []
    for coeffs in itertools.product(range(2), repeat=sub.dim):
        x = np.array(coeffs, dtype=np.int64)
        for r in aug_elements:
            acc = np.zeros(sub.dim, dtype=np.int64)
            for h, c in enumerate(r):
                if c:
                    acc = (acc + x @ sub.act[h]) % 2
            vecs.append(acc)
    got_dim = rank_array(np.array(vecs), 2) if vecs else 0
    assert rad.dim == got_dim
    for v in vecs:
        assert not rad.reduce(v).any()


def test_d_G_regular_and_free():
    g = from_pc_presentation(pres_d8())
    assert d_G(regular_module(g)) == 1
    fb = FreeBimodule(g, 3)
    assert d_G(fb.as_gmodule("right")) == 3
    gens = minimal_generators(regular_module(g))
    assert gens.shape[0] == 1


def test_d_G_radical_of_f3c3():
    g = cyclic_group(3, 3)
    m = regular_module(g)
    rad = radical(m)
    assert rad.dim == 2
    sub = restrict_action(m, rad)
    assert d_G(sub) == 1


def test_minimal_generators_generate():
    g = klein()
    m = regular_module(g)
    gens = minimal_generators(m)
    assert gens.shape[0] == d_G(m) == 1
    span = generated_submodule(m, gens)
    assert span.dim == m.dim


def test_dual_of_trivial_and_double_dual():
    g = from_pc_presentation(pres_d8())
    t = trivial_module(g, 2)
    dt = dual_module(t)
    assert np.array_equal(dt.act, t.act)
    m = regular_module(g)
    dd = dual_module(dual_module(m))
    assert np.array_equal(dd.act, m.act)
    assert np.array_equal(dd.group.mul, m.group.mul)


def test_dual_fixed_points_equal_d_G():
    g = klein()
    fb = FreeBimodule(g, 2)
    rng = np.random.default_rng(9)
    mod = fb.as_gmodule("right")
    for _ in range(4):
        carrier = free_submodule_closure(fb, rng.integers(0, 2, size=(2, 8)), "right")
        if carrier.dim == 0:
            continue
        sub = restrict_action(mod, carrier)
        lhs = fixed_points(dual_module(sub)).dim
        assert lhs == d_G(sub)


def test_module_from_conjugation_trivial_quotient():
    g = from_pc_presentation(pres_d8())
    full = Subgroup(g, np.arange(8), check=False)
    w = omega1(g, center(g))
    cm = module_from_conjugation(g, full, w)
    assert cm.module.group.order == 1
    assert cm.module.dim == 1


def test_module_from_conjugation_d16_cyclic_maximal():
    g = from_pc_presentation(pres_d16())
    orders = g.element_orders()
    r = int(np.flatnonzero(orders == 8)[0])
    n = subgroup_closure(g, [r])
    from pgv.group_core import subgroup_center

    zn = subgroup_center(g, n)
    w = omega1(g, zn)
    assert w.order == 2
    cm = module_from_conjugation(g, n, w)
    assert cm.module.dim == 1
    assert cm.module.group.order == 2
    # conjugation scan: the action must be trivial (W is central here).
    assert np.array_equal(cm.module.act, trivial_module(cm.module.group, 1).act)


def test_module_from_conjugation_heisenberg():
    g = from_pc_presentation(pres_heis27())
    z = center(g)
    cm = module_from_conjugation(g, z, z)
    assert cm.module.dim == 1
    assert cm.module.group.order == 9
    assert np.array_equal(cm.module.act, trivial_module(cm.module.group, 1).act)


def test_module_from_conjugation_rejects_a_nonabelian_w_of_exponent_p():
    # He27 has exponent 3, so only commutation tells it from (C3)^3.
    g = from_pc_presentation(pres_heis27())
    whole = Subgroup(g, np.arange(27), check=False)
    with pytest.raises(ModuleError, match="^W is not elementary abelian$"):
        module_from_conjugation(g, Subgroup(g, [0]), whole)


def test_w_basis_matches_the_greedy_closure_oracle_on_the_catalog():
    # The basis is grown as a span array; the oracle closes the subgroup
    # again after each element it adds, taking the least element outside.
    for e in builtin_catalog():
        if e.order > 32:
            continue
        g = e.group()
        for w in elementary_abelian_normals(g):
            oracle = []
            for y in w.members[1:]:
                if not subgroup_closure(g, oracle).contains(int(y)):
                    oracle.append(int(y))
            cm = module_from_conjugation(g, centralizer(g, w), w)
            assert cm.basis_elements == oracle, (e.name, w.members)


def test_embed_trivial_and_regular():
    g = cyclic_group(2, 4)
    m = regular_module(g)
    emb = embed_into_free(m)
    assert emb.injective
    assert emb.free.n == 1
    # Socle prescription: the fixed vector maps to the all-ones vector.
    f = fixed_points(m)
    img = (f.basis @ emb.matrix) % 2
    assert np.array_equal(img, emb.free.socle_basis())

    t = trivial_module(g, 2)
    emb2 = embed_into_free(t)
    assert emb2.injective and emb2.free.n == 2


def test_embed_sampled_module_klein():
    g = klein()
    fb = FreeBimodule(g, 2)
    rng = np.random.default_rng(3)
    mod = fb.as_gmodule("right")
    tried = 0
    while tried < 3:
        carrier = free_submodule_closure(
            fb, np.vstack([fb.socle_basis(), rng.integers(0, 2, size=(1, 8))]), "right"
        )
        sub = restrict_action(mod, carrier)
        if fixed_points(sub).dim != 2:
            continue
        tried += 1
        emb = embed_into_free(sub)
        assert emb.injective
        # Exhaustive equivariance re-verification.
        P = emb.matrix
        for gidx in range(4):
            lhs = (sub.act[gidx] @ P) % 2
            rhs = (P @ emb.free.element_action(gidx, "right")) % 2
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["C9", "C3xC3", "D8", "Q8", "D16"])
def test_embed_sampled_module(name, n, seed):
    # Submodules of prod^n F_p(G) that contain its socle, so m^G has
    # dimension n; p = 3 and non-abelian groups included.
    g = find_entry(name).group()
    fb = FreeBimodule(g, n)
    rng = np.random.default_rng(seed)
    seeds = np.vstack([fb.socle_basis(), rng.integers(0, g.p, size=(1, fb.dim))])
    sub = restrict_action(fb.as_gmodule("right"), free_submodule_closure(fb, seeds, "right"))
    fixed = fixed_points(sub)
    assert fixed.dim == n
    emb = embed_into_free(sub)
    P = emb.matrix
    assert emb.free.n == n
    assert np.array_equal((fixed.basis @ P) % g.p, emb.free.socle_basis())
    for x in range(g.order):
        lhs = (sub.act[x] @ P) % g.p
        rhs = (P @ emb.free.element_action(x, "right")) % g.p
        assert np.array_equal(lhs, rhs), x
    assert emb.injective and rank_array(P, g.p) == sub.dim


def test_validation_on_burnside_basis_catches_a_bad_action():
    # The homomorphism identity is checked at the Burnside basis only; a
    # wrong matrix at an element of Phi(G) outside it must still fail it.
    g = find_entry("D16").group()
    x = int(frattini(g).members[-1])
    assert x not in g.burnside_basis()
    act = regular_module(g).act.copy()
    act[x] = act[x][::-1]
    assert not np.array_equal(act[x], regular_module(g).act[x])
    with pytest.raises(ModuleError, match="^action is not a homomorphism$"):
        GModule(g, act)


def test_annihilator_extremes():
    g = from_pc_presentation(pres_d8())
    fb = FreeBimodule(g, 1)
    zero = FpSubspace.zero(8, 2)
    full = FpSubspace.full(8, 2)
    assert annihilator(fb, zero, "left_of_right").dim == 8
    assert annihilator(fb, full, "left_of_right").dim == 0


def test_annihilator_duality_random_d8():
    g = from_pc_presentation(pres_d8())
    fb = FreeBimodule(g, 1)
    rng = np.random.default_rng(21)
    for _ in range(6):
        q = free_submodule_closure(fb, rng.integers(0, 2, size=(1, 8)), "right")
        left = annihilator(fb, q, "left_of_right")
        # product law |L(Q)| * |Q| = |F_p(G)|
        assert left.dim + q.dim == 8
        # L(Q) is a left submodule; R(L(Q)) = Q.
        assert is_free_submodule(fb, left, "left")
        back = annihilator(fb, left, "right_of_left")
        assert back == q
        # Pairing-orthogonal equals definition-level annihilator.
        assert annihilator_by_products(fb, q, "left_of_right") == left


def test_tuple_product_matrix_extremes_and_bruteforce():
    g = cyclic_group(2, 2)
    fb = FreeBimodule(g, 1)
    zero_x = [np.zeros(2, dtype=np.int64)]
    assert not tuple_product_matrix(fb, zero_x, "left").any()
    unit = [np.array([1, 0], dtype=np.int64)]  # identity of the algebra
    assert rank_array(tuple_product_matrix(fb, unit, "left"), 2) == 2

    rng = np.random.default_rng(4)
    for n in (1, 2):
        fbn = FreeBimodule(g, n)
        for _ in range(5):
            xs = [rng.integers(0, 2, size=2 * n) for _ in range(2)]
            got = tuple_product_matrix(fbn, xs, "left")
            # Brute force over all tuples: the image of (y1, y2) is the
            # componentwise product (y1,..,y1) x_1 + (y2,..,y2) x_2.
            for y1 in all_vectors(2, 2):
                for y2 in all_vectors(2, 2):
                    diag1 = np.concatenate([y1] * n)
                    diag2 = np.concatenate([y2] * n)
                    total = (
                        fbn.algebra_product(diag1, xs[0])
                        + fbn.algebra_product(diag2, xs[1])
                    ) % 2
                    assert np.array_equal(np.concatenate([y1, y2]) @ got % 2, total)


def test_sample_nG_module_cp_chain():
    g = cyclic_group(3, 3)
    fb = FreeBimodule(g, 1)
    m = fb.as_gmodule("right")
    # Submodules of F_3(C_3) form the chain of radical powers; every sample
    # must be one of them.
    chain = [FpSubspace.full(3, 3)]
    cur = radical(m)
    while True:
        chain.append(cur)
        if cur.dim == 0:
            break
        sub = restrict_action(m, cur)
        basis = cur.basis
        nxt_local = radical(sub)
        rows = (nxt_local.basis @ basis) % 3 if nxt_local.dim else np.zeros((0, 3), dtype=np.int64)
        cur = FpSubspace.from_rows(rows, 3, 3)
    for seed in range(4):
        s = sample_nG_module(g, 1, seed=seed)
        assert any(s.carrier == c for c in chain)


def test_sample_deterministic_and_fixed_dim():
    g = from_pc_presentation(pres_d8())
    s1 = sample_nG_module(g, 2, seed=11)
    s2 = sample_nG_module(g, 2, seed=11)
    assert s1.carrier == s2.carrier
    assert s1.fixed_dim == 2
    f = fixed_points_in_carrier(s1.free, s1.carrier)
    assert f.dim == 2
    assert s1.h1_dim == h1_of_restriction(s1.free, s1.carrier) <= 2


def test_quotient_module_trivial_action_on_head():
    g = klein()
    m = regular_module(g)
    rad = radical(m)
    q, comp = quotient_module(m, rad)
    assert q.dim == 1
    assert all(np.array_equal(q.act[x], np.eye(1, dtype=np.int64)) for x in range(4))


def test_free_bimodule_left_right_commute():
    g = from_pc_presentation(pres_d8())
    fb = FreeBimodule(g, 2)
    rng = np.random.default_rng(17)
    a = rng.integers(0, 2, size=8)
    b = rng.integers(0, 2, size=8)
    L = fb.mul_matrix(a, "left")
    R = fb.mul_matrix(b, "right")
    assert np.array_equal((L @ R) % 2, (R @ L) % 2)


def test_delta_pairing_nondegenerate():
    g = from_pc_presentation(pres_d8())
    fb = FreeBimodule(g, 2)
    B = fb.delta_pairing_matrix()
    assert rank_array(B, 2) == fb.dim


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 4), (3, 3)]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_annihilator_duality_property(params, n, seed):
    p, order = params
    g = cyclic_group(p, order)
    fb = FreeBimodule(g, n)
    rng = np.random.default_rng(seed)
    q = free_submodule_closure(fb, rng.integers(0, p, size=(2, fb.dim)), "right")
    left = annihilator(fb, q, "left_of_right")
    assert left.dim + q.dim == fb.dim
    assert annihilator(fb, left, "right_of_left") == q
    assert annihilator_by_products(fb, q, "left_of_right") == left


# -- element-wise oracle for the layout of prod^n F_p(G) -----------------------


def times_oracle(g, y, side):
    """Row a is e_a * y (side 'right') or y * e_a (side 'left'), one element
    product at a time."""
    out = np.zeros((g.order, g.order), dtype=np.int64)
    for a in range(g.order):
        for b in range(g.order):
            k = g.mul[a, b] if side == "right" else g.mul[b, a]
            out[a, k] = (out[a, k] + y[b]) % g.p
    return out


def place_oracle(blocks, n):
    """blocks[i][l] written at rows of slot i and columns of copy l."""
    r, c = blocks[0][0].shape
    out = np.zeros((len(blocks) * r, n * c), dtype=np.int64)
    for i, row in enumerate(blocks):
        for l, blk in enumerate(row):
            out[i * r : (i + 1) * r, l * c : (l + 1) * c] = blk
    return out


def diag_oracle(block, n):
    return place_oracle([[block if l == i else 0 * block for l in range(n)] for i in range(n)], n)


def test_mul_matrix_rejects_a_vector_of_the_n_fold_module():
    # A vector of length 2|G| is an element of F_p(G)^2, not of the group
    # algebra; reading only its first copy would be a silent wrong answer.
    g = find_entry("D8").group()
    fb = FreeBimodule(g, 2)
    y = np.arange(fb.dim) % 2
    for side in ("right", "left"):
        with pytest.raises(ModuleError, match="group algebra vector has length 8"):
            fb.mul_matrix(y, side)
        with pytest.raises(ModuleError):
            fb.mul_block(y.reshape(1, -1), side)


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "D8", "Q8"])
def test_free_bimodule_layout_matches_elementwise_oracle(name):
    g = find_entry(name).group()
    p, q = g.p, g.order
    rng = np.random.default_rng(q)
    for n in (1, 2, 3):
        fb = FreeBimodule(g, n)
        stack = rng.integers(0, p, size=(2, 3, q))
        assert np.array_equal(fb.copies(stack[0]), np.kron(np.eye(n, dtype=np.int64), stack[0]))
        assert np.array_equal(fb.copies(stack), np.kron(np.eye(n, dtype=np.int64), stack))
        y = rng.integers(0, p, size=q)
        for side in ("right", "left"):
            assert np.array_equal(fb.mul_matrix(y, side), diag_oracle(times_oracle(g, y, side), n))
            for h in range(q):
                assert np.array_equal(
                    fb.element_action(h, side), diag_oracle(times_oracle(g, np.eye(q, dtype=np.int64)[h], side), n)
                )
        socle = np.zeros((n, fb.dim), dtype=np.int64)
        for l in range(n):
            socle[l, l * q : (l + 1) * q] = 1
        assert np.array_equal(fb.socle_basis(), socle)
        gram = np.zeros((fb.dim, fb.dim), dtype=np.int64)
        for l in range(n):
            for a in range(q):
                gram[l * q + a, l * q + g.inv[a]] = 1
        assert np.array_equal(fb.delta_pairing_matrix(), gram)
        xs = [rng.integers(0, p, size=fb.dim) for _ in range(2)]
        for side, acting in (("left", "right"), ("right", "left")):
            # side 'left': y_i * x_{i,l}, so x_{i,l} multiplies from the right.
            want = place_oracle([[times_oracle(g, x[l * q : (l + 1) * q], acting) for l in range(n)] for x in xs], n)
            assert np.array_equal(tuple_product_matrix(fb, xs, side), want)


def test_gather_closures_match_the_dense_oracle_on_the_catalog():
    # Seeds in the whole module, in the augmentation ideal I and in I^2, and
    # the socle, so the closures take from one to several rounds.
    rng = np.random.default_rng(34)
    for e in builtin_catalog():
        if e.order > 16:
            continue
        g = e.group()
        p, q = g.p, g.order
        for n in (1, 2):
            fb = FreeBimodule(g, n)
            x = rng.integers(0, p, size=(2, n, q))
            x[:, :, 0] -= x.sum(axis=2)  # every copy in I
            aug = np.atleast_2d(fb.algebra_product(x[0].ravel(), x[1].ravel()))  # in I^2
            seed_sets = [rng.integers(0, p, size=(2, fb.dim)), x[:1].reshape(1, -1), aug, fb.socle_basis()]
            for side in ("right", "left", "both"):
                mats = dense_free_actions(fb, side)
                for h in range(q):
                    for one_side in ("right", "left"):
                        action = fb.element_action(h, one_side)
                        assert np.array_equal(x[0].reshape(1, -1) @ action, x[0].reshape(1, -1)[:, fb.element_gather(h, one_side)])
                for seeds in seed_sets:
                    got = free_submodule_closure(fb, seeds, side)
                    basis, piv = naive_closure(fl.as_residues(seeds, p), mats, p)
                    assert np.array_equal(got.basis, basis) and got.pivots == tuple(piv), (e.name, n, side)
                    assert is_free_submodule(fb, got, side)
                    span = FpSubspace.from_rows(seeds, p, fb.dim)
                    dense_stable = not any(np.any(span.reduce(span.basis @ m)) for m in mats)
                    assert is_free_submodule(fb, span, side) == dense_stable, (e.name, n, side)
