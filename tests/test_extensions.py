import itertools

import numpy as np
import pytest

from pgv.catalog import builtin_catalog
from pgv.checks import _build_transfer, _gen_transfer, _gen_xp
from pgv.cohomology import Cochain, cohomology, zero_two_cocycle
from pgv.extensions import (
    ExtensionError,
    build_extension,
    filtration,
    filtration_product,
    kernel_of_down,
    lambda_expansion,
    transfer_maps,
)
from pgv.fp_linalg import FpSubspace, rank_array
from pgv.group_core import from_pc_presentation
from pgv.gmodule import FreeBimodule, free_submodule_closure, trivial_module
from tests.groups import (
    cyclic_group,
    equivalence_map,
    filtration_product_by_pairs,
    pres_d8,
    pres_heis27,
    regular_module,
    section_is_homomorphism,
    two_coboundary,
)


def carry_cocycle(p):
    """The carrying 2-cocycle of 0 -> C_p -> C_{p^2} -> C_p -> 0."""
    g = cyclic_group(p, p)
    m = trivial_module(g, 1)
    tab = np.zeros((p, p, 1), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            tab[i, j, 0] = (i + j) // p
    return g, m, Cochain(m, tab)


def test_split_extension_has_homomorphic_section():
    g = from_pc_presentation(pres_d8())
    m = trivial_module(g, 1)
    ext = build_extension(g, m, zero_two_cocycle(g, m))
    assert ext.total.order == 16
    assert section_is_homomorphism(ext)


def test_nonsplit_extension_section_not_homomorphism():
    g, m, f = carry_cocycle(2)
    ext = build_extension(g, m, f)
    assert not section_is_homomorphism(ext)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_carry_cocycle_gives_cyclic_p_squared(p):
    g, m, f = carry_cocycle(p)
    assert f.is_cocycle()
    ext = build_extension(g, m, f)
    assert ext.total.order == p * p
    assert max(ext.total.element_orders()) == p * p  # cyclic of order p^2


def test_bad_cocycle_rejected():
    g = cyclic_group(2, 2)
    m = trivial_module(g, 1)
    tab = np.zeros((2, 2, 1), dtype=np.int64)
    tab[1, 0, 0] = 1  # breaks normalization
    with pytest.raises(ExtensionError):
        build_extension(g, m, Cochain(m, tab))


def test_projection_and_kernel_shape():
    g, m, f = carry_cocycle(3)
    ext = build_extension(g, m, f)
    proj = ext.projection
    assert proj.is_homomorphism()
    # kernel of projection = embedded kernel
    ker = [x for x in range(ext.total.order) if proj(x) == 0]
    assert sorted(ker) == sorted(int(v) for v in ext.kernel.members)
    # section followed by projection is the identity on the base
    for gg in range(g.order):
        assert proj(int(ext.section[gg])) == gg


def test_equivalence_identity_and_coboundary_shift():
    g, m, f = carry_cocycle(2)
    ext = build_extension(g, m, f)
    fmap = equivalence_map(ext, f, f)
    assert fmap is not None
    rng = np.random.default_rng(3)
    sigma = np.zeros((2, 1), dtype=np.int64)
    sigma[1] = rng.integers(0, 2)
    f2 = Cochain(m, (f.table + two_coboundary(g, m, sigma).table) % 2)
    fmap2 = equivalence_map(ext, f, f2)
    assert fmap2 is not None
    assert fmap2.is_homomorphism() and fmap2.is_bijective()


def test_equivalence_absent_for_distinct_classes():
    # C4 vs Klein: carry cocycle vs zero cocycle over C2.
    g, m, f = carry_cocycle(2)
    ext = build_extension(g, m, f)
    assert equivalence_map(ext, f, zero_two_cocycle(g, m)) is None


def test_equivalence_map_on_small_catalog_groups():
    # f -> f + d(sigma) has an equivalence; f -> 0 has none when [f] != 0.
    # The trivial:2 cocycle pairs two trivial:1 classes, one per coordinate.
    rng = np.random.default_rng(5)
    for e in builtin_catalog():
        if e.order > 16:
            continue
        g = e.group()
        reps = [r.table for r in cohomology(g, trivial_module(g, 1), 2).h_reps]
        assert reps, e.name
        for dim in (1, 2):
            m = trivial_module(g, dim)
            f = Cochain(m, np.concatenate([reps[0], reps[-1]][:dim], axis=2))
            ext = build_extension(g, m, f)
            sigma = rng.integers(0, g.p, size=(g.order, dim))
            sigma[0] = 0
            f2 = Cochain(m, f.table + two_coboundary(g, m, sigma).table)
            fmap = equivalence_map(ext, f, f2)
            assert fmap is not None and fmap.is_homomorphism() and fmap.is_bijective(), (e.name, dim)
            assert equivalence_map(ext, f, zero_two_cocycle(g, m)) is None, (e.name, dim)


def nontrivial_cocycle(g, m):
    sp = cohomology(g, m, 2)
    assert sp.h_dim >= 1
    return sp.h_reps[0]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_transfer_identities_rank_one_kernel(p, n):
    g = cyclic_group(p, p)
    m = trivial_module(g, 1)
    f = nontrivial_cocycle(g, m)
    ext = build_extension(g, m, f)
    tp = transfer_maps(ext, n)
    to = ext.total.order

    # down is an algebra homomorphism on each copy.
    fb1 = FreeBimodule(ext.total, 1)
    fbb = FreeBimodule(g, 1)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.integers(0, p, size=to)
        y = rng.integers(0, p, size=to)
        bd = tp.down[:to, : g.order]
        lhs = ((fb1.algebra_product(x, y)) @ bd) % p
        rhs = fbb.algebra_product((x @ bd) % p, (y @ bd) % p)
        assert np.array_equal(lhs, rhs)

    # down . up = 0 and up is injective.
    assert not np.any((tp.up @ tp.down) % p)
    assert rank_array(tp.up, p) == tp.up.shape[0]

    # up(down(x)) = x * (norm, ..., norm).
    Rnorm_blocks = tp.free_total.mul_matrix(tp.norm_vector, "right")
    for _ in range(4):
        x = rng.integers(0, p, size=n * to)
        got = (x @ tp.down @ tp.up) % p
        want = (x @ Rnorm_blocks) % p
        assert np.array_equal(got, want)

    # down(e_{0..0,l}) is the unit in copy l; fiber sums die.
    e0_rows = tp.e_vectors[~tp.e_exponents.any(axis=1)]
    assert e0_rows.shape[0] == n
    for l, e0 in enumerate(e0_rows):
        img = (e0 @ tp.down) % p
        want = np.zeros(n * g.order, dtype=np.int64)
        want[l * g.order + 0] = 1
        assert np.array_equal(img, want)


def test_lambda_expansion_unique_and_reconstructs():
    g = cyclic_group(2, 2)
    m = trivial_module(g, 1)
    f = nontrivial_cocycle(g, m)
    ext = build_extension(g, m, f)
    tp = transfer_maps(ext, 2)
    p = 2
    # The lambda basis is linearly independent and spans ker(down).
    kd = kernel_of_down(tp)
    assert rank_array(tp.lambda_basis, p) == tp.lambda_basis.shape[0] == kd.dim
    assert rank_array(tp.lambda1_basis, p) == tp.lambda1_basis.shape[0]
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = rng.integers(0, p, size=tp.lambda_basis.shape[0])
        y = (coeffs @ tp.lambda_basis) % p
        got = lambda_expansion(tp, y)
        assert got is not None
        assert np.array_equal((got @ tp.lambda_basis) % p, y)
        assert np.array_equal(got, coeffs % p)  # unique because independent
    # Vectors outside the kernel have no expansion.
    outside = np.zeros(tp.down.shape[0], dtype=np.int64)
    outside[0] = 1
    assert lambda_expansion(tp, outside) is None


@pytest.mark.parametrize("p", [2, 3])
def test_filtration_layers_t2(p):
    g = cyclic_group(p, p)
    m = trivial_module(g, 2)
    f = nontrivial_cocycle(g, m)
    ext = build_extension(g, m, f)
    n = 1
    tp = transfer_maps(ext, n)
    t = 2
    top = t * (p - 1) + 1
    assert filtration(tp, 0).dim == tp.free_total.dim
    assert filtration(tp, top).dim == 0
    # I_{n,1} = ker(down).
    i1 = filtration(tp, 1)
    assert i1 == kernel_of_down(tp)
    # Layer dimensions: i+1 copies for i <= p-1, 2p-1-i above (t = 2).
    dims = [filtration(tp, i).dim for i in range(top + 1)]
    base = g.order
    for i in range(0, t * (p - 1)):
        layer = dims[i] - dims[i + 1]
        copies = i + 1 if i <= p - 1 else 2 * p - 1 - i
        assert layer == n * copies * base
    # dim I_{n,1}/I_{n,2} = n*t*|G|.
    assert dims[1] - dims[2] == n * t * base


def test_filtration_products():
    for p in (2, 3):
        g = cyclic_group(p, p)
        m = trivial_module(g, 2)
        ext = build_extension(g, m, nontrivial_cocycle(g, m))
        t = 2
        top = t * (p - 1) + 1
        for n in (1, 2):
            tp = transfer_maps(ext, n)
            for m1 in range(0, top):
                for m2 in range(0, top):
                    prod = filtration_product(tp, filtration(tp, m1), filtration(tp, m2))
                    assert prod == filtration(tp, min(m1 + m2, top)), (p, n, m1, m2)


def filtration_cases():
    """Every transfer pair of the tp_products, dd_layers and xp_layers checks:
    p = 2 and 3, kernel rank t = 1 and 2, n = 1 and 2 copies."""
    for inst in _gen_transfer(None, 0, None) + _gen_xp(None, 0, None):
        yield inst, _build_transfer(inst)[2]


def test_filtration_is_the_closure_of_its_seeds_built_once():
    for inst, tp in filtration_cases():
        p, t = tp.ext.total.p, tp.ext.t
        top = t * (p - 1) + 1
        layers = [filtration(tp, m) for m in range(top + 1)]
        assert layers[0] == FpSubspace.full(tp.free_total.dim, p), inst
        assert layers[top].dim == 0, inst
        for m in range(1, top):
            seeds = tp.e_vectors[tp.e_exponents.sum(axis=1) >= m]
            assert layers[m] == free_submodule_closure(tp.free_total, seeds, "both"), (inst, m)
        for m in range(top):
            assert layers[m].contains(layers[m + 1]) and layers[m].dim > layers[m + 1].dim, (inst, m)
        assert all(filtration(tp, m) is layers[m] for m in range(top + 1)), inst


def test_filtration_product_matches_the_pairwise_oracle():
    """Every product of two layers, the zero and full ones included, and of
    random carriers (not submodules), in which every row of b counts."""
    rng = np.random.default_rng(11)
    for inst, tp in filtration_cases():
        p, t, dim = tp.ext.total.p, tp.ext.t, tp.free_total.dim
        top = t * (p - 1) + 1
        layers = [filtration(tp, m) for m in range(top + 1)]
        for m1, a in enumerate(layers):
            for m2, b in enumerate(layers):
                assert filtration_product(tp, a, b) == filtration_product_by_pairs(tp, a, b), (inst, m1, m2)
        for rows in (1, 3, dim // 2, dim):
            a = FpSubspace.from_rows(rng.integers(0, p, size=(2, dim)), p, dim)
            b = FpSubspace.from_rows(rng.integers(0, p, size=(rows, dim)), p, dim)
            assert filtration_product(tp, a, b) == filtration_product_by_pairs(tp, a, b), (inst, rows)


def test_up_image_independent_of_section():
    g = cyclic_group(2, 2)
    m = trivial_module(g, 1)
    f = nontrivial_cocycle(g, m)
    ext = build_extension(g, m, f)
    tp = transfer_maps(ext, 1)
    p = 2
    # Recompute up with every other fiber representative; image must agree.
    from pgv.gmodule import FreeBimodule as FB

    norm_R = FB(ext.total, 1).mul_matrix(tp.norm_vector, "right")
    img_std = FpSubspace.from_rows(tp.up, p)
    for a in ext.kernel.members:
        alt_rows = []
        for gg in range(g.order):
            h = int(ext.total.mul[int(ext.section[gg]), int(a)])
            alt_rows.append(norm_R[h])
        img_alt = FpSubspace.from_rows(np.array(alt_rows), p)
        assert img_alt == img_std


# -- the vector-code bridge against the tuple-keyed reference -------------------


def reference_extension_table(g, nmod, f):
    """Oracle: the extension table through a tuple -> code dict, one lookup
    per entry of the addition, action and cocycle tables."""
    p, t = g.p, nmod.dim
    nsize = p**t
    vecs = np.array([v[::-1] for v in itertools.product(range(p), repeat=t)], dtype=np.int64)
    vecs = vecs.reshape(nsize, t)
    lookup = {tuple(int(x) for x in v): code for code, v in enumerate(vecs)}

    def codes(rows):
        return [lookup[tuple(int(x) for x in row % p)] for row in rows]

    add = np.array([codes(vecs[a] + vecs) for a in range(nsize)])
    act_code = np.array([codes(vecs @ nmod.act[h]) for h in range(g.order)])
    f_code = np.array([codes(f.table[gg]) for gg in range(g.order)])
    order = nsize * g.order
    mul = np.zeros((order, order), dtype=np.int64)
    a_idx, g_idx = np.arange(order) % nsize, np.arange(order) // nsize
    for x in range(order):
        a, gg = a_idx[x], g_idx[x]
        part = add[act_code[g_idx, a], a_idx]
        mul[x] = add[part, f_code[gg, g_idx]] + nsize * g.mul[gg, g_idx]
    return mul


def every_class_and_zero(g, m):
    return cohomology(g, m, 2).h_reps + [zero_two_cocycle(g, m)]


def test_build_extension_matches_tuple_reference_on_small_catalog():
    from pgv.catalog import builtin_catalog

    built = 0
    for e in builtin_catalog():
        if e.order > 16:
            continue
        g = e.group()
        for dim in (1, 2):
            m = trivial_module(g, dim)
            for f in every_class_and_zero(g, m):
                ext = build_extension(g, m, f)
                assert np.array_equal(ext.total.mul, reference_extension_table(g, m, f)), e.name
                built += 1
    assert built > 100


def test_build_extension_matches_tuple_reference_on_conjugation_module():
    from pgv.gmodule import module_from_conjugation
    from pgv.group_core import normal_subgroups

    # W of order 9 in He27 with N1 = W: C3 acts on F_3^2 by a Jordan block.
    g = from_pc_presentation(pres_heis27())
    w = next(n for n in normal_subgroups(g) if n.order == 9)
    cm = module_from_conjugation(g, w, w)
    q, m = cm.module.group, cm.module
    assert np.any(m.act != np.eye(2, dtype=np.int64))
    reps = every_class_and_zero(q, m)
    assert len(reps) >= 2
    for f in reps:
        ext = build_extension(q, m, f)
        assert np.array_equal(ext.total.mul, reference_extension_table(q, m, f))


def power_product_oracle(total, gens, exps):
    """(a_1 - 1)^{i_1} ... (a_t - 1)^{i_t}, one coefficient at a time."""
    vec = np.zeros(total.order, dtype=np.int64)
    vec[0] = 1
    for a, e in zip(gens, exps):
        for _ in range(e):
            out = np.zeros(total.order, dtype=np.int64)
            for x in np.nonzero(vec)[0]:
                out[total.mul[x, a]] = (out[total.mul[x, a]] + vec[x]) % total.p
                out[x] = (out[x] - vec[x]) % total.p
            vec = out
    return vec


def product_oracle(total, x, y):
    """x * y in F_p(total) for group algebra vectors."""
    out = np.zeros(total.order, dtype=np.int64)
    for a in range(total.order):
        for b in range(total.order):
            out[total.mul[a, b]] = (out[total.mul[a, b]] + x[a] * y[b]) % total.p
    return out


def transfer_cases():
    """Every transfer instance of the check registry (central kernels), and
    C2 wr C2 = D8 over the regular C2-module, whose kernel is not central,
    so left and right products with it differ."""
    for inst in _gen_transfer(None, 0, None):
        _, ext, tp = _build_transfer(inst)
        yield inst, ext, tp
    g = cyclic_group(2, 2)
    m = regular_module(g)
    ext = build_extension(g, m, zero_two_cocycle(g, m))
    for n in (1, 2):
        yield {"wreath": "C2 wr C2", "n": n}, ext, transfer_maps(ext, n)


def test_transfer_maps_match_elementwise_oracle():
    for inst, ext, tp in transfer_cases():
        total, g, n, t = ext.total, ext.base, tp.n, ext.t
        p, to, bo = g.p, total.order, g.order
        proj = ext.projection.image_of

        def in_copy(l, vec):
            row = np.zeros(n * to, dtype=np.int64)
            row[l * to : (l + 1) * to] = vec
            return row

        def unit(x):
            return np.eye(to, dtype=np.int64)[x]

        down = np.zeros((n * to, n * bo), dtype=np.int64)
        for l in range(n):
            for x in range(to):
                down[l * to + x, l * bo + proj[x]] = 1
        assert np.array_equal(tp.down, down), inst

        norm = np.zeros(to, dtype=np.int64)
        norm[ext.kernel.members] = 1
        assert np.array_equal(tp.norm_vector, norm), inst
        up = [in_copy(l, product_oracle(total, unit(ext.section[h]), norm)) for l in range(n) for h in range(bo)]
        assert np.array_equal(tp.up, np.array(up)), inst

        exps = [e for e in itertools.product(range(p), repeat=t) for _ in range(n)]
        assert np.array_equal(tp.e_exponents, np.array(exps)), inst
        gens = ext.kernel_generators()
        evecs = [in_copy(r % n, power_product_oracle(total, gens, e)) for r, e in enumerate(exps)]
        assert np.array_equal(tp.e_vectors, np.array(evecs)), inst

        lam, lam1 = [], []
        for r, e in enumerate(exps):
            if sum(e) == 0:
                continue
            ev = power_product_oracle(total, gens, e)
            for h in range(bo):
                s = unit(ext.section[h])
                lam.append(in_copy(r % n, product_oracle(total, s, ev)))
                lam1.append(in_copy(r % n, product_oracle(total, ev, s)))
        assert np.array_equal(tp.lambda_basis, np.array(lam)), inst
        assert np.array_equal(tp.lambda1_basis, np.array(lam1)), inst
