import itertools
import math
import tracemalloc

import numpy as np
import pytest

import pgv.cohomology as cohomology_module
import pgv.fp_linalg as fl
from pgv.cohomology import (
    Cochain,
    CohomologyError,
    SampledModule,
    cayley_tree,
    coboundary,
    cocycle_seed,
    cohomology,
    conjugation_h1,
    derivation_to_automorphism,
    inflated_z1_rows,
    quotient_refinement_map,
)
from pgv.catalog import builtin_catalog, find_entry, load_catalog
from pgv.fp_linalg import left_kernel_array, matmul_mod, rank_array, rref_array
from pgv.group_core import (
    Subgroup,
    center,
    direct_product_tables,
    frattini,
    from_pc_presentation,
    map_order,
    omega1,
    quotient,
    subgroup_center,
    subgroup_closure,
)
from pgv.gmodule import (
    FreeBimodule,
    free_submodule_closure,
    module_from_conjugation,
    quotient_module,
    trivial_module,
)
from pgv.suite import run_suite
from tests.groups import (
    DATA,
    brute_force_z1,
    conjugation_derivation,
    conjugation_map,
    conjugation_module,
    cyclic_group,
    h1_of_restriction,
    loop_left_kernel,
    numpy_loop_rref,
    pres_d16,
    pres_d8,
    pres_heis27,
    regular_module,
    small_modules,
    transposed_complement_reps,
    two_coboundary,
)


def klein():
    return direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))


def test_h1_c2_trivial():
    g = cyclic_group(2, 2)
    sp = cohomology(g, trivial_module(g, 1), 1)
    assert (sp.z_dim, sp.b_dim, sp.h_dim) == (1, 0, 1)


def test_h1_c2_regular_vanishes():
    g = cyclic_group(2, 2)
    sp = cohomology(g, regular_module(g), 1)
    assert sp.h_dim == 0


def test_h1_klein_trivial_module():
    g = klein()
    sp = cohomology(g, trivial_module(g, 1), 1)
    assert sp.h_dim == 2


def test_h1_matches_bruteforce_enumeration():
    # All (G, M) pairs small enough for exhaustive function enumeration.
    cases = []
    g1 = cyclic_group(2, 2)
    cases.append((g1, trivial_module(g1, 1)))
    cases.append((g1, regular_module(g1)))
    cases.append((g1, trivial_module(g1, 2)))
    g2 = klein()
    cases.append((g2, trivial_module(g2, 1)))
    g3 = cyclic_group(3, 3)
    cases.append((g3, trivial_module(g3, 1)))
    cases.append((g3, regular_module(g3)))
    for g, m in cases:
        sp = cohomology(g, m, 1)
        tables = brute_force_z1(g, m)
        assert len(tables) == m.p**sp.z_dim
        for tab in tables:
            stacked = np.vstack([sp.z_basis, tab.reshape(1, -1)])
            assert rank_array(stacked, m.p) == sp.z_dim


def test_b1_dimension_formula():
    from pgv.gmodule import fixed_points

    for g, m in [
        (from_pc_presentation(pres_d8()), regular_module(from_pc_presentation(pres_d8()))),
        (klein(), trivial_module(klein(), 2)),
    ]:
        m = regular_module(g) if m.dim == g.order else m
        sp = cohomology(g, m, 1)
        assert sp.b_dim == m.dim - fixed_points(m).dim


def test_h2_c2_trivial_equals_enumeration():
    g = cyclic_group(2, 2)
    m = trivial_module(g, 1)
    sp = cohomology(g, m, 2)
    assert sp.h_dim == 1
    # Oracle: enumerate all 16 functions GxG -> F2, count normalized cocycles
    # and coboundaries directly.
    zs = []
    for flat in itertools.product(range(2), repeat=4):
        tab = np.array(flat, dtype=np.int64).reshape(2, 2, 1)
        c = Cochain(m, tab)
        if c.is_cocycle():
            zs.append(tab)
    assert len(zs) == 2**sp.z_dim
    bs = set()
    for s1 in range(2):
        sigma = np.array([[0], [s1]], dtype=np.int64)
        bs.add(two_coboundary(g, m, sigma).table.tobytes())
    assert len(bs) == 2**sp.b_dim


def test_h2_reps_are_cocycles():
    g = cyclic_group(3, 3)
    m = trivial_module(g, 1)
    sp = cohomology(g, m, 2)
    assert sp.h_dim == 1
    for rep in sp.h_reps:
        assert rep.is_cocycle()
        assert not rep.is_zero()


def test_h2_order_cap():
    g = cyclic_group(2, 2)
    with pytest.raises(CohomologyError):
        cohomology(g, trivial_module(g, 1), 2, h2_order_cap=1)


def test_derivation_zero_gives_identity():
    g = from_pc_presentation(pres_d16())
    orders = g.element_orders()
    n = subgroup_closure(g, [int(np.flatnonzero(orders == 8)[0])])
    w = omega1(g, subgroup_center(g, n))
    cm = module_from_conjugation(g, n, w)
    tau = Cochain(cm.module, np.zeros((2, 1), dtype=np.int64))
    f = derivation_to_automorphism(g, cm, tau)
    assert np.array_equal(f.image_of, np.arange(16))


def test_derivation_automorphism_d16():
    g = from_pc_presentation(pres_d16())
    orders = g.element_orders()
    n = subgroup_closure(g, [int(np.flatnonzero(orders == 8)[0])])
    w = omega1(g, subgroup_center(g, n))
    cm = module_from_conjugation(g, n, w)
    sp = cohomology(cm.module.group, cm.module, 1)
    assert sp.h_dim >= 1
    tau = sp.h_reps[0]
    psi = derivation_to_automorphism(g, cm, tau)
    assert map_order(psi) == 2
    # psi fixes N pointwise and moves some reflection.
    for x in n.members:
        assert psi(int(x)) == int(x)
    assert any(psi(x) != x for x in range(16))


def test_derivation_order_p_heisenberg():
    g = from_pc_presentation(pres_heis27())
    z = center(g)
    cm = module_from_conjugation(g, z, z)
    sp = cohomology(cm.module.group, cm.module, 1)
    for rep in sp.h_reps:
        psi = derivation_to_automorphism(g, cm, rep)
        assert map_order(psi) == 3


def test_additivity_of_induced_maps():
    g = from_pc_presentation(pres_heis27())
    z = center(g)
    cm = module_from_conjugation(g, z, z)
    sp = cohomology(cm.module.group, cm.module, 1)
    reps = sp.h_reps
    if len(reps) >= 2:
        t1, t2 = reps[0], reps[1]
        psi1 = derivation_to_automorphism(g, cm, t1)
        psi2 = derivation_to_automorphism(g, cm, t2)
        both = derivation_to_automorphism(g, cm, Cochain(cm.module, t1.table + t2.table))
        assert np.array_equal(both.image_of, psi1.image_of[psi2.image_of])


def test_conjugation_derivation_central_is_zero():
    g = from_pc_presentation(pres_d8())
    z = center(g)
    full_frattini = z  # Phi(D8) = Z(D8)
    cm = module_from_conjugation(g, full_frattini, omega1(g, z))
    zc = int(z.members[1])
    der = conjugation_derivation(g, cm, 0)
    assert der.is_zero()


def test_conjugation_derivation_matches_conjugation():
    g = from_pc_presentation(pres_d8())
    z = center(g)
    cm = module_from_conjugation(g, z, z)
    tested = 0
    for x in range(8):
        try:
            der = conjugation_derivation(g, cm, x)
        except CohomologyError:
            continue
        psi = derivation_to_automorphism(g, cm, der)
        conj = conjugation_map(g, x)
        assert np.array_equal(psi.image_of, conj.image_of)
        tested += 1
    assert tested >= 1


def test_conjugation_derivation_by_a_reflection_is_not_center_valued():
    # In D16 a reflection x sends the rotation r to r^-1, so r^-1 r^x = r^-2
    # has order 4 and lies outside W = Z(D16).
    g = from_pc_presentation(pres_d16())
    z = center(g)
    cm = module_from_conjugation(g, z, z)
    orders = g.element_orders()
    x = next(y for y in range(g.order) if orders[y] == 2 and not z.contains(y))
    with pytest.raises(CohomologyError, match="not W-valued"):
        conjugation_derivation(g, cm, x)


def test_inflation_injective_and_functorial():
    g = from_pc_presentation(pres_d16())
    # N = <r^2> (order 4), N1 = <r^4> (order 2), both normal.
    orders = g.element_orders()
    r = int(np.flatnonzero(orders == 8)[0])
    r2 = int(g.mul[r, r])
    r4 = int(g.mul[r2, r2])
    n = subgroup_closure(g, [r2])
    n1 = subgroup_closure(g, [r4])
    w = omega1(g, center(g))
    cm_n = module_from_conjugation(g, n, w)
    cm_n1 = module_from_conjugation(g, n1, w)
    pi = quotient_refinement_map(cm_n1.quotient_map, cm_n.quotient_map)
    sp = cohomology(cm_n.module.group, cm_n.module, 1)
    rows = inflated_z1_rows(sp, pi)
    assert rows.shape == (len(sp.z_basis), cm_n1.module.group.order * cm_n1.module.dim)
    for row in rows:
        assert Cochain(cm_n1.module, row.reshape(-1, cm_n1.module.dim)).is_cocycle()
    assert rank_array(rows, g.p) == len(sp.z_basis)  # inflation is injective on Z^1


def test_probe_zero_h1_absent():
    from pgv.noninner import try_config

    g = cyclic_group(2, 4)
    z = center(g)
    # G/G is trivial, so H^1 vanishes: no induced map is tested and none is non-inner.
    full = Subgroup(g, np.arange(4), check=False)
    cert, evidence = try_config(g, full, omega1(g, z), "paper", "probe")
    assert cert is None
    assert (evidence["h1_dim"], evidence["tested"], evidence["all_inner"]) == (0, 0, True)


def test_h1_of_restricted_free_module_is_zero():
    g = from_pc_presentation(pres_d8())
    fb = FreeBimodule(g, 1)
    full = free_submodule_closure(fb, np.eye(8, dtype=np.int64), "right")
    assert h1_of_restriction(fb, full) == 0
    assert SampledModule(fb, full).h1_dim == 0


# -- slices at generators against slices at every element ----------------------


def h1_slice(g, m, h):
    """Matrix of tau -> [tau(xh) - tau(x).h - tau(h)]_x, rows indexed by (x, i)."""
    q, d = g.order, m.dim
    D = np.zeros((q, d, q, d), dtype=np.int64)
    x = np.arange(q)
    for j in range(d):
        np.add.at(D, (g.mul[x, h], j, x, j), 1)
        np.add.at(D, (h, j, x, j), -1)
        for i in range(d):
            np.add.at(D, (x, i, x, j), -m.act[h, i, j])
    return D.reshape(q * d, q * d) % m.p


def h2_slice(g, m, k):
    """Matrix of f -> [f(x,y).k + f(xy,k) - f(y,k) - f(x,yk)]_(x,y), x, y, k != 1."""
    q, d = g.order, m.dim
    D = np.zeros((q - 1, q - 1, d, q - 1, q - 1, d), dtype=np.int64)
    x, y = (a.reshape(-1) for a in np.meshgrid(np.arange(1, q), np.arange(1, q), indexing="ij"))
    xy, yk = g.mul[x, y], g.mul[y, k]
    for j in range(d):
        for i in range(d):
            np.add.at(D, (x - 1, y - 1, i, x - 1, y - 1, j), m.act[k, i, j])
        keep = xy != 0
        np.add.at(D, (xy[keep] - 1, k - 1, j, x[keep] - 1, y[keep] - 1, j), 1)
        np.add.at(D, (y - 1, k - 1, j, x - 1, y - 1, j), -1)
        keep = yk != 0
        np.add.at(D, (x[keep] - 1, yk[keep] - 1, j, x[keep] - 1, y[keep] - 1, j), -1)
    n = (q - 1) ** 2 * d
    return D.reshape(n, n) % m.p


def z_over_all_slices(g, m, degree):
    """Oracle: RREF basis of the cocycles, intersecting the slice at every element."""
    p = m.p
    if degree == 1:
        n, slices = g.order * m.dim, [h1_slice(g, m, h) for h in range(g.order)]
    else:
        n, slices = (g.order - 1) ** 2 * m.dim, [h2_slice(g, m, k) for k in range(1, g.order)]
    S = np.eye(n, dtype=np.int64)
    for D in slices:
        S = matmul_mod(left_kernel_array(matmul_mod(S, D, p), p), S, p)
    R, piv = rref_array(S, p)
    return R[: len(piv)]


def assert_z_matches_all_slices(g, m, degree):
    sp = cohomology(g, m, degree)
    z = sp.z_basis
    if degree == 2:
        # The solver's rows are whole tables; the oracle's omit the identity
        # arguments, where every normalized cocycle is zero.
        tables = z.reshape(len(z), g.order, g.order, m.dim)
        assert not tables[:, 0].any() and not tables[:, :, 0].any(), (g, m.name)
        z = tables[:, 1:, 1:].reshape(len(z), (g.order - 1) ** 2 * m.dim)
    assert np.array_equal(z, z_over_all_slices(g, m, degree)), (g, m.name, degree)


def test_generator_slices_give_every_slice_z1():
    small = [e.group() for e in builtin_catalog() if e.order <= 16]
    nontrivial_actions = 0
    for g in small:
        conj = conjugation_module(g)
        nontrivial_actions += bool(np.any(conj.act != np.eye(conj.dim, dtype=np.int64)))
        for m in (trivial_module(g, 1), trivial_module(g, 2), regular_module(g), conj):
            assert_z_matches_all_slices(m.group, m, 1)
    assert nontrivial_actions >= 5


def test_generator_slices_give_every_slice_z2():
    for e in builtin_catalog():
        if e.order > 16 and e.order != 27:
            continue
        g = e.group()
        assert_z_matches_all_slices(g, trivial_module(g, 1), 2)
        if e.order <= 16:
            conj = conjugation_module(g)
            assert_z_matches_all_slices(conj.group, conj, 2)
        if e.order <= 8:
            assert_z_matches_all_slices(g, regular_module(g), 2)


# -- the coboundary operator against the elementwise oracles --------------------


def test_coboundary_slices_match_elementwise_oracles():
    for m in small_modules():
        g, q, d, p = m.group, m.group.order, m.dim, m.p
        units1 = np.eye(q * d, dtype=np.int64).reshape(q * d, q, d)
        n = (q - 1) ** 2 * d
        units2 = np.zeros((n, q, q, d), dtype=np.int64)
        units2[:, 1:, 1:] = np.eye(n, dtype=np.int64).reshape(n, q - 1, q - 1, d)
        for k in range(q):
            d1 = coboundary(m, units1, last=k).reshape(q * d, q * d)
            assert np.array_equal(d1, -h1_slice(g, m, k) % p), (g.name, m.name, k)
            if k:
                d2 = coboundary(m, units2, last=k)
                assert not d2[:, 0].any() and not d2[:, :, 0].any()
                assert np.array_equal(d2[:, 1:, 1:].reshape(n, n), h2_slice(g, m, k)), (g.name, m.name, k)


def test_full_coboundary_stacks_its_slices():
    rng = np.random.default_rng(1)
    for m in small_modules():
        q, d, p = m.group.order, m.dim, m.p
        for n in range(3):
            c = rng.integers(0, p, size=(4,) + (q,) * n + (d,))
            slices = np.stack([coboundary(m, c, last=k) for k in range(q)], axis=-2)
            assert np.array_equal(coboundary(m, c), slices), (m.group.name, m.name, n)


def cocycle_oracle(m, t):
    """The cocycle identity of ``Cochain.is_cocycle`` written out element-wise:
    tau(gh) = tau(g).h + tau(h) in degree 1; f(g,h).k + f(gh,k) = f(h,k) +
    f(g,hk) and f(1,.) = f(.,1) = 0 in degree 2."""
    q, mul, act, p = m.group.order, m.group.mul, m.act, m.p
    if t.ndim == 2:
        x, y = np.indices((q, q))
        return np.array_equal(t[mul[x, y]], ((t[x][..., None, :] @ act[y])[..., 0, :] + t[y]) % p)
    x, y, z = np.indices((q, q, q))
    lhs = (t[x, y][..., None, :] @ act[z])[..., 0, :] + t[mul[x, y], z]
    rhs = t[y, z] + t[x, mul[y, z]]
    return np.array_equal(lhs % p, rhs % p) and not t[0].any() and not t[:, 0].any()


def test_is_cocycle_matches_elementwise_identity():
    rng = np.random.default_rng(2)
    verdicts = {1: set(), 2: set()}
    for m in small_modules():
        q, d, p = m.group.order, m.dim, m.p
        reps = cohomology(m.group, m, 1).h_reps + cohomology(m.group, m, 2).h_reps
        # d sigma for a normalized sigma and for one with sigma(1) != 0,
        # which is a cocycle that is not normalized
        sigma = rng.integers(0, p, size=(2, q, d))
        sigma[0, 0] = 0
        sigma[1, 0, rng.integers(d)] = 1 + rng.integers(p - 1)
        x, y = np.indices((q, q))
        d_sigma = (sigma[:, x, None, :] @ m.act[y])[..., 0, :] + sigma[:, y] - sigma[:, m.group.mul[x, y]]
        assert cocycle_oracle(m, d_sigma[0] % p) and not cocycle_oracle(m, d_sigma[1] % p)
        tables = [r.table for r in reps] + list(d_sigma)
        for t in list(tables):
            changed = t.copy()
            changed[tuple(rng.integers(n) for n in t.shape)] += 1
            tables.append(changed)
        for t in tables:
            want = cocycle_oracle(m, t % p)
            assert Cochain(m, t).is_cocycle() == want, (m.group.name, m.name, t.ndim - 1)
            verdicts[t.ndim - 1].add(want)
    assert verdicts == {1: {True, False}, 2: {True, False}}


def test_cocycle_seed_is_its_unit_values_and_closed_on_the_tree():
    # Row u of the seed takes the u-th unit value at (..., s), s in the
    # Burnside basis, and the walk over the Cayley tree solves d = 0 for the
    # value at each new element, so d of every row vanishes on the tree edges.
    # Over a cyclic group a recursion with the action on the wrong side
    # builds the same seed; the regular modules act through non-cyclic groups.
    regular = [regular_module(e.group()) for e in builtin_catalog() if e.order <= 8]
    for m in itertools.chain(small_modules(), regular):
        g, q, d = m.group, m.group.order, m.dim
        gens = g.burnside_basis()
        edges = cayley_tree(g, gens)
        assert edges[: len(gens)] == [(0, s, s) for s in gens]
        assert sorted(hs for _, _, hs in edges) == list(range(1, q))
        for degree in (1, 2):
            seed = cocycle_seed(m, gens, degree)
            n = len(seed)
            assert n == (1 if degree == 1 else q - 1) * len(gens) * d
            at_gens = np.take(seed, gens, axis=degree)
            if degree == 2:
                assert not seed[:, 0].any() and not seed[:, :, 0].any()
                at_gens = at_gens[:, 1:]
            assert np.array_equal(at_gens.reshape(n, n), np.eye(n, dtype=np.int64)), (g.name, m.name)
            for h, s, _ in edges:
                on_edge = np.take(coboundary(m, seed, last=s), h, axis=degree)
                assert not on_edge.any(), (g.name, m.name, degree, h, s)


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(0)
    for m in small_modules():
        q, d, p = m.group.order, m.dim, m.p
        v = rng.integers(0, p, size=(3, d))
        tau = rng.integers(0, p, size=(3, q, d))
        assert coboundary(m, v).shape == (3, q, d)
        assert not coboundary(m, coboundary(m, v)).any()
        assert coboundary(m, tau).shape == (3, q, q, d)
        assert not coboundary(m, coboundary(m, tau)).any()


def test_trivial_group_h1_pins_tau_at_the_identity():
    # The trivial group has an empty Burnside basis, so the seed has no rows
    # and tau(1) = 0 is the only derivation.
    g = cyclic_group(2, 2)
    cm = module_from_conjugation(g, Subgroup(g, [0, 1]), center(g))
    assert cm.module.group.order == 1
    sp = cohomology(cm.module.group, cm.module, 1)
    assert (sp.z_dim, sp.b_dim, sp.h_dim) == (0, 0, 0)
    assert np.array_equal(sp.z_basis, z_over_all_slices(cm.module.group, cm.module, 1))


def test_h2_peak_memory_he27():
    g = find_entry("He27").group()
    m = trivial_module(g, 1)
    tracemalloc.start()
    try:
        cohomology(g, m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- the vector-code bridge against the tuple-keyed reference -------------------


def reference_conjugation_bridge(g, n1, w, basis_elements):
    """Oracle: the element <-> tuple dicts and the conjugation action read
    through them, one group element at a time."""
    p = g.p
    vec_of_element, element_of_vec = {}, {}
    for coeffs in itertools.product(range(p), repeat=len(basis_elements)):
        e = 0
        for b, c in zip(basis_elements, coeffs):
            e = int(g.mul[e, g.power(b, c)])
        vec_of_element[e] = coeffs
        element_of_vec[coeffs] = e
    assert sorted(vec_of_element) == sorted(int(x) for x in w.members)
    qt, qm = quotient(g, n1)
    sections = [int(qm.section[q]) for q in range(qt.order)]
    act = np.array(
        # b^s = s^-1 b s
        [[vec_of_element[int(g.mul[g.mul[g.inv[s], b], s])] for b in basis_elements] for s in sections],
        dtype=np.int64,
    )
    return act.reshape(qt.order, len(basis_elements), len(basis_elements)), element_of_vec


def test_conjugation_bridge_matches_tuple_reference_on_sweep_configs():
    from pgv.group_core import GroupError, GroupMap
    from pgv.gmodule import ModuleError
    from pgv.noninner import _sweep_configs

    configs = images = 0
    for e in builtin_catalog():
        if e.order > 32:
            continue
        g = e.group()
        if g.is_abelian():
            continue
        for n1, w, *_ in _sweep_configs(g):
            try:
                cm = module_from_conjugation(g, n1, w)
            except ModuleError:
                continue
            act, element_of_vec = reference_conjugation_bridge(g, n1, w, cm.basis_elements)
            assert np.array_equal(cm.module.act, act), e.name
            configs += 1
            for rep in cohomology(cm.module.group, cm.module, 1).h_reps:
                img_of = cm.quotient_map.image_of
                want = [int(g.mul[x, element_of_vec[tuple(int(c) for c in rep.table[img_of[x]])]]) for x in range(g.order)]
                try:
                    got = derivation_to_automorphism(g, cm, rep).image_of
                except GroupError:
                    ref = GroupMap(g, g, np.array(want), check=False)
                    assert not (ref.is_homomorphism() and ref.is_bijective())
                    continue
                assert list(got) == want, e.name
                images += 1
    assert configs > 1000 and images > 1000


def test_conjugation_h1_is_built_once_per_pair(monkeypatch):
    built = []
    real = cohomology_module.module_from_conjugation

    def counted(g, n1, w):
        built.append((n1.key(), w.key()))
        return real(g, n1, w)

    monkeypatch.setattr(cohomology_module, "module_from_conjugation", counted)
    g = from_pc_presentation(pres_d8())  # a fresh table: nothing cached yet
    klein = subgroup_closure(g, [1, 4])  # <g3, g1>
    rotations = subgroup_closure(g, [2])  # <g2>, cyclic of order 4
    first = conjugation_h1(g, klein, klein)
    assert first is not None and (first[1].z_dim, first[1].h_dim) == (1, 0)  # regular F_2[C_2]
    # Equal subgroups built afresh hit the same entry, and a refusal (W not
    # elementary abelian) is cached like any other result.
    assert conjugation_h1(g, Subgroup(g, klein.members), Subgroup(g, klein.members)) is first
    assert conjugation_h1(g, klein, rotations) is None
    assert conjugation_h1(g, klein, rotations) is None
    assert built == [(klein.key(), klein.key()), (klein.key(), rotations.key())]


# -- the process-wide cache of solves -------------------------------------------


def test_a_module_over_another_table_of_the_same_order_is_refused():
    c4, v4 = cyclic_group(2, 4), klein()
    # H^1(V4, F_2) is solved and cached first: the table check runs before
    # the lookup, so the cached space is not read for C4.
    assert cohomology(v4, trivial_module(v4, 1), 1).h_dim == 2
    with pytest.raises(CohomologyError):
        cohomology(c4, trivial_module(v4, 1), 1)  # once read as H^1(C4, F_2) = 2
    assert cohomology(c4, trivial_module(c4, 1), 1).h_dim == 1
    # An equal table built afresh is the same group.
    assert cohomology(klein(), trivial_module(v4, 1), 1).h_dim == 2


def test_the_caps_are_checked_before_the_lookup():
    g = cyclic_group(2, 8)
    m = trivial_module(g, 1)
    assert cohomology(g, m, 2).h_dim == 1  # cached at the default cap
    with pytest.raises(CohomologyError, match="cap exceeded"):
        cohomology(g, m, 2, h2_order_cap=4)
    with pytest.raises(CohomologyError, match="degree"):
        cohomology(g, m, 3)


def _count_solves(monkeypatch):
    solves = []
    real = cohomology_module._solve

    def counted(m, degree):
        solves.append(degree)
        return real(m, degree)

    monkeypatch.setattr(cohomology_module, "_solve", counted)
    return solves


def _same_bases(a, b):
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.z_basis, b.z_basis), (a.b_basis, b.b_basis))
    )


def _stored(cache):
    return [e for entries in cache.entries.values() for e in entries]


def _kept_bytes(cache):
    return sum(e.nbytes for e in _stored(cache))


def test_spaces_served_by_the_cache_equal_a_fresh_solve(monkeypatch):
    spaces = []
    real = cohomology_module.CohomologySpace

    def recorded(*args):
        spaces.append(real(*args))
        return spaces[-1]

    solves = _count_solves(monkeypatch)
    monkeypatch.setattr(cohomology_module, "CohomologySpace", recorded)
    report = run_suite("du_growth,jx_rank,px_iff", catalog=builtin_catalog.__wrapped__())
    monkeypatch.undo()
    assert not report["infra_errors"]
    # The cache served most of these spaces from an earlier solve.
    assert len(spaces) > 2 * len(solves) > 0
    for sp in spaces:
        fresh = real(sp.degree, sp.group, sp.module, *cohomology_module._solve(sp.module, sp.degree))
        assert _same_bases(sp, fresh), (sp.group.name, sp.module.name, sp.degree)
        assert not sp.z_basis.flags.writeable and not sp.b_basis.flags.writeable


def test_distinct_modules_under_one_digest_keep_their_own_spaces(monkeypatch):
    modules = [m for m in small_modules() if m.group.order <= 8]
    with cohomology_module.fresh_solve_cache():
        fresh = [cohomology(m.group, m, degree) for m in modules for degree in (1, 2)]
    monkeypatch.setattr(cohomology_module, "_content_digest", lambda m: b"")
    monkeypatch.setattr(cohomology_module, "SOLVE_CACHE_BYTES", 1 << 22)  # room for every space
    solves = _count_solves(monkeypatch)
    for _ in range(2):
        shared = [cohomology(m.group, m, degree) for m in modules for degree in (1, 2)]
        assert all(_same_bases(a, b) for a, b in zip(shared, fresh))
    # Every module collides under one key per (degree, p) and keeps an entry
    # of its own there: the second pass solves nothing.
    distinct = {(d, m.p, m.group.mul.tobytes(), m.act.tobytes()) for m in modules for d in (1, 2)}
    cache = cohomology_module._solves
    assert set(cache.entries) == {(d, p, b"") for d, p, *_ in distinct}
    assert len(solves) == len(distinct) == len(_stored(cache)) < len(fresh)


@pytest.mark.parametrize("collide", [False, True])
def test_the_cache_evicts_least_recently_used_entries_by_stored_bytes(monkeypatch, collide):
    if collide:  # one key for all three: eviction still drops one entry at a time
        monkeypatch.setattr(cohomology_module, "_content_digest", lambda m: b"")
    g = cyclic_group(2, 4)
    a, b, c = (trivial_module(g, d) for d in (1, 2, 3))
    sizes = []
    for m in (a, b, c):
        with cohomology_module.fresh_solve_cache():
            cohomology(g, m, 2)
            sizes.append(cohomology_module._solves.nbytes)
    assert sizes[0] < sizes[1] < sizes[2]
    # Room for any two of them, not for all three.
    monkeypatch.setattr(cohomology_module, "SOLVE_CACHE_BYTES", sizes[1] + sizes[2])
    solves = _count_solves(monkeypatch)
    cache = cohomology_module._solves
    cohomology(g, a, 2)
    cohomology(g, b, 2)
    cohomology(g, a, 2)  # a hit: b is now the least recently used
    cohomology(g, c, 2)  # b goes
    assert len(solves) == 3 and cache.nbytes == sizes[0] + sizes[2] == _kept_bytes(cache)
    cohomology(g, a, 2)
    cohomology(g, c, 2)
    assert len(solves) == 3
    cohomology(g, b, 2)  # solved again, and a, least recently used, goes
    cohomology(g, c, 2)
    assert len(solves) == 4 and cache.nbytes == sizes[1] + sizes[2] == _kept_bytes(cache)
    cohomology(g, a, 2)  # b, least recently used, goes
    assert len(solves) == 5 and cache.nbytes == sizes[0] + sizes[2] == _kept_bytes(cache)
    assert len(_stored(cache)) == len(cache.lru) == 2


def test_the_cache_stores_narrow_copies_and_skips_a_solve_over_the_budget(monkeypatch):
    cache = cohomology_module._solves
    for g, degree, mul_dtype in ((cyclic_group(2, 4), 2, np.uint8), (cyclic_group(3, 9), 2, np.uint8),
                                 (cyclic_group(2, 512), 1, np.uint16)):
        m = trivial_module(g, 2)
        monkeypatch.setattr(cohomology_module, "SOLVE_CACHE_BYTES", 1 << 20)
        # Arrays up to COPY_ABOVE_BYTES are kept as they are, larger ones as
        # narrow copies; with a threshold of 0 every array is copied.
        for copy_above in (cohomology_module.COPY_ABOVE_BYTES, 0):
            monkeypatch.setattr(cohomology_module, "COPY_ABOVE_BYTES", copy_above)
            with cohomology_module.fresh_solve_cache():
                sp = cohomology(g, m, degree)
                (entry,) = _stored(cohomology_module._solves)
                stored = cohomology_module._solves.nbytes
            for kept, given, dtype in ((entry.mul, g.mul, mul_dtype), (entry.act, m.act, np.uint8),
                                       (entry.z_basis, sp.z_basis, np.uint8), (entry.b_basis, sp.b_basis, np.uint8)):
                if given.nbytes <= copy_above:
                    assert kept is given, g.name
                else:
                    assert kept.dtype == dtype and np.array_equal(kept, given), g.name
            assert stored == entry.nbytes
        assert stored * 3 < sum(a.nbytes for a in (g.mul, m.act, sp.z_basis, sp.b_basis))
        # One byte less than the entry: it is not stored, and nothing is evicted for it.
        monkeypatch.setattr(cohomology_module, "SOLVE_CACHE_BYTES", stored - 1)
        small = cyclic_group(2, 2)
        cohomology(small, trivial_module(small, 1), 1)
        before = _stored(cache)
        solves = _count_solves(monkeypatch)
        for _ in range(2):
            assert _same_bases(cohomology(g, m, degree), sp)
        assert len(solves) == 2 and _stored(cache) == before
        monkeypatch.undo()


def test_shared_bases_refuse_writes(monkeypatch):
    g, h = cyclic_group(2, 2), cyclic_group(2, 2)
    first = cohomology(g, regular_module(g), 1)
    sp = cohomology(h, regular_module(h), 1)  # a hit: the stored bases themselves
    assert sp.z_dim == sp.b_dim == 1 and sp.z_basis is first.z_basis and sp.b_basis is first.b_basis
    # The caller's table and module label the space.
    assert sp.group is h and sp.module is not first.module
    monkeypatch.setattr(cohomology_module, "COPY_ABOVE_BYTES", 0)
    with cohomology_module.fresh_solve_cache():
        cohomology(g, regular_module(g), 1)
        copied = cohomology(g, regular_module(g), 1)  # a hit: int64 copies of narrow bases
    assert _same_bases(copied, first) and copied.z_basis is not first.z_basis
    for basis in (first.z_basis, first.b_basis, copied.z_basis, copied.b_basis):
        with pytest.raises(ValueError):
            basis[0, 0] = 0


def test_scopes_nest_and_an_exception_closes_them(monkeypatch):
    # A fresh_solve_cache block, replay's own cache, reads no entry made
    # before it, and at its exit the cache outside is back as it was.
    g = klein()
    m1, m2 = trivial_module(g, 1), trivial_module(g, 2)
    solves = _count_solves(monkeypatch)
    outer = cohomology_module._solves
    cohomology(g, m1, 1)
    with cohomology_module.fresh_solve_cache():
        cohomology(g, m1, 1)
        with cohomology_module.fresh_solve_cache():
            cohomology(g, m1, 1)
            cohomology(g, m2, 1)
        assert len(solves) == 4
        cohomology(g, m1, 1)
        cohomology(g, m2, 1)
        assert len(solves) == 5
    assert cohomology_module._solves is outer
    cohomology(g, m1, 1)
    assert len(solves) == 5
    with pytest.raises(RuntimeError):
        with cohomology_module.fresh_solve_cache():
            cohomology(g, m1, 1)
            raise RuntimeError("stop")
    assert cohomology_module._solves is outer and len(solves) == 6
    cohomology(g, m1, 1)
    cohomology(g, m2, 1)
    assert len(solves) == 7


def test_the_zero_module_has_zero_cohomology(monkeypatch):
    g = find_entry("D8").group()
    m = regular_module(g)
    whole = fl.FpSubspace.from_rows(np.eye(m.dim, dtype=np.int64), m.p)
    solves = _count_solves(monkeypatch)
    # Both modules are 0 over one table: the second one reads the cache.
    for zero in (trivial_module(g, 0), quotient_module(m, whole)[0]):
        assert zero.dim == 0
        for degree in (1, 2):
            sp = cohomology(g, zero, degree)
            assert sp.z_basis.shape == sp.b_basis.shape == (0, 0)
            assert (sp.z_dim, sp.b_dim, sp.h_dim, sp.h_reps) == (0, 0, 0, [])
    assert solves == [1, 2]


def solver_spaces(order):
    """Z, B and the H representatives' tables of H^1 and H^2 over F_p and
    F_p^2, for every catalog group of this order."""
    out = []
    for e in builtin_catalog():
        if e.order != order:
            continue
        g = e.group()
        for d, n in itertools.product((1, 2), (1, 2)):
            sp = cohomology(g, trivial_module(g, d), n)
            out.append((e.name, d, n, sp.z_basis, sp.b_basis, [f.table for f in sp.h_reps]))
    return out


def check_solver_spaces_under_the_numpy_loop(monkeypatch, order, groups):
    packed = solver_spaces(order)
    monkeypatch.setattr(fl, "rref_array", numpy_loop_rref)
    monkeypatch.setattr(fl, "left_kernel_basis", loop_left_kernel)
    monkeypatch.setattr(fl, "complement_reps", transposed_complement_reps)
    looped = solver_spaces(order)
    assert len(packed) == groups * 4
    for got, want in zip(packed, looped):
        assert got[:3] == want[:3]
        for x, y in zip(got[3:5], want[3:5]):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), got[:3]
        assert len(got[5]) == len(want[5]) and all(x.tobytes() == y.tobytes() for x, y in zip(got[5], want[5]))


def test_solver_spaces_are_the_same_with_the_numpy_loop_at_p_2(monkeypatch):
    # The packed F_2 kernel against the numpy per-pivot loop, through the
    # whole solve: every order-16 group, H^1 and H^2 of F_2 and F_2^2.
    check_solver_spaces_under_the_numpy_loop(monkeypatch, 16, 14)


def test_solver_spaces_are_the_same_with_the_numpy_loop_at_p_3(monkeypatch):
    # The bit-sliced F_3 kernel likewise: every order-27 group.
    check_solver_spaces_under_the_numpy_loop(monkeypatch, 27, 5)


def test_h1_over_the_trivial_module_has_the_rank_of_the_frattini_quotient():
    # H^1(G, F_p) = Hom(G, F_p) has dimension log_p |G : Phi(G)|, and B^1 is
    # 0 (Brown, Cohomology of Groups, III.1).  Phi(G) is computed apart from
    # the solver: the closure of the commutators and p-th powers.
    groups = [e.group() for e in builtin_catalog()]
    groups += [e.group() for e in load_catalog(str(DATA / "special32.pres"))]
    assert len(groups) == 122
    for g in groups:
        index = g.order // frattini(g).order
        rank = round(math.log(index, g.p))
        assert g.p**rank == index
        sp = cohomology(g, trivial_module(g, 1), 1)
        assert (sp.z_dim, sp.b_dim, sp.h_dim) == (rank, 0, rank), g.name


def test_trivial_2_doubles_every_dimension_of_trivial_1():
    # Universal coefficients: F_p^2 = F_p + F_p as modules, so Z^n, B^n and
    # H^n of trivial:2 are twice those of trivial:1.
    for e in builtin_catalog():
        if e.order > 27:
            continue
        g = e.group()
        for n in (1, 2):
            one = cohomology(g, trivial_module(g, 1), n)
            two = cohomology(g, trivial_module(g, 2), n)
            assert (two.z_dim, two.b_dim, two.h_dim) == (2 * one.z_dim, 2 * one.b_dim, 2 * one.h_dim), (e.name, n)