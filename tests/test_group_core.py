import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pgv.group_core import (
    GroupError,
    GroupTable,
    InconsistentPresentation,
    Subgroup,
    center,
    centralizer,
    commutator_subgroup,
    direct_product_tables,
    frattini,
    from_pc_presentation,
    GroupMap,
    is_inner,
    is_isomorphic,
    iset,
    map_order,
    maximal_subgroups,
    memo,
    normal_subgroups,
    normals_between,
    omega1,
    opposite,
    phi_layers,
    quotient,
    set_product,
    subgroup_center,
    subgroup_closure,
    _abelian_isomorphism,
    _element_signature,
    abelian_cyclic_basis,
)
from pgv.catalog import PRODUCT_CAP, _product_entries, builtin_catalog, find_entry, load_catalog, table_to_presentation
from pgv.cohomology import cohomology
from pgv.gmodule import trivial_module
from pgv.noninner import Certificate, find_noninner
from pgv.presentations import PcPresentation, PresentationError, parse_presentations
from tests.groups import (
    abelian_cyclic_basis_by_loops,
    abelian_isomorphism_by_loops,
    all_subgroups,
    associative_by_every_element,
    collected_right_by_gen,
    conjugation_map,
    cyclic_group,
    identity_map,
    loop_is_inner,
    loop_quotient,
    maximal_subgroups_bruteforce,
    octonion_loop,
    pres_d16,
    pres_d8,
    pres_heis27,
    shipped_presentations,
    table_from_right_by_gen,
    trivial_group,
)


def pres_c4():
    return PcPresentation(2, 2, "C4", {1: [2], 2: []}, {})


def pres_q8():
    return PcPresentation(2, 3, "Q8", {1: [3], 2: [3], 3: []}, {(2, 1): [3]})


def test_cyclic_from_presentation():
    g = from_pc_presentation(pres_c4())
    assert g.order == 4
    assert g.element_order(2) == 4  # g1 has index p^(n-1) = 2
    assert g.is_abelian()


def test_d8_from_presentation():
    g = from_pc_presentation(pres_d8())
    assert g.order == 8
    assert not g.is_abelian()
    assert max(g.element_orders()) == 4
    # Exhaustive associativity oracle over all triples.
    for a, b, c in itertools.product(range(8), repeat=3):
        assert g.mul[g.mul[a, b], c] == g.mul[a, g.mul[b, c]]


def test_bad_word_lower_generator():
    with pytest.raises(PresentationError):
        PcPresentation(2, 2, "bad", {2: [1]}, {})


def test_inconsistent_presentation_rejected():
    # Grammar-valid but contradictory: g2 = g1^2 must commute with g1, yet
    # the presentation declares [g2, g1] = g3.
    bad = PcPresentation(
        2, 3, "bad", {1: [2], 2: [3], 3: []}, {(2, 1): [3]}
    )
    with pytest.raises(InconsistentPresentation):
        from_pc_presentation(bad)


def test_inconsistent_power_relation_rejected():
    # [g2, g1] = g3 as in He27, but g1^3 = g2 cannot commute with g1.  With
    # g1^3 = g3 instead, the same relations present a group of order 27.
    def pres(pow1):
        return PcPresentation(3, 3, "bad", {1: pow1, 2: [], 3: []}, {(2, 1): [3]})

    assert from_pc_presentation(pres([3])).order == 27
    with pytest.raises(InconsistentPresentation):
        from_pc_presentation(pres([2]))


def test_array_construction_matches_collection_on_every_shipped_presentation():
    # x g_k for every x by collecting the whole word, and the table built
    # from those columns, against the table from the tail subgroups.
    presentations = shipped_presentations()
    assert len(presentations) == 94
    for pres in presentations:
        g = from_pc_presentation(pres)
        right_by_gen = collected_right_by_gen(pres)
        gens = [pres.p ** (pres.ngens - k) for k in range(1, pres.ngens + 1)]
        assert np.array_equal(g.mul[:, gens].T, right_by_gen), pres.name
        assert np.array_equal(g.mul, table_from_right_by_gen(right_by_gen, pres.p)), pres.name


def test_order_1024_presentation_is_built_in_bounded_memory():
    # D32 x D32 at the default order cap: its table is 8 MiB, and building
    # and validating it (exact associativity included) stays below 64 MiB
    # traced.  A check of 10 n^2 random triples would hold 240 MiB of
    # indices alone.
    d32 = find_entry("D32").group()
    pres = table_to_presentation(direct_product_tables(d32, d32), "D32xD32")
    tracemalloc.start()
    try:
        g = from_pc_presentation(pres)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 1024 and center(g).order == 4
    assert peak < 64 << 20, peak


def _accepts(p, mul):
    """Does GroupTable validation accept the table?  On a loop (rows and
    columns permutations, 0 the identity) only associativity can fail."""
    try:
        GroupTable(p, mul)
    except GroupError as e:
        assert str(e).startswith("associativity fails"), e
        return False
    return True


def test_associativity_test_agrees_with_every_element_on_tables_and_quotients():
    quotients = 0
    for e in builtin_catalog():
        g = e.group()
        assert _accepts(g.p, g.mul) and associative_by_every_element(g.mul), e.name
        if e.order <= 32:
            for n in normal_subgroups(g):
                q, _ = quotient(g, n)
                assert _accepts(q.p, q.mul) and associative_by_every_element(q.mul), e.name
                quotients += 1
    assert quotients == 1488


def _twisted_loop(g, f):
    """G x C_p with (x, a)(y, b) = (xy, a + b + f(x, y)) at index p x + a: a
    loop for f vanishing at the identity, associative exactly when f is a
    2-cocycle.  Index 1 is (1, 1), central and in the nucleus."""
    x, a = np.divmod(np.arange(g.order * g.p), g.p)
    return g.mul[np.ix_(x, x)] * g.p + (a[:, None] + a[None, :] + f[np.ix_(x, x)]) % g.p


def test_associativity_test_agrees_with_every_element_on_twisted_loops():
    rng = np.random.default_rng(0)
    seen = {True: 0, False: 0}
    for e in builtin_catalog():
        if e.order > 16:
            continue
        g = e.group()
        random_f = rng.integers(0, g.p, size=(g.order, g.order))
        random_f[0, :] = random_f[:, 0] = 0
        cocycles = [rep.table[:, :, 0] for rep in cohomology(g, trivial_module(g, 1), 2).h_reps]
        for f in [random_f] + cocycles:
            loop = _twisted_loop(g, f)
            verdict = _accepts(g.p, loop)
            assert verdict == associative_by_every_element(loop), e.name
            seen[verdict] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_nonassociative_octonion_loops_are_rejected():
    oct16 = octonion_loop()
    assert not associative_by_every_element(oct16)
    assert not _accepts(2, oct16)
    # At the default order cap.
    big = direct_product_tables(GroupTable(2, oct16, check=False), cyclic_group(2, 64))
    assert big.order == 1024
    assert not _accepts(2, big.mul)


def test_element_orders_match_the_per_element_loop():
    for e in builtin_catalog():
        g = e.group()
        assert g.element_orders().tolist() == [g.element_order(x) for x in range(g.order)], e.name


def test_array_abelian_bases_and_maps_match_the_loops():
    # Every abelian catalog table and every abelian product table that
    # deduplication drops; maps between every pair of the same order.
    catalog = builtin_catalog()
    names = {e.name for e in catalog}
    dropped = [
        e for e in _product_entries([e for e in catalog if e.presentation is not None], PRODUCT_CAP)
        if e.name not in names
    ]
    tables = [e.group() for e in list(catalog) + dropped if e.group().is_abelian()]
    assert len(dropped) > 0
    for g in tables:
        assert abelian_cyclic_basis(g) == abelian_cyclic_basis_by_loops(g), g.name
    maps = 0
    for g1, g2 in itertools.product(tables, repeat=2):
        if g1.order == g2.order and g1.order <= 64:
            got, want = _abelian_isomorphism(g1, g2), abelian_isomorphism_by_loops(g1, g2)
            assert (got is None) == (want is None), (g1.name, g2.name)
            assert got is None or np.array_equal(got, want), (g1.name, g2.name)
            maps += got is not None
    assert maps > 0


def test_heisenberg27():
    g = from_pc_presentation(pres_heis27())
    assert g.order == 27
    assert not g.is_abelian()
    assert center(g).order == 3
    assert max(g.element_orders()) == 3


def test_center_d8():
    g = from_pc_presentation(pres_d8())
    z = center(g)
    assert z.order == 2
    # Brute scan oracle.
    expected = [x for x in range(8) if all(g.mul[x, y] == g.mul[y, x] for y in range(8))]
    assert list(z.members) == expected


def test_frattini_formula_vs_maximal_intersection():
    for pres in (pres_d8(), pres_q8(), pres_d16(), pres_heis27()):
        g = from_pc_presentation(pres)
        f = frattini(g)
        maxs = maximal_subgroups_bruteforce(g)
        inter = np.ones(g.order, dtype=bool)
        for m in maxs:
            inter &= m.bitmap
        assert np.array_equal(np.nonzero(inter)[0], f.members)


def test_frattini_klein_four_trivial():
    g = direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))
    assert frattini(g).order == 1
    g8 = from_pc_presentation(pres_d8())
    assert frattini(g8) == center(g8)


def test_maximal_subgroups_match_the_lattice_and_brute_force():
    # maximal_subgroups builds the hyperplane preimages of G/Phi(G); the
    # index-p members of the normal lattice are the same list in the same
    # order, and up to order 32 the subgroups no proper subgroup contains
    # are the same set.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    for e in list(builtin_catalog()) + list(fixture):
        g = e.group()
        got = maximal_subgroups(g)
        want = [n for n in normal_subgroups(g) if n.order * g.p == g.order]
        assert [m.key() for m in got] == [n.key() for n in want], e.name
        assert all(Subgroup(g, m.members).is_normal() for m in got), e.name  # re-checked closure
        if g.order <= 32:
            brute = maximal_subgroups_bruteforce(g)
            assert sorted(m.key() for m in got) == sorted(m.key() for m in brute), e.name


def test_burnside_basis_is_a_minimal_generating_sequence():
    # Burnside's basis theorem: a minimal generating sequence has
    # log_p |G : Phi(G)| elements.  Each is the least element outside the
    # subgroup that Phi(G) and the ones before it generate.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    entries = list(builtin_catalog()) + list(fixture)
    assert len(fixture) == 3
    for e in entries:
        g = e.group()
        basis, phi = g.burnside_basis(), frattini(g)
        assert g.p ** len(basis) * phi.order == g.order, e.name
        assert subgroup_closure(g, basis).order == g.order, e.name
        for i, x in enumerate(basis):
            below = subgroup_closure(g, list(phi.members) + list(basis[:i]))
            assert x == int(np.argmin(below.bitmap)), e.name
    d16 = find_entry("D16").group()
    assert len(d16.burnside_basis()) == 2


def test_iset_d8_everything():
    g = from_pc_presentation(pres_d8())
    full = Subgroup(g, np.arange(8), check=False)
    s = iset(g, full)
    # Every square in D8 lies in the center.
    assert s.size == 8
    assert s.is_subgroup


def test_subgroup_members_sorted_unique_and_never_negative():
    g = cyclic_group(2, 2)
    assert Subgroup(g, [1, 0, 1, 0]).members.tolist() == [0, 1]
    assert Subgroup(g, np.array([1, 0])).members.dtype == np.int64
    # -1 would index the last element, and {0, 1} is a subgroup of C2.
    with pytest.raises(GroupError):
        Subgroup(g, [0, -1])


@pytest.mark.parametrize("member", [-1, 8])
def test_subgroup_member_outside_the_table_is_a_group_error(member):
    # -1 would index the last element of D8 and 8 lies past it.
    g = from_pc_presentation(pres_d8())
    with pytest.raises(GroupError, match="element indices"):
        Subgroup(g, [0, member])


def test_omega1_q8():
    g = from_pc_presentation(pres_q8())
    full = Subgroup(g, np.arange(8), check=False)
    w = omega1(g, full)
    assert w.order == 2


def test_subgroup_closure_trivial_and_full():
    g = from_pc_presentation(pres_c4())
    assert subgroup_closure(g, [0]).order == 1
    gen = 2  # index of g1, which has order 4
    assert subgroup_closure(g, [gen]).order == 4


def test_subgroup_closure_minimal_d16():
    g = from_pc_presentation(pres_d16())
    rng = np.random.default_rng(1)
    for _ in range(5):
        seeds = rng.integers(0, 16, size=2)
        h = subgroup_closure(g, seeds)
        mem = set(int(x) for x in h.members)
        # Closure oracle: closed under products and inverses.
        for a in h.members:
            for b in h.members:
                assert int(g.mul[a, b]) in mem
        # Minimality: every subgroup containing the seeds contains h.
        for other in all_subgroups(g):
            if all(other.contains(int(s)) for s in seeds):
                assert other.contains_subgroup(h)


def test_normal_subgroups_klein():
    g = direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))
    subs = normal_subgroups(g)
    assert len(subs) == 5


def test_normal_subgroups_d8():
    g = from_pc_presentation(pres_d8())
    subs = normal_subgroups(g)
    # Oracle: exhaustive subgroup enumeration + normality filter.
    expected = []
    for h in all_subgroups(g):
        if all(
            h.contains(int(g.mul[g.mul[g.inv[x], m], x]))
            for x in range(8)
            for m in h.members
        ):
            expected.append(h.key())
    assert sorted(s.key() for s in subs) == sorted(expected)
    assert len(subs) == 6


def test_normal_subgroups_within_trivial():
    g = from_pc_presentation(pres_d8())
    triv = Subgroup(g, [0], check=False)
    subs = normal_subgroups(g, within=triv)
    assert len(subs) == 1 and subs[0].order == 1


def _catalog_groups(max_order):
    return [e.group() for e in builtin_catalog() if e.order <= max_order]


def _is_normal_by_definition(g, s):
    # s^x for every x at once: row x holds x^-1 m x for the members m.
    conj = g.mul[g.mul[g.inv[:, None], s.members[None, :]], np.arange(g.order)[:, None]]
    return bool(s.bitmap[conj].all())


def test_normal_subgroups_match_subgroup_lattice_oracle():
    # Slow oracle: the full subgroup lattice filtered by the definition of
    # normality, also restricted to the Frattini subgroup.
    groups = _catalog_groups(32)
    assert len(groups) == 56
    for g in groups:
        subs = all_subgroups(g)
        for s in subs:
            # A fresh Subgroup, so that no cached flag answers.
            assert Subgroup(g, s.members).is_normal() == _is_normal_by_definition(g, s), g.name
        normal = [s for s in subs if _is_normal_by_definition(g, s)]
        assert [s.key() for s in normal_subgroups(g)] == [s.key() for s in normal], g.name
        phi = frattini(g)
        inside = [s.key() for s in normal if phi.contains_subgroup(s)]
        assert [s.key() for s in normal_subgroups(g, within=phi)] == inside, g.name


def test_normal_subgroups_of_he27_squared():
    he = find_entry("He27").group()
    assert len(normal_subgroups(direct_product_tables(he, he))) == 259


def test_normal_subgroups_order_cap_message():
    g = from_pc_presentation(pres_d8())
    with pytest.raises(GroupError, match=r"^order cap: 8 > 4$"):
        normal_subgroups(g, order_cap=4)


def test_normal_subgroups_order_cap_refuses_after_a_cached_call():
    g = from_pc_presentation(pres_d8())
    assert len(normal_subgroups(g)) == 6
    with pytest.raises(GroupError, match=r"^order cap: 8 > 4$"):
        normal_subgroups(g, order_cap=4)


def test_normal_subgroups_keyword_and_positional_within_share_an_entry():
    g = from_pc_presentation(pres_d8())
    phi = frattini(g)
    first = normal_subgroups(g, phi)
    entries = len(g._cache)
    again = normal_subgroups(g, within=phi)
    assert len(g._cache) == entries
    assert again is first  # a hit hands out the cached tuple itself
    assert len(first) == 2


def test_normals_between_and_phi_layers_match_pairwise_filters():
    # Oracle: the full lattice filtered pair by pair on Python member sets,
    # with Phi(G) as one more upper bound where the query reads `within`.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    groups = [e.group() for e in list(builtin_catalog()) + fixture]
    assert len(groups) == 122
    for g in groups:
        normals = normal_subgroups(g)
        sets = [set(n.members.tolist()) for n in normals]
        index = {n.bitmap.tobytes(): i for i, n in enumerate(normals)}
        phi = frattini(g)

        def want(lower=None, upper=None, order=None, within=None):
            below = set() if lower is None else set(lower.members.tolist())
            above = set(range(g.order))
            for b in (upper, within):
                if b is not None:
                    above &= set(b.members.tolist())
            return [
                i for i, s in enumerate(sets)
                if below <= s <= above and (order is None or len(s) == order)
            ]

        def got(**bounds):
            return [index[n.bitmap.tobytes()] for n in normals_between(g, **bounds)]

        picks = [normals[i] for i in sorted(set(np.linspace(0, len(normals) - 1, 4).astype(int)))]
        picks += [center(g), phi]
        assert got() == want()
        for s in picks:
            for within in (None, phi):
                assert got(lower=s, within=within) == want(lower=s, within=within), g.name
                assert got(upper=s, within=within) == want(upper=s, within=within), g.name
            for t in picks:
                assert got(lower=s, upper=t) == want(lower=s, upper=t), g.name
        for order in sorted({n.order for n in normals}):
            for within in (None, phi):
                assert got(order=order, within=within) == want(order=order, within=within), g.name
            assert got(lower=center(g), upper=phi, order=order) == want(lower=center(g), upper=phi, order=order)

        layers = []
        for n, s in zip(normals, sets):
            if n.order > 1 and s <= set(phi.members.tolist()):
                block = g.mul[np.ix_(n.members, n.members)]
                zn = [int(x) for x, row, col in zip(n.members, block, block.T) if (row == col).all()]
                layers.append((n.key(), tuple(x for x in zn if g.power(x, g.p) == 0)))
        assert [(n.key(), w.key()) for n, w in phi_layers(g)] == layers, g.name
        assert all(len(w) > 1 for _, w in layers)


class _Derived:
    """A stand-in for a table or module: memo needs only ``_cache``."""

    def __init__(self):
        self._cache = {}
        self.calls = []

    @memo
    def listed(self, side="right"):
        self.calls.append(side)
        return (side,)

    @memo
    def nothing(self):
        self.calls.append(None)
        return None


def test_memo_shares_entries_caches_none_and_hands_out_the_cached_object():
    obj = _Derived()
    out = obj.listed()
    assert obj.listed("right") == obj.listed(side="right") == ("right",)
    assert obj.calls == ["right"]
    assert obj.listed() is out and obj.listed(side="right") is out  # a hit is no copy
    assert obj.listed("left") == ("left",) and obj.calls == ["right", "left"]
    assert obj.nothing() is None and obj.nothing() is None
    assert obj.calls == ["right", "left", None]
    assert set(obj._cache) == {("listed", "right"), ("listed", "left"), ("nothing",)}


@pytest.mark.parametrize("name", ["D32", "He27"])
def test_frattini_of_a_direct_square_is_the_square(name):
    # Phi(A x B) = Phi(A) x Phi(B); on fresh tables of order 1024 and 729,
    # where the commutators are marked a block of rows at a time.
    a = from_pc_presentation(find_entry(name).presentation)
    b = from_pc_presentation(find_entry(name).presentation)
    fa, fb = frattini(a), frattini(b)
    expected = sorted(int(x) * b.order + int(y) for x in fa.members for y in fb.members)
    assert frattini(direct_product_tables(a, b)).key() == tuple(expected)


def test_centralizer_and_derived_subgroup_match_definitions():
    groups = _catalog_groups(64)
    assert len(groups) == 100
    for g in groups:
        n = g.order
        subsets = [Subgroup(g, [x], check=False) for x in range(n)] + list(normal_subgroups(g))
        for s in subsets:
            mask = np.ones(n, dtype=bool)
            for m in s.members:
                mask &= g.mul[:, m] == g.mul[m, :]
            assert centralizer(g, s).key() == tuple(np.flatnonzero(mask).tolist()), g.name
        sizes = [centralizer(g, [x]).order for x in range(n)]
        assert _element_signature(g)[:, 1].tolist() == sizes, g.name
        # G' from every commutator [x, y], not only those with a generator.
        idx = np.arange(n)
        comms = g.mul[g.mul[g.mul[g.inv[:, None], g.inv[None, :]], idx[:, None]], idx[None, :]]
        derived = subgroup_closure(g, np.unique(comms))
        assert commutator_subgroup(g).key() == derived.key(), g.name


def test_quotient_by_whole_and_trivial():
    g = from_pc_presentation(pres_d8())
    full = Subgroup(g, np.arange(8), check=False)
    q, _ = quotient(g, full)
    assert q.order == 1
    triv = Subgroup(g, [0], check=False)
    q2, qm = quotient(g, triv)
    assert q2.order == 8
    assert np.array_equal(q2.mul, g.mul)


def test_quotient_d8_center_is_klein():
    g = from_pc_presentation(pres_d8())
    q, qm = quotient(g, center(g))
    assert q.order == 4
    klein = direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))
    assert is_isomorphic(q, klein)
    # section/image consistency
    for c in range(q.order):
        assert qm.image_of[qm.section[c]] == c


def test_quotient_requires_normal():
    g = from_pc_presentation(pres_d8())
    # A non-normal order-2 subgroup: generated by a reflection.
    refl = next(
        x
        for x in range(8)
        if g.element_order(x) == 2
        and not center(g).contains(x)
        and not subgroup_closure(g, [x]).is_normal()
    )
    h = subgroup_closure(g, [refl])
    with pytest.raises(GroupError):
        quotient(g, h)


def test_is_inner_identity_and_conjugation():
    g = from_pc_presentation(pres_d8())
    assert is_inner(g, identity_map(g)) is not None
    for h in range(8):
        f = conjugation_map(g, h)
        w = is_inner(g, f)
        assert w is not None
        # Witness differs from h by a central element.
        diff = g.mul[g.inv[w], h]
        assert center(g).contains(int(diff))


def test_reflection_twist_on_d8_is_conjugation():
    g = from_pc_presentation(pres_d8())
    # Fixing the rotation subgroup pointwise and multiplying each reflection
    # by the central rotation is exactly conjugation by r, hence inner.
    rot = subgroup_closure(g, [np.flatnonzero(g.element_orders() == 4)[0]])
    z = center(g).members[1]
    image = np.arange(8)
    for x in range(8):
        if not rot.contains(x):
            image[x] = g.mul[x, z]
    f = GroupMap(g, g, image)
    assert f.is_automorphism()
    assert is_inner(g, f) is not None


def test_noninner_involution_on_d8_detected():
    g = from_pc_presentation(pres_d8())
    r = int(np.flatnonzero(g.element_orders() == 4)[0])
    rot = subgroup_closure(g, [r])
    s = next(x for x in range(8) if not rot.contains(x))
    # r -> r^-1, s -> s*r generates the outer involution of D8.
    image = -np.ones(8, dtype=np.int64)
    for i in range(4):
        ri = g.power(r, i)
        image[ri] = g.power(g.inv[r], i)
        image[g.mul[s, ri]] = g.mul[g.mul[s, r], g.power(g.inv[r], i)]
    f = GroupMap(g, g, image)
    assert f.is_automorphism()
    assert map_order(f) == 2
    # Oracle: compare against all 8 conjugations.
    for h in range(8):
        assert not np.array_equal(conjugation_map(g, h).image_of, image)
    assert is_inner(g, f) is None


def _small_catalog_groups():
    return [e.group() for e in builtin_catalog() if e.order <= 64]


def _automorphisms_to_test(g):
    """The identity, conjugation by each Burnside generator and by the last
    element, and the map of every search- and paper-mode certificate."""
    maps = [identity_map(g)] + [conjugation_map(g, h) for h in (*g.burnside_basis(), g.order - 1)]
    for mode in ("search",) if g.is_abelian() else ("search", "paper"):
        cert = find_noninner(g, mode)
        if isinstance(cert, Certificate):
            maps.append(GroupMap(g, g, cert.map, check=False))
    return maps


def test_quotient_matches_the_loop_oracle_on_the_catalog():
    for g in _small_catalog_groups():
        whole = Subgroup(g, np.arange(g.order), check=False)
        kernels = [Subgroup(g, [0]), whole, center(g), frattini(g), commutator_subgroup(g)]
        for n in kernels + list(maximal_subgroups(g))[:4]:
            qt, qm = quotient(g, n)
            ot, om = loop_quotient(g, n)
            assert qt.mul.tobytes() == ot.mul.tobytes() and qt.name == ot.name, g.name
            assert qm.image_of.tobytes() == om.image_of.tobytes(), g.name
            assert qm.section.tobytes() == om.section.tobytes(), g.name
            assert qm.kernel is n


def test_is_inner_matches_the_loop_oracle_on_the_catalog():
    noninner = 0
    for g in _small_catalog_groups():
        for f in _automorphisms_to_test(g):
            w = is_inner(g, f)
            assert w == loop_is_inner(g, f), g.name
            noninner += w is None
    # The certificate maps are the non-inner ones: the oracle saw both answers.
    assert noninner > 50


def test_generator_homomorphism_test_matches_all_pairs_on_perturbed_maps():
    # Changing one image off the generators, or swapping two images off them,
    # leaves the generator images alone; a homomorphism is determined by
    # those, so no such map is one.  A swap that moves a generator's image
    # may give another automorphism, and there the two tests must agree.
    rejected = kept = 0
    for g in _small_catalog_groups():
        gens = g.burnside_basis()
        others = [x for x in range(g.order) if x not in gens]
        for f in _automorphisms_to_test(g):
            assert f.is_homomorphism() and f.is_homomorphism_on(gens)
            for x in others[:: max(1, len(others) // 6)]:
                image = f.image_of.copy()
                image[x] = (image[x] + 1) % g.order
                bad = GroupMap(g, g, image, check=False)
                assert not bad.is_homomorphism() and not bad.is_homomorphism_on(gens), (g.name, x)
                rejected += 1
            for x in range(min(8, g.order // 2)):
                y = g.order - 1 - x
                image = f.image_of.copy()
                image[[x, y]] = image[[y, x]]
                swapped = GroupMap(g, g, image, check=False)
                assert swapped.is_homomorphism() == swapped.is_homomorphism_on(gens), (g.name, x, y)
                kept += swapped.is_homomorphism()
                if x not in gens and y not in gens:
                    assert not swapped.is_homomorphism(), (g.name, x, y)
                    rejected += 1
    assert rejected > 3000 and kept > 0


def test_map_order_examples():
    g3 = cyclic_group(3, 3)
    inv_map = GroupMap(g3, g3, g3.inv)
    assert map_order(inv_map) == 2
    assert map_order(identity_map(g3)) == 1


def test_opposite_group_and_set_product():
    g = from_pc_presentation(pres_d8())
    op = opposite(g)
    assert op.order == 8
    z = center(g)
    d = commutator_subgroup(g)
    prod = set_product(g, z, d)
    assert prod.order == 2


def test_subgroup_center_and_centralizer():
    g = from_pc_presentation(pres_d16())
    r2 = subgroup_closure(g, [np.flatnonzero(g.element_orders() == 4)[0]])
    c = centralizer(g, r2)
    zn = subgroup_center(g, r2)
    assert zn.order == r2.order  # cyclic, so self-centralizing inside itself
    assert c.contains_subgroup(r2)


def test_isomorphism_detects_d8_vs_q8():
    d8 = from_pc_presentation(pres_d8())
    q8 = from_pc_presentation(pres_q8())
    assert not is_isomorphic(d8, q8)
    assert is_isomorphic(d8, from_pc_presentation(pres_d8()))


def test_parse_roundtrip():
    text = """
# a comment
group C4
p 2
gens 2
pow 1 : g2
pow 2 : 1
end

group D8
p 2
gens 3
pow 1 : 1
pow 2 : g3
pow 3 : 1
comm 2 1 : g3
end
"""
    groups = parse_presentations(text)
    assert [p.name for p in groups] == ["C4", "D8"]
    g = from_pc_presentation(groups[1])
    assert g.order == 8 and not g.is_abelian()


def test_parse_error_has_location():
    with pytest.raises(PresentationError) as ei:
        parse_presentations("group X\np 2\ngens 2\npow 1 : g1^5\nend")
    assert "line 4" in str(ei.value)


def test_trivial_group_and_cyclic():
    t = trivial_group(2)
    assert t.order == 1
    c9 = cyclic_group(3, 9)
    assert c9.element_order(1) == 9
