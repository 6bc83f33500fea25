"""Groups, modules, fixtures and oracles shared by several test modules.

Test modules import these from here, never from one another, so that an
import error in one test module does not stop the others from being
collected.  ``src/pgv`` keeps only what pgv runs
(``tests/test_library_surface.py``), so a helper that only tests need, such
as ``cyclic_group`` or the brute-force subgroup lattice, lives here.
"""

import fnmatch
import itertools
from pathlib import Path

import numpy as np

from pgv import fp_linalg as fl
from pgv.catalog import _base_entries, _filter_int, abelian_presentation, builtin_catalog, dihedral, quaternion
from pgv.checks import CHECKS
from pgv.cohomology import Cochain, CohomologyError, coboundary, cohomology, unit_cochains
from pgv.extensions import build_extension
from pgv.fp_linalg import FpSubspace
from pgv.gmodule import GModule, fixed_points, module_from_conjugation, restrict_action, trivial_module
from pgv.group_core import (
    GroupError,
    GroupMap,
    GroupTable,
    QuotientMap,
    Subgroup,
    center,
    centralizer,
    is_inner,
    iter_isomorphisms,
    map_order,
    normal_subgroups,
    subgroup_closure,
)
from pgv.noninner import BRUTE_FORCE_LIMIT
from pgv.presentations import PcPresentation, parse_presentations
from pgv.suite import resolve_check_ids

DATA = Path(__file__).resolve().parent / "data"


def pres_d8():
    # g1 reflection, g2 rotation of order 4, g3 = g2^2.
    return PcPresentation(
        2, 3, "D8", {1: [], 2: [3], 3: []}, {(2, 1): [3], (3, 1): [], (3, 2): []}
    )


def pres_d16():
    return PcPresentation(
        2,
        4,
        "D16",
        {1: [], 2: [3], 3: [4], 4: []},
        {(2, 1): [3, 4], (3, 1): [4]},
    )


def pres_heis27():
    return PcPresentation(3, 3, "He27", {1: [], 2: [], 3: []}, {(2, 1): [3]})


def trivial_group(p):
    return GroupTable(p, np.zeros((1, 1), dtype=np.int64), name="1")


def cyclic_group(p, order):
    idx = np.arange(order)
    return GroupTable(p, (idx[:, None] + idx[None, :]) % order, name=f"C{order}")


def order8_list():
    """The five groups of order 8 as pc-presentations."""
    return [
        abelian_presentation(2, [3], "C8"),
        abelian_presentation(2, [2, 1], "C4xC2"),
        abelian_presentation(2, [1, 1, 1], "C2xC2xC2"),
        dihedral(3),
        quaternion(3),
    ]


def identity_map(g):
    return GroupMap(g, g, np.arange(g.order), check=False)


def conjugation_map(g, h):
    """x -> h^-1 x h."""
    return GroupMap(g, g, g.mul[g.mul[g.inv[h], np.arange(g.order)], h], check=False)


def regular_module(group):
    """Right regular module: basis indexed by group elements, v_h . g = v_{hg}."""
    n = group.order
    act = np.zeros((n, n, n), dtype=np.int64)
    rows = np.arange(n)
    for g in range(n):
        act[g, rows, group.mul[rows, g]] = 1
    return GModule(group, act, check=False, name="regular")


def run_check(check_id, instance):
    """One registered check, named by id or alias, on one instance."""
    (cid,) = resolve_check_ids(check_id)
    return CHECKS[cid].run(instance)


def conjugation_module(g):
    """W = the largest elementary abelian normal subgroup, acted on by G/C_G(W)."""
    orders = g.element_orders()
    elementary = [n for n in normal_subgroups(g) if np.all(orders[n.members] <= g.p)]
    w = max(elementary, key=lambda n: n.order)
    return module_from_conjugation(g, centralizer(g, w), w).module


def small_modules():
    """trivial:1, trivial:2 and the conjugation module of every catalog group
    of order <= 16."""
    for e in builtin_catalog():
        if e.order <= 16:
            g = e.group()
            yield from (trivial_module(g, 1), trivial_module(g, 2), conjugation_module(g))


# -- oracles for subgroup lattices and subspaces ------------------------------


def all_subgroups(g, max_order=128):
    """Complete subgroup lattice by closure BFS, sorted by (order, key)."""
    if g.order > max_order:
        raise GroupError(f"order cap: subgroup lattice only up to {max_order}")
    trivial = Subgroup(g, [0], check=False)
    seen = {trivial.key(): trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for x in range(1, g.order):
            if h.contains(x):
                continue
            new = subgroup_closure(g, list(h.members) + [x])
            if new.key() not in seen:
                seen[new.key()] = new
                queue.append(new)
    return sorted(seen.values(), key=lambda s: (s.order, s.key()))


def maximal_subgroups_bruteforce(g, max_order=128):
    """The proper subgroups that no larger proper subgroup contains."""
    proper = [s for s in all_subgroups(g, max_order=max_order) if s.order < g.order]
    return [
        s
        for s in proper
        if not any(t.order > s.order and t.contains_subgroup(s) for t in proper)
    ]


def numpy_loop_rref(a, p):
    """Oracle: ``rref_array`` through the numpy per-pivot loop, at every p
    and size (the packed F_2 and F_3 kernels are not used)."""
    A = fl.as_residues(a, p)
    return A, fl._eliminate(A, p)


def loop_left_kernel(a, p):
    """Oracle: ``right_kernel_basis(a^T)`` with its RREF from the numpy loop."""
    A, piv = numpy_loop_rref(np.asarray(a).T, p)
    n = A.shape[1]
    free = [j for j in range(n) if j not in set(piv)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = (-A[: len(piv), free].T) % p
    return basis


def transposed_complement_reps(sub, space, p):
    """Oracle: ``complement_reps`` from the pivot columns of one RREF of
    [sub; RREF(space)]^T, both RREFs by the numpy loop."""
    R, piv = numpy_loop_rref(space, p)
    R = R[: len(piv)]
    k = len(sub)
    _, cols = numpy_loop_rref(np.vstack([sub, R]).T, p)
    return R[[c - k for c in cols if c >= k]]


def intersect(u, v):
    """u ∩ v, from the left kernel of the stacked bases."""
    if u.p != v.p or u.ambient_dim != v.ambient_dim:
        raise ValueError("subspace mismatch")
    if u.dim == 0 or v.dim == 0:
        return FpSubspace.zero(u.ambient_dim, u.p)
    coeffs = fl.left_kernel_basis(np.vstack([u.basis, v.basis]), u.p)
    return FpSubspace.from_rows((coeffs[:, : u.dim] @ u.basis) % u.p, u.p, u.ambient_dim)


# -- oracles for cochains and extensions --------------------------------------


def brute_force_z1(g, m, limit=1 << 20):
    """All derivations by explicit function enumeration.

    The identity tau(gh) = tau(g).h + tau(h) is written out here on its own,
    so that the oracle does not share ``coboundary`` with the solver."""
    q, d, p = g.order, m.dim, m.p
    if p ** (q * d) > limit:
        raise CohomologyError("enumeration limit exceeded")
    out = []
    for flat in itertools.product(range(p), repeat=q * d):
        tab = np.array(flat, dtype=np.int64).reshape(q, d)
        acted = np.swapaxes(tab @ m.act, 0, 1)  # [g, h] -> tau(g).h
        if np.array_equal(tab[g.mul], (acted + tab[None]) % p):
            out.append(tab)
    return out


def two_coboundary(g, m, sigma):
    """Coboundary of a normalized 1-cochain sigma (shape (order, dim))."""
    sigma = fl.as_residues(sigma, m.p).reshape(1, g.order, m.dim)
    if sigma[0, 0].any():
        raise CohomologyError("sigma must be normalized")
    return Cochain(m, coboundary(m, sigma)[0])


def conjugation_derivation(g, cm, x):
    """delta_x(c) = rep(c)^{-1} rep(c)^x, checked W-valued and constant on cosets."""
    qm = cm.quotient_map
    elts = np.arange(g.order)
    codes = cm.code_of_element[g.mul[g.inv, g.mul[g.mul[g.inv[x], elts], x]]]
    # The section holds the least element of each coset, so the first
    # offending element is the one an ascending element-by-element scan
    # would stop at, and it names the same failure.
    bad = np.flatnonzero((codes < 0) | (codes != codes[qm.section][qm.image_of]))
    if bad.size:
        raise CohomologyError("not W-valued" if codes[bad[0]] < 0 else "value not constant on cosets")
    der = Cochain(cm.module, fl.vector_codes(cm.module.dim, g.p)[codes[qm.section]])
    if not der.is_cocycle():
        raise CohomologyError("conjugation derivation fails the cocycle identity")
    return der


def section_is_homomorphism(ext):
    sec, g, t = ext.section, ext.base, ext.total
    return bool(np.array_equal(sec[g.mul], t.mul[np.ix_(sec, sec)]))


def equivalence_map(ext, f, f2):
    """Isomorphism ext(f) -> ext(f2), (a, g) -> (a + sigma(g), g), when
    f - f2 is the coboundary of some normalized sigma; None otherwise."""
    m, q, d, p = f.module, f.module.group.order, f.module.dim, f.module.p
    units = unit_cochains(q, d, 1)  # sigma(g)_i = 1 for one g != 1 and one i
    diff = (f.table - f2.table).reshape(-1)
    sol = fl.solve_left(coboundary(m, units).reshape(len(units), -1), diff, p)
    if sol is None:
        return None
    sigma = np.zeros((q, d), dtype=np.int64)
    sigma[1:] = sol.reshape(q - 1, d)
    ext2 = build_extension(ext.base, m, f2)
    nsize = p**d
    x = np.arange(ext.total.order)
    shifted = fl.vector_codes(d, p)[x % nsize] + sigma[x // nsize]
    image = fl.encode(shifted, p) + nsize * (x // nsize)
    fmap = GroupMap(ext.total, ext2.total, image, check=False)
    if not fmap.is_homomorphism() or not fmap.is_bijective():
        return None
    return fmap


# -- oracles for a right submodule of prod^n F_p(G), read off its carrier -----


def fixed_points_in_carrier(fb, carrier):
    """The vectors of the carrier fixed by G: the free module's own fixed
    points intersected with the carrier, with no restricted module."""
    return intersect(fixed_points(fb.as_gmodule("right")), carrier)


def h1_of_restriction(fb, carrier):
    """dim H^1 of a restriction of the free module to the carrier, made here
    and not taken from any object that already holds one."""
    sub = restrict_action(fb.as_gmodule("right"), carrier)
    return cohomology(sub.group, sub, 1).h_dim


# -- oracle for the transfer filtration ------------------------------------


def filtration_product_by_pairs(tp, a, b):
    """Definition-level product of two carriers of prod^n F_p(T): the span of
    x*y for x in a.basis and y in b.basis, where copy l of x*y is x_l times
    the matrix of right multiplication by y_l, built anew for each y and l."""
    fbt = tp.free_total
    size = fbt.block
    products = []
    for y in b.basis:
        right = np.zeros((fbt.dim, fbt.dim), dtype=np.int64)
        for l in range(fbt.n):
            copy = slice(l * size, (l + 1) * size)
            right[copy, copy] = fbt.mul_block(y[copy], "right")
        products.append((a.basis @ right) % fbt.p)
    return FpSubspace.from_rows(np.vstack(products) if products else b.basis, fbt.p, fbt.dim)


# -- oracles for table construction: the per-element forms that group_core
#    replaced with array passes --------------------------------------------


def shipped_presentations():
    """Every presentation the project ships: the catalog families, the
    order-16 and order-81 data files and ``tests/data/special32.pres``."""
    pres = [e.presentation for e in _base_entries(1024)]
    return pres + parse_presentations((DATA / "special32.pres").read_text(encoding="utf-8"))


def collect(letters, pres):
    """Collection from the left: the normal-form exponents of a letter word."""
    p = pres.p
    exps = []
    w = list(letters)
    for k in range(1, pres.ngens + 1):
        e = 0
        while k in w:
            j = w.index(k)
            while j > 0:
                m = w[j - 1]
                w[j - 1 : j + 1] = [k, m] + pres.comm_word(m, k)
                j -= 1
            e += 1
            w.pop(0)
            if e == p:
                w = pres.pow_word(k) + w
                e = 0
        exps.append(e)
    assert not w
    return exps


def collected_right_by_gen(pres):
    """Row k-1 holds x g_k for every normal word x, each by collecting the
    whole word x g_k."""
    p, n = pres.p, pres.ngens
    out = np.empty((n, p**n), dtype=np.int64)
    for x, exps in enumerate(itertools.product(range(p), repeat=n)):
        letters = [i for i, e in enumerate(exps, start=1) for _ in range(e)]
        for k in range(1, n + 1):
            out[k - 1, x] = int("".join(map(str, collect(letters + [k], pres))), p)
    return out


def table_from_right_by_gen(right_by_gen, p):
    """x y = (x y') g_k column by column, where g_k is the last letter of
    the normal word y and y' the word before it."""
    n, order = right_by_gen.shape
    mul = np.empty((order, order), dtype=np.int64)
    mul[:, 0] = np.arange(order)
    for y in range(1, order):
        k = max(i for i in range(n) if (y // p ** (n - 1 - i)) % p)
        mul[:, y] = right_by_gen[k, mul[:, y - p ** (n - 1 - k)]]
    return mul


def associative_by_every_element(mul):
    """(a x) y = a (x y) for all x, y, tested for every a in turn."""
    return all(np.array_equal(mul[mul[a]], mul[a][mul]) for a in range(len(mul)))


def octonion_loop():
    """The 16 unit octonions +-1, +-e_1, ..., +-e_7 under multiplication, a
    loop that is not associative.  Index 2i + s is (-1)^s e_i with e_0 = 1,
    so index 1 is -1, which lies in the nucleus."""
    sign = np.ones((8, 8), dtype=np.int64)
    unit = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        unit[0, i] = unit[i, 0] = i
        if i:
            sign[i, i] = -1
    for a, b, c in ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            unit[x, y], unit[y, x] = z, z
            sign[y, x] = -1
    mul = np.empty((16, 16), dtype=np.int64)
    for u, v in itertools.product(range(16), repeat=2):
        (i, s), (j, t) = divmod(u, 2), divmod(v, 2)
        neg = (s + t + (sign[i, j] < 0)) % 2
        mul[u, v] = 2 * unit[i, j] + neg
    return mul


def abelian_cyclic_basis_by_loops(g):
    """Per-element form of ``group_core.abelian_cyclic_basis``: the least x
    whose coset has the largest order, then the first pure x*s."""
    if not g.is_abelian():
        raise GroupError("abelian group expected")
    basis = []
    span = Subgroup(g, [0], check=False)
    while span.order < g.order:
        best = None
        for x in range(g.order):
            if span.contains(x):
                continue
            k = 0
            y = x
            while not span.contains(int(y)):
                k += 1
                y = g.power(x, g.p**k)
            if best is None or g.p**k > best[0]:
                best = (g.p**k, x)
        coset_order, x = best
        rep = next(int(g.mul[x, s]) for s in span.members if g.power(int(g.mul[x, s]), coset_order) == 0)
        basis.append(rep)
        span = subgroup_closure(g, list(span.members) + [rep])
    basis.sort(key=lambda b: -g.element_order(b))
    return basis


def abelian_isomorphism_by_loops(g1, g2):
    """Per-element form of ``group_core._abelian_isomorphism``."""
    b1, b2 = abelian_cyclic_basis_by_loops(g1), abelian_cyclic_basis_by_loops(g2)
    o1 = [g1.element_order(b) for b in b1]
    if o1 != [g2.element_order(b) for b in b2]:
        return None
    phi = -np.ones(g1.order, dtype=np.int64)
    for exps in itertools.product(*(range(o) for o in o1)):
        x = y = 0
        for b, c, e in zip(b1, b2, exps):
            x = int(g1.mul[x, g1.power(b, e)])
            y = int(g2.mul[y, g2.power(c, e)])
        phi[x] = y
    if np.any(phi < 0) or np.unique(phi).size != g1.order:
        return None
    return phi


# -- oracle for the exhaustive non-inner search: the list-then-scan form that
#    ``noninner.exhaustive_noninner`` replaced with a lazy walk -------------------


def listed_noninner(g):
    """Every automorphism listed first, then the list scanned for the first
    non-inner map of order p; None past ``BRUTE_FORCE_LIMIT``."""
    if g.order > BRUTE_FORCE_LIMIT:
        return None
    for phi in list(iter_isomorphisms(g, g)):
        f = GroupMap(g, g, phi, check=False)
        if map_order(f) == g.p and is_inner(g, f) is None:
            return f
    return None


# -- oracles for ``group_core.is_inner`` and ``group_core.quotient``: the loops
#    over cosets that one gather and one ``min`` replaced --------------------------


def loop_is_inner(g, f):
    """A witness h with f = conjugation by h, or None; tries one h per Z(g)-coset."""
    if not f.is_automorphism():
        raise GroupError("not automorphism")
    z = center(g)
    seen = np.zeros(g.order, dtype=bool)
    for h in range(g.order):
        if seen[h]:
            continue
        seen[g.mul[h, z.members]] = True
        conj = g.mul[g.mul[g.inv[h], np.arange(g.order)], h]
        if np.array_equal(conj, f.image_of):
            return h
    return None


def loop_quotient(g, n):
    """G/N with the cosets numbered as the loop over x first meets them."""
    if not n.is_normal():
        raise GroupError("not normal")
    coset_id = -np.ones(g.order, dtype=np.int64)
    reps = []
    for x in range(g.order):
        if coset_id[x] < 0:
            coset_id[g.mul[x, n.members]] = len(reps)
            reps.append(x)
    reps_arr = np.array(reps, dtype=np.int64)
    qmul = coset_id[g.mul[np.ix_(reps_arr, reps_arr)]]
    qt = GroupTable(g.p, qmul, name=f"{g.name}/N", check=False)
    qt.verify_associativity()
    return qt, QuotientMap(g, qt, n, coset_id, reps_arr)


# -- oracles for the packed ``fp_linalg.RowSpace``, the spin ``gmodule._closure``
#    on column gathers, and ``catalog.catalog_filter``: the forms they replaced ---


class NumpyRowSpace:
    """``fp_linalg.RowSpace`` on an int64 RREF basis at every p: each batch is
    merged in by ``fp_linalg._extend``."""

    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self._rows = np.zeros((0, ncols), dtype=np.int64)
        self._piv = []

    @property
    def dim(self):
        return len(self._piv)

    @property
    def basis(self):
        return self._rows

    def add(self, rows):
        self._rows, self._piv, new = fl._extend(self._rows, self._piv, rows, self.p)
        return new.shape[0]

    def subspace(self):
        return FpSubspace(self.p, self.ncols, self._rows, tuple(self._piv))


def naive_closure(seeds, mats, p):
    """Stack the images of the whole basis and re-run RREF from scratch until
    the rank stops; returns (basis, pivots)."""
    R, piv = fl.rref_array(seeds, p)
    while True:
        basis = R[: len(piv)]
        R2, piv2 = fl.rref_array(np.vstack([basis] + [(basis @ m) % p for m in mats]), p)
        if len(piv2) == len(piv):
            return basis, piv
        R, piv = R2, piv2


def dense_free_actions(fb, side):
    """The generators' permutation matrices on one side of the free module,
    or on both."""
    gens = fb.group.burnside_basis()
    mats = []
    if side in ("right", "both"):
        mats += [fb.element_action(g, "right") for g in gens]
    if side in ("left", "both"):
        mats += [fb.element_action(g, "left") for g in gens]
    return mats


def loop_matches(entry, expr):
    """Does a catalog filter match the entry, with the expression parsed on
    every call."""
    hits = []
    for needle in filter(None, (s.strip() for s in expr.split(","))):
        if needle.startswith("order<="):
            hits.append(entry.order <= _filter_int(needle, "order<="))
        elif needle.startswith("order="):
            hits.append(entry.order == _filter_int(needle, "order="))
        elif needle.startswith("p="):
            hits.append(entry.p == _filter_int(needle, "p="))
        else:
            names = (entry.name, *entry.tags)
            hits.append(needle in ("all", "*") or any(fnmatch.fnmatch(x, needle) for x in names))
    return any(hits)
