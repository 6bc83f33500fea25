"""First and second cohomology of a finite p-group with module coefficients.

Cochains are those of the standard inhomogeneous complex (K. S. Brown,
*Cohomology of Groups*, GTM 87, ch. III.1), written for right modules: an
n-cochain is a ``Cochain``, a table of shape (|G|,)*n + (dim,).
``coboundary`` is the one place the differential d, and with it every
cocycle identity, is written out; ``Cochain.is_cocycle`` asks whether d of
the cochain vanishes:

    (d v)(g)       = v.g - v
    (d tau)(g, h)  = tau(g).h + tau(h) - tau(gh)
    (d f)(g, h, k) = f(g, h).k + f(gh, k) - f(h, k) - f(g, hk)

The one exception is the test oracle ``brute_force_z1`` in ``tests/groups.py``,
which writes the degree-1 identity out on its own so that it does not share
d with the solver.

Degree-2 cocycles are normalized, f(1, .) = f(., 1) = 0.  A solution row
holds every value tau(g) of a derivation, and the values of a 2-cochain at
non-identity arguments (``_tables`` and ``_rows``).  A cocycle is fixed by
its values at (..., s) for s in a generating sequence (Holt, Eick &
O'Brien, *Handbook of Computational Group Theory*, ch. 7), so the solver's
unknowns are only those values, for s in a Burnside basis
(``GroupTable.burnside_basis``, d(G) elements): (|G| - 1) d(G) dim unknowns
in degree 2 and d(G) dim in degree 1.  ``cocycle_seed`` builds, by a walk
of the Cayley graph, the cochain each unit unknown fixes.  The solver then
intersects, one at a time, the kernels of d's slices (the last argument
fixed) at the same generators on the span of that seed: the identity then
holds at every element (see ``_solution_space``).  Every elimination runs in
``fp_linalg``, whose blocked kernel and ``matmul_mod`` use exact float64
BLAS products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .group_core import GroupError, GroupMap, GroupTable, QuotientMap, Subgroup, memo
from .gmodule import (
    ConjugationModule,
    FreeBimodule,
    GModule,
    ModuleError,
    fixed_points,
    free_submodule_closure,
    module_from_conjugation,
    random_right_submodule,
    restrict_action,
)

DEFAULT_H2_ORDER_CAP = 64


class CohomologyError(ValueError):
    pass


@dataclass
class Cochain:
    """An n-cochain, n = ``table.ndim - 1``: a table of shape (|G|,)*n + (dim,)
    over G = ``module.group``.  Degree-1 cocycles are the derivations."""

    module: GModule
    table: np.ndarray

    def __post_init__(self):
        self.table = fl.as_residues(self.table, self.module.p)
        n = self.degree
        if self.table.shape != (self.module.group.order,) * n + (self.module.dim,):
            raise CohomologyError(f"{'derivation' if n == 1 else f'{n}-cochain'} table has wrong shape")

    @property
    def degree(self) -> int:
        return self.table.ndim - 1

    def is_cocycle(self) -> bool:
        """d of the cochain vanishes and the cochain is normalized: it is zero
        wherever an argument is the identity.  In degree 1, d tau = 0 already
        forces tau(1) = 0; in degree 2 it asks f(1, .) = f(., 1) = 0."""
        t = self.table
        if any(np.take(t, 0, axis=i).any() for i in range(self.degree)):
            return False
        return not coboundary(self.module, t[None]).any()

    def is_zero(self) -> bool:
        return not self.table.any()


@dataclass
class CohomologySpace:
    """Z^n and B^n as RREF bases of the solver's unknowns (``_rows``)."""

    degree: int
    group: GroupTable
    module: GModule
    z_basis: np.ndarray
    b_basis: np.ndarray

    @property
    def z_dim(self) -> int:
        return self.z_basis.shape[0]

    @property
    def b_dim(self) -> int:
        return self.b_basis.shape[0]

    @property
    def h_dim(self) -> int:
        return self.z_dim - self.b_dim

    @functools.cached_property
    def h_reps(self) -> List[Cochain]:
        """Representatives of an echelon complement of B^n in Z^n
        (``fp_linalg.complement_reps``), built on first use."""
        rows = fl.complement_reps(self.b_basis, self.z_basis, self.module.p)
        tables = _tables(rows, self.group.order, self.module.dim, self.degree)
        return [Cochain(self.module, tab) for tab in tables]


def cayley_tree(g: GroupTable, gens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """The edges (h, s, hs) of a breadth-first walk of the Cayley graph over
    ``gens`` from 1, one edge for each element hs the walk reaches first, in
    the order the walk reaches them.  Distinct non-identity generators are
    reached first from 1, so the walk begins with the edges (1, s, s)."""
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    queue, edges = [0], []
    for h in queue:
        for s in gens:
            hs = int(g.mul[h, s])
            if not seen[hs]:
                seen[hs] = True
                queue.append(hs)
                edges.append((h, int(s), hs))
    return edges


def cocycle_seed(m: GModule, gens: Sequence[int], degree: int) -> np.ndarray:
    """The cochain tables that the values at (..., s), s in ``gens``, fix.

    An n-cocycle (n = 1, 2; normalized for n = 2) satisfies, for every s,
        tau(hs)   = tau(h).s + tau(s)
        f(g, hs)  = f(g, h).s + f(gh, s) - f(h, s),
    which is (d tau)(h, s) = 0 and (d f)(g, h, s) = 0 solved for the value at
    hs.  When ``gens`` generate the finite group G, every element is a
    product of them, so ``cayley_tree`` reaches it, and the values at
    (..., s) fix the cocycle at every last argument.  Row u of the seed is
    the table this walk builds from the u-th unit value, unknowns ordered
    (s, c) in degree 1 and (x, s, c) in degree 2 for the values tau(s)_c
    and f(x, s)_c, x != 1 (f(1, s) = 0).  The seed is linear in the unknowns
    and normalized, so Z^n is the set of its combinations that are cocycles.
    Shape (r d, |G|, d) in degree 1 and ((|G| - 1) r d, |G|, |G|, d) in
    degree 2, for r = len(gens).
    """
    g, q, d, p, act = m.group, m.group.order, m.dim, m.p, m.act
    r, gens = len(gens), np.asarray(gens, dtype=np.int64)
    c = np.arange(d)
    if degree == 1:
        T = np.zeros((r, d, q, d), dtype=np.int64)
        T[np.arange(r)[:, None], c, gens[:, None], c] = 1
        T = T.reshape(r * d, q, d)
    else:
        T = np.zeros((q - 1, r, d, q, q, d), dtype=np.int64)
        x = np.arange(1, q)[:, None, None]
        T[x - 1, np.arange(r)[:, None], c, x, gens[:, None], c] = 1
        T = T.reshape((q - 1) * r * d, q, q, d)
    for h, s, hs in cayley_tree(g, gens):
        if degree == 1:
            T[:, hs] = fl.as_residues(T[:, h] @ act[s] + T[:, s], p)
        else:
            T[:, :, hs] = fl.as_residues(T[:, :, h] @ act[s] + T[:, g.mul[:, h], s] - T[:, h, s, None], p)
    return T


def _solution_space(seed: np.ndarray, slices: Sequence, p: int) -> np.ndarray:
    """RREF basis of the common kernel of the slice operators on the row
    space of ``seed``.

    The seed spans every cocycle (``cocycle_seed``), and the slices at the
    generators it was built from cut the cocycles out of its span: the
    2-cocycle identity f(g,h).k + f(gh,k) = f(h,k) + f(g,hk) at (g,h,k) says
    that the product (m,g)(n,h) = (m.h + n + f(g,h), gh) on M x G is
    associative whenever its third argument lies over k.  If that holds over
    k1 and k2 for all first arguments, then for x, y arbitrary and z, w over
    k1, k2: (xy)(zw) = ((xy)z)w = (x(yz))w = x((yz)w) = x(y(zw)), and zw runs
    over every element above k1k2, so the set of good k is closed under
    products.  In the same way tau(gh) = tau(g).h + tau(h) at h1 and h2 gives
    it at h1h2.  In a finite group products of the generators reach every
    element, the identity included.  Seed combinations are normalized, so one
    that passes every slice is a cocycle.

    Each slice is applied to the current solution basis S, and the kernel K
    of its image gives the next basis K S.  The kernels are plain bases
    (``left_kernel_basis``): only the last solution basis is brought to RREF.
    """
    S = seed
    for apply_slice in slices:
        if S.shape[0] == 0:
            break
        K = fl.left_kernel_basis(apply_slice(S), p)
        S = fl.matmul_mod(K, S, p)
    R, piv = fl.rref_array(S, p)
    return R[: len(piv)]


def coboundary(m: GModule, cochains: np.ndarray, last: Optional[int] = None) -> np.ndarray:
    """d of a stack of n-cochains, shape (r,) + (|G|,)*n + (dim,) with n <= 2.

    For n-cochains f the sum runs f(g_1..g_n).g_{n+1}, then
    (-1)^(n-i+1) f(.., g_i g_{i+1}, ..) for i = 1..n, then
    (-1)^(n+1) f(g_2..g_{n+1}).  The result has one more group axis; with
    ``last`` given the new last argument is fixed to it instead, and the
    result (a slice of d) has the shape of the input.
    """
    c = np.asarray(cochains, dtype=np.int64)
    n, q, d, mul = c.ndim - 2, m.group.order, m.dim, m.group.mul
    # The arguments are an open grid: each term gathers only over the axes
    # its arguments depend on and broadcasts along the others.
    if last is None:
        args = list(np.indices((q,) * (n + 1), sparse=True))
        # f(..).k for every k at once: one (r q^n, d) x (d, q d) integer product
        every_k = m.act.transpose(1, 0, 2).reshape(d, q * d)
        out = (c.reshape(-1, d) @ every_k).reshape(c.shape[:-1] + (q, d))
    else:
        args = list(np.indices((q,) * n, sparse=True)) + [np.full((1,) * n, last)]
        out = c @ m.act[last]
    flat = c.reshape(len(c), q**n, d)

    def at(gs):  # the cochains at arguments gs (n index arrays), one gather
        index = sum((g * q ** (n - 1 - j) for j, g in enumerate(gs)), np.zeros_like(args[-1]))
        return np.take(flat, index, axis=1)

    for i in range(n):
        out += (-1) ** (n - i) * at(args[:i] + [mul[args[i], args[i + 1]]] + args[i + 2 :])
    out -= (-1) ** n * at(args[1:])
    return fl.as_residues(out, m.p)


def _tables(rows: np.ndarray, q: int, dim: int, degree: int) -> np.ndarray:
    """Cochain tables from the solver's flattened unknowns (see ``_rows``)."""
    if degree == 1:
        return rows.reshape(len(rows), q, dim)
    tables = np.zeros((len(rows), q, q, dim), dtype=np.int64)
    tables[:, 1:, 1:] = rows.reshape(len(rows), q - 1, q - 1, dim)
    return tables


def _rows(tables: np.ndarray, degree: int) -> np.ndarray:
    """The solver's unknowns of cochain tables: every value in degree 1, the
    values at non-identity arguments in degree 2 (normalized cochains)."""
    kept = tables if degree == 1 else tables[:, 1:, 1:]
    return kept.reshape(len(kept), math.prod(kept.shape[1:]))


def unit_cochains(q: int, dim: int, n: int) -> np.ndarray:
    """The unit n-cochains (n <= 1) whose coboundaries span B^(n+1):
    every unit vector for n = 0, the normalized ones (sigma(1) = 0) for n = 1."""
    units = np.eye(q**n * dim, dtype=np.int64).reshape((-1,) + (q,) * n + (dim,))
    return units[n * dim :]


def solve_size(g: GroupTable, dim: int, degree: int) -> Tuple[int, int]:
    """The unknowns of the cocycle solve over g, and the bytes of its largest
    array: the seed, or a slice image, is an int64 matrix with a row per
    unknown and a column per solver value of a cochain (``_rows``)."""
    q = g.order
    unknowns = (1 if degree == 1 else q - 1) * len(g.burnside_basis()) * dim
    values = (q if degree == 1 else q - 1) ** degree * dim
    return unknowns, unknowns * values * np.dtype(np.int64).itemsize


def cohomology(
    g: GroupTable,
    m: GModule,
    degree: int = 1,
    h2_order_cap: int = DEFAULT_H2_ORDER_CAP,
) -> CohomologySpace:
    if m.group is not g and m.group.order != g.order:
        raise CohomologyError("module is not over this group")
    if degree not in (1, 2):
        raise CohomologyError("degree must be 1 or 2")
    if degree == 2 and g.order > h2_order_cap:
        raise CohomologyError(f"cap exceeded: degree-2 limited to order {h2_order_cap}")
    q, d, p = g.order, m.dim, m.p

    def make_slice(k):
        return lambda S: _rows(coboundary(m, _tables(S, q, d, degree), last=k), degree)

    gens = m.group.burnside_basis()
    seed = _rows(cocycle_seed(m, gens, degree), degree)
    Z = _solution_space(seed, [make_slice(k) for k in gens], p)
    B, bpiv = fl.rref_array(_rows(coboundary(m, unit_cochains(q, d, degree - 1)), degree), p)
    return CohomologySpace(degree, g, m, Z, B[: len(bpiv)])


def zero_two_cocycle(g: GroupTable, m: GModule) -> Cochain:
    return Cochain(m, np.zeros((g.order, g.order, m.dim), dtype=np.int64))


# -- derivations from and to automorphisms -------------------------------------


def derivation_to_automorphism(
    g: GroupTable, cm: ConjugationModule, tau: Cochain
) -> GroupMap:
    """The map x -> x * w(tau(x N1)) with w() the module/element bridge.

    Verified to be an automorphism; the caller decides what a failure means.
    """
    if tau.degree != 1 or (tau.module is not cm.module and tau.module.dim != cm.module.dim):
        raise CohomologyError("derivation not over the conjugation module")
    w = cm.element_of_code[fl.encode(tau.table[cm.quotient_map.image_of], g.p)]
    f = GroupMap(g, g, g.mul[np.arange(g.order), w], check=False)
    if not f.is_homomorphism() or not f.is_bijective():
        raise GroupError("not an automorphism")
    return f


def quotient_refinement_map(fine: QuotientMap, coarse: QuotientMap) -> GroupMap:
    """The projection G/N1 -> G/N for N1 <= N (both quotients of the same G)."""
    if fine.source is not coarse.source:
        raise CohomologyError("quotients of different groups")
    if not coarse.kernel.contains_subgroup(fine.kernel):
        raise CohomologyError("fine kernel not contained in coarse kernel")
    image = coarse.image_of[fine.section]
    return GroupMap(fine.group, coarse.group, image)


def inflate_module(m: GModule, along: GroupMap) -> GModule:
    """Module over `along.source` acting through the projection."""
    act = m.act[along.image_of]
    return GModule(along.source, act, check=False, name=f"infl({m.name})")


def inflated_z1_rows(
    src_space: CohomologySpace, along: GroupMap
) -> np.ndarray:
    """Rows of Z^1(coarse) written as flattened tables over the finer quotient."""
    z, d = src_space.z_basis, src_space.module.dim
    tables = z.reshape(len(z), src_space.group.order, d)[:, along.image_of]
    return tables.reshape(len(z), along.source.order * d)


# -- H^1 of sampled submodules and conjugation modules --------------------------


@dataclass
class SampledModule:
    """A right submodule of prod^n F_p(G) (``free``): its carrier there, and
    ``module``, the carrier restricted once, which every reading uses."""

    free: FreeBimodule
    carrier: fl.FpSubspace
    module: GModule = field(init=False)

    def __post_init__(self):
        self.module = restrict_action(self.free.as_gmodule("right"), self.carrier)

    @property
    def fixed_dim(self) -> int:
        return fixed_points(self.module).dim

    @functools.cached_property
    def h1_dim(self) -> int:
        return cohomology(self.module.group, self.module, 1).h_dim


def sample_nG_module(group: GroupTable, n: int, seed: int) -> SampledModule:
    """Seeded right submodule of prod^n F_p(G) containing the socle with
    fixed-point dimension exactly n and dim H^1 <= n, by rejection sampling
    up to 64 draws.  When no draw meets the H^1 bound, the last draw of
    fixed-point dimension n is returned; without one, the socle's closure."""
    fb = FreeBimodule(group, n)
    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(1, 65):
        s = SampledModule(fb, random_right_submodule(fb, rng, extra_vectors=1 + attempt % 3))
        if s.fixed_dim != n:
            continue
        best = s
        if best.h1_dim <= n:
            return best
    return best or SampledModule(fb, free_submodule_closure(fb, fb.socle_basis(), "right"))


@memo
def conjugation_h1(
    g: GroupTable, n1: Subgroup, w: Subgroup
) -> Optional[Tuple[ConjugationModule, CohomologySpace]]:
    """W as a G/N1-module by conjugation with its H^1, or None when N1 and W
    do not make a conjugation module (``module_from_conjugation`` refuses).
    Cached on the table per (N1, W); callers read the result and never
    change it."""
    try:
        cm = module_from_conjugation(g, n1, w)
    except ModuleError:
        return None
    return cm, cohomology(cm.module.group, cm.module, 1)
