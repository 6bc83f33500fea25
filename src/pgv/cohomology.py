"""First and second cohomology of a finite p-group with module coefficients.

Cochains are those of the standard inhomogeneous complex (K. S. Brown,
*Cohomology of Groups*, GTM 87, ch. III.1), written for right modules: an
n-cochain is a table of shape (|G|,)*n + (dim,).  ``coboundary`` is the one
place the differential d, and with it every cocycle identity, is written out:

    (d v)(g)       = v.g - v
    (d tau)(g, h)  = tau(g).h + tau(h) - tau(gh)
    (d f)(g, h, k) = f(g, h).k + f(gh, k) - f(h, k) - f(g, hk)

Degree-1 cocycles (derivations) keep every value tau(g) as an unknown;
degree-2 cocycles are normalized, f(1, .) = f(., 1) = 0, and only their
values at non-identity arguments are unknowns (``_tables`` and ``_rows``).
The solver intersects the kernels of d's slices (the last argument fixed)
one slice at a time, and only for the slices at a generating sequence of the
group: the identity then holds at every element (see ``_solution_space``).
Every elimination runs in ``fp_linalg``, whose blocked kernel and
``matmul_mod`` use exact float64 BLAS products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .group_core import GroupError, GroupMap, GroupTable, QuotientMap, Subgroup
from .gmodule import ConjugationModule, GModule, ModuleError, module_from_conjugation, restrict_action

DEFAULT_H2_ORDER_CAP = 64
SLICE_ROWS = 64  # identity rows the first slice operator is applied to at once


class CohomologyError(ValueError):
    pass


@dataclass
class Derivation:
    group: GroupTable
    module: GModule
    table: np.ndarray  # (order, dim)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64) % self.module.p
        if self.table.shape != (self.group.order, self.module.dim):
            raise CohomologyError("derivation table has wrong shape")

    def is_cocycle(self) -> bool:
        t, act, mul, p = self.table, self.module.act, self.group.mul, self.module.p
        lhs = t[mul]  # [g, h] -> tau(gh)
        rhs = (np.einsum("gd,hde->ghe", t, act) + t[None, :, :]) % p
        return bool(np.array_equal(lhs, rhs % p)) and not self.table[0].any()

    def is_zero(self) -> bool:
        return not self.table.any()

    def add(self, other: "Derivation") -> "Derivation":
        return Derivation(self.group, self.module, (self.table + other.table) % self.module.p)


@dataclass
class TwoCocycle:
    group: GroupTable
    module: GModule
    table: np.ndarray  # (order, order, dim), normalized

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64) % self.module.p
        q = self.group.order
        if self.table.shape != (q, q, self.module.dim):
            raise CohomologyError("2-cochain table has wrong shape")

    def is_normalized(self) -> bool:
        return not self.table[0].any() and not self.table[:, 0].any()

    def is_cocycle(self) -> bool:
        t, act, mul, p = self.table, self.module.act, self.group.mul, self.module.p
        q = self.group.order
        for k in range(q):
            lhs = (t @ act[k] + t[mul, k]) % p
            # rhs[g,h] = f(h,k) + f(g, hk)
            rhs = (np.broadcast_to(t[:, k, :], (q, q, t.shape[2])) + t[:, mul[:, k]]) % p
            if not np.array_equal(lhs, rhs):
                return False
        return self.is_normalized()

    def is_zero(self) -> bool:
        return not self.table.any()


@dataclass
class CohomologySpace:
    degree: int
    group: GroupTable
    module: GModule
    z_dim: int
    b_dim: int
    h_dim: int
    z_basis: np.ndarray  # flattened rows
    b_basis: np.ndarray
    h_reps: list  # Derivation or TwoCocycle representatives (echelon complement)


def _solution_space(init_dim: int, slices: Sequence, p: int) -> np.ndarray:
    """RREF basis of the common kernel of the slice operators.

    Slices are taken only at a generating sequence.  That is enough: the
    2-cocycle identity f(g,h).k + f(gh,k) = f(h,k) + f(g,hk) at (g,h,k) says
    that the product (m,g)(n,h) = (m.h + n + f(g,h), gh) on M x G is
    associative whenever its third argument lies over k.  If that holds over
    k1 and k2 for all first arguments, then for x, y arbitrary and z, w over
    k1, k2: (xy)(zw) = ((xy)z)w = (x(yz))w = x((yz)w) = x(y(zw)), and zw runs
    over every element above k1k2, so the set of good k is closed under
    products.  In the same way tau(gh) = tau(g).h + tau(h) at h1 and h2 gives
    it at h1h2.  In a finite group products of the generators reach every
    element, the identity included.

    The first slice is applied to the identity a chunk of rows at a time and
    its kernel K is the first solution basis (K times the identity is K).
    """
    if init_dim == 0 or not slices:
        return np.eye(init_dim, dtype=np.int64)
    first, *rest = slices
    D = np.empty((init_dim, init_dim), dtype=np.int64)
    for a in range(0, init_dim, SLICE_ROWS):
        rows = min(SLICE_ROWS, init_dim - a)
        D[a : a + rows] = first(np.eye(rows, init_dim, k=a, dtype=np.int64))
    S = fl.left_kernel_array(D, p)
    del D
    for apply_slice in rest:
        if S.shape[0] == 0:
            break
        K = fl.left_kernel_array(apply_slice(S), p)
        S = fl.matmul_mod(K, S, p)
    R, piv = fl.rref_array(S, p)
    return R[: len(piv)]


def coboundary(m: GModule, cochains: np.ndarray, last: Optional[int] = None) -> np.ndarray:
    """d of a stack of n-cochains, shape (r,) + (|G|,)*n + (dim,) with n <= 2.

    For n-cochains f the sum runs f(g_1..g_n).g_{n+1}, then
    (-1)^(n-i) f(.., g_i g_{i+1}, ..) for i = 1..n, then
    (-1)^(n+1) f(g_2..g_{n+1}).  The result has one more group axis; with
    ``last`` given the new last argument is fixed to it instead, and the
    result (a slice of d) has the shape of the input.
    """
    c = np.asarray(cochains, dtype=np.int64)
    n, q, mul = c.ndim - 2, m.group.order, m.group.mul
    if last is None:
        args = list(np.indices((q,) * (n + 1)))
        out = np.einsum("r...d,kde->r...ke", c, m.act)
    else:
        args = list(np.indices((q,) * n)) + [np.full((q,) * n, last)]
        out = c @ m.act[last]
    flat = c.reshape(len(c), q**n, m.dim)

    def at(gs):  # the cochains at arguments gs (n index arrays), one gather
        index = sum((g * q ** (n - 1 - j) for j, g in enumerate(gs)), np.zeros_like(args[0]))
        return np.take(flat, index, axis=1)

    for i in range(n):
        out += (-1) ** (n - i) * at(args[:i] + [mul[args[i], args[i + 1]]] + args[i + 2 :])
    out -= (-1) ** n * at(args[1:])
    return out % m.p


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


def cohomology(
    g: GroupTable,
    m: GModule,
    degree: int = 1,
    h2_order_cap: int = DEFAULT_H2_ORDER_CAP,
    want_reps: bool = True,
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

    unknowns = (q if degree == 1 else q - 1) ** degree * d
    Z = _solution_space(unknowns, [make_slice(k) for k in g.generating_sequence() or [0]], p)
    B, bpiv = fl.rref_array(_rows(coboundary(m, unit_cochains(q, d, degree - 1)), degree), p)
    B = B[: len(bpiv)]
    reps_rows = fl.complement_reps(B, Z, p) if want_reps else np.zeros((0, unknowns), dtype=np.int64)
    rep_type = Derivation if degree == 1 else TwoCocycle
    reps = [rep_type(g, m, tab) for tab in _tables(reps_rows, q, d, degree)]
    return CohomologySpace(degree, g, m, Z.shape[0], B.shape[0], Z.shape[0] - B.shape[0], Z, B, reps)


def two_coboundary(g: GroupTable, m: GModule, sigma: np.ndarray) -> TwoCocycle:
    """Coboundary of a normalized 1-cochain sigma (shape (order, dim))."""
    sigma = fl.as_residues(sigma, m.p).reshape(1, g.order, m.dim)
    if sigma[0, 0].any():
        raise CohomologyError("sigma must be normalized")
    return TwoCocycle(g, m, coboundary(m, sigma)[0])


def zero_two_cocycle(g: GroupTable, m: GModule) -> TwoCocycle:
    return TwoCocycle(g, m, np.zeros((g.order, g.order, m.dim), dtype=np.int64))


def brute_force_z1(g: GroupTable, m: GModule, limit: int = 1 << 20) -> List[np.ndarray]:
    """All derivations by explicit function enumeration (oracle for tests)."""
    from itertools import product as iproduct

    q, d, p = g.order, m.dim, m.p
    total = p ** (q * d)
    if total > limit:
        raise CohomologyError("enumeration limit exceeded")
    out = []
    for flat in iproduct(range(p), repeat=q * d):
        tab = np.array(flat, dtype=np.int64).reshape(q, d)
        der = Derivation(g, m, tab)
        if der.is_cocycle():
            out.append(tab)
    return out


# -- derivations from and to automorphisms -------------------------------------


def derivation_to_automorphism(
    g: GroupTable, cm: ConjugationModule, tau: Derivation
) -> GroupMap:
    """The map x -> x * w(tau(x N1)) with w() the module/element bridge.

    Verified to be an automorphism; the caller decides what a failure means.
    """
    if tau.module is not cm.module and tau.module.dim != cm.module.dim:
        raise CohomologyError("derivation not over the conjugation module")
    w = cm.element_of_code[fl.encode(tau.table[cm.quotient_map.image_of], g.p)]
    f = GroupMap(g, g, g.mul[np.arange(g.order), w], check=False)
    if not f.is_homomorphism() or not f.is_bijective():
        raise GroupError("not an automorphism")
    return f


def conjugation_derivation(
    g: GroupTable, cm: ConjugationModule, x: int
) -> Derivation:
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
    tab = fl.vector_codes(cm.module.dim, g.p)[codes[qm.section]]
    der = Derivation(qm.group, cm.module, tab)
    if not der.is_cocycle():
        raise CohomologyError("conjugation derivation fails the cocycle identity")
    return der


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
    return GModule(along.source, act, side=m.side, check=False, name=f"infl({m.name})")


def inflate(src: Derivation, along: GroupMap, target_module: Optional[GModule] = None) -> Derivation:
    """delta(c) = tau(pi(c)) on the finer quotient."""
    mod = target_module if target_module is not None else inflate_module(src.module, along)
    tab = src.table[along.image_of]
    out = Derivation(along.source, mod, tab)
    return out


def inflated_z1_rows(
    src_space: CohomologySpace, along: GroupMap
) -> np.ndarray:
    """Rows of Z^1(coarse) written as flattened tables over the finer quotient."""
    z, d = src_space.z_basis, src_space.module.dim
    tables = z.reshape(len(z), src_space.group.order, d)[:, along.image_of]
    return tables.reshape(len(z), along.source.order * d)


# -- H^1 of submodules and conjugation modules ---------------------------------


def h1_dim_of_submodule(fb, carrier, side: str = "right") -> int:
    sub, _ = restrict_action(fb.as_gmodule(side), carrier)
    return cohomology(sub.group, sub, 1, want_reps=False).h_dim


def conjugation_h1(
    g: GroupTable, n1: Subgroup, w: Subgroup, want_reps: bool = True
) -> Optional[Tuple[ConjugationModule, CohomologySpace]]:
    """W as a G/N1-module by conjugation with its H^1, or None when N1 and W
    do not make a conjugation module (``module_from_conjugation`` refuses)."""
    try:
        cm = module_from_conjugation(g, n1, w)
    except ModuleError:
        return None
    return cm, cohomology(cm.module.group, cm.module, 1, want_reps=want_reps)
