"""First and second cohomology of a finite p-group with module coefficients.

Degree-1 cocycles satisfy tau(gh) = tau(g).act(h) + tau(h); normalized
degree-2 cocycles satisfy f(g,h).act(k) + f(gh,k) = f(h,k) + f(g,hk) with
f(1,.) = f(.,1) = 0.  The solvers intersect the kernels of the linear
system's slices (fixing the last argument h or k) one slice at a time, and
only for the slices at a generating sequence of the group: the identity then
holds at every element (see ``_solution_space``).  Every elimination runs in
``fp_linalg``, whose blocked kernel and ``matmul_mod`` use exact float64 BLAS
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .group_core import GroupError, GroupMap, GroupTable, QuotientMap, is_inner
from .gmodule import ConjugationModule, GModule

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


def cohomology(
    g: GroupTable,
    m: GModule,
    degree: int = 1,
    h2_order_cap: int = DEFAULT_H2_ORDER_CAP,
    want_reps: bool = True,
) -> CohomologySpace:
    if m.group is not g and m.group.order != g.order:
        raise CohomologyError("module is not over this group")
    if degree == 1:
        return _h1(g, m, want_reps)
    if degree == 2:
        if g.order > h2_order_cap:
            raise CohomologyError(f"cap exceeded: degree-2 limited to order {h2_order_cap}")
        return _h2(g, m, want_reps)
    raise CohomologyError("degree must be 1 or 2")


def _h1(g: GroupTable, m: GModule, want_reps: bool) -> CohomologySpace:
    q, d, p = g.order, m.dim, m.p
    mul, act = g.mul, m.act

    def make_slice(h):
        def apply_slice(S):
            r = S.shape[0]
            S3 = S.reshape(r, q, d)
            term1 = S3[:, mul[:, h], :]
            term2 = np.einsum("rgd,de->rge", S3, act[h]) % p
            term3 = S3[:, h, :][:, None, :]
            return ((term1 - term2 - term3) % p).reshape(r, q * d)

        return apply_slice

    Z = _solution_space(q * d, [make_slice(h) for h in g.generating_sequence() or [0]], p)

    # Coboundaries: tau_v(g) = v.act(g) - v for basis vectors v.
    b_rows = np.zeros((d, q * d), dtype=np.int64)
    eye = np.eye(d, dtype=np.int64)
    for i in range(d):
        tab = (act[:, i, :] - eye[i][None, :]) % p
        b_rows[i] = tab.reshape(-1)
    B, bpiv = fl.rref_array(b_rows, p)
    B = B[: len(bpiv)]

    reps_rows = fl.complement_reps(B, Z, p) if want_reps else np.zeros((0, q * d), dtype=np.int64)
    reps = [Derivation(g, m, row.reshape(q, d)) for row in reps_rows]
    return CohomologySpace(1, g, m, Z.shape[0], B.shape[0], Z.shape[0] - B.shape[0], Z, B, reps)


def _h2(g: GroupTable, m: GModule, want_reps: bool) -> CohomologySpace:
    q, d, p = g.order, m.dim, m.p
    mul, act = g.mul, m.act
    nun = (q - 1) * (q - 1) * d

    def make_slice(k):
        def apply_slice(S):
            r = S.shape[0]
            S4 = S.reshape(r, q - 1, q - 1, d)
            # term1: f(g,h).act(k)
            term1 = np.einsum("rghd,de->rghe", S4, act[k]) % p
            # term2: f(gh, k); zero when gh == 1
            prod = mul[1:, 1:]  # gh for g,h >= 1
            mask = prod != 0
            term2 = np.zeros((r, q - 1, q - 1, d), dtype=np.int64)
            gh_idx = np.where(mask, prod - 1, 0)
            term2[:, mask] = S4[:, gh_idx[mask], k - 1, :]
            # term3: f(h, k) independent of g
            term3 = np.broadcast_to(S4[:, :, k - 1, :][:, None, :, :], term1.shape)
            # term4: f(g, hk); zero when hk == 1
            hk = mul[1:, k]
            mask4 = hk != 0
            term4 = np.zeros_like(term2)
            hk_idx = np.where(mask4, hk - 1, 0)
            term4[:, :, mask4, :] = S4[:, :, hk_idx[mask4], :]
            return ((term1 + term2 - term3 - term4) % p).reshape(r, -1)

        return apply_slice

    slices = [make_slice(k) for k in g.generating_sequence()]
    Z = _solution_space(nun, slices, p)

    # Coboundaries of normalized 1-cochains: dsigma(g,h) = s(g).act(h) + s(h) - s(gh).
    b_rows = []
    eye = np.eye(d, dtype=np.int64)
    for gg in range(1, q):
        for i in range(d):
            # sigma = e_i at position gg, zero elsewhere.
            tab = np.zeros((q - 1, q - 1, d), dtype=np.int64)
            tab[gg - 1] = (tab[gg - 1] + act[1:, i, :]) % p  # s(g).act(h) at g == gg
            tab[:, gg - 1] = (tab[:, gg - 1] + eye[i]) % p  # s(h) at h == gg
            ghmask = mul[1:, 1:] == gg
            tab[ghmask] = (tab[ghmask] - eye[i]) % p  # -s(gh)
            b_rows.append(tab.reshape(-1))
    B_all = np.array(b_rows, dtype=np.int64) if b_rows else np.zeros((0, nun), dtype=np.int64)
    B, bpiv = fl.rref_array(B_all, p)
    B = B[: len(bpiv)]

    reps_rows = fl.complement_reps(B, Z, p) if want_reps else np.zeros((0, nun), dtype=np.int64)
    reps = []
    for row in reps_rows:
        tab = np.zeros((q, q, d), dtype=np.int64)
        tab[1:, 1:] = row.reshape(q - 1, q - 1, d)
        reps.append(TwoCocycle(g, m, tab))
    return CohomologySpace(2, g, m, Z.shape[0], B.shape[0], Z.shape[0] - B.shape[0], Z, B, reps)


def coboundary_derivation(g: GroupTable, m: GModule, v: np.ndarray) -> Derivation:
    v = fl.as_residues(v, m.p).reshape(m.dim)
    tab = (np.einsum("d,gde->ge", v, m.act) - v[None, :]) % m.p
    return Derivation(g, m, tab)


def two_coboundary(g: GroupTable, m: GModule, sigma: np.ndarray) -> TwoCocycle:
    """Coboundary of a normalized 1-cochain sigma (shape (order, dim))."""
    sigma = fl.as_residues(sigma, m.p).reshape(g.order, m.dim)
    if sigma[0].any():
        raise CohomologyError("sigma must be normalized")
    q, d, p = g.order, m.dim, m.p
    tab = (
        np.einsum("gd,hde->ghe", sigma, m.act) + sigma[None, :, :] - sigma[g.mul]
    ) % p
    return TwoCocycle(g, m, tab)


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
    qf = along.source.order
    d = src_space.module.dim
    rows = np.zeros((src_space.z_basis.shape[0], qf * d), dtype=np.int64)
    for i, flat in enumerate(src_space.z_basis):
        tab = flat.reshape(src_space.group.order, d)
        rows[i] = tab[along.image_of].reshape(-1)
    return rows


# -- the span probe -------------------------------------------------------------


def restricted_module(fb, carrier, side: str = "right"):
    """Abstract module on a free-bimodule submodule carrier."""
    from .gmodule import restrict_action

    mod = fb.as_gmodule(side)
    sub, basis = restrict_action(mod, carrier)
    return sub, basis


def h1_dim_of_submodule(fb, carrier, side: str = "right") -> int:
    sub, _ = restricted_module(fb, carrier, side)
    return cohomology(sub.group, sub, 1, want_reps=False).h_dim


@dataclass
class ProbeResult:
    found: bool
    derivation: Optional[Derivation]
    automorphism: Optional[GroupMap]
    witnesses: List[Tuple[int, Optional[int]]]  # (rep index, inner witness or None)


def derivation_span_noninner_probe(
    g: GroupTable, cm: ConjugationModule, space: CohomologySpace
) -> ProbeResult:
    """Test each H^1 representative's induced automorphism for innerness.

    Basis-only testing is complete: tau -> psi_tau turns addition into
    composition when values lie in the (abelian) kernel subgroup, so the
    inner-inducing derivations form a subgroup of Z^1 containing B^1.
    """
    witnesses: List[Tuple[int, Optional[int]]] = []
    for i, rep in enumerate(space.h_reps):
        psi = derivation_to_automorphism(g, cm, rep)
        w = is_inner(g, psi)
        witnesses.append((i, w))
        if w is None:
            return ProbeResult(True, rep, psi, witnesses)
    return ProbeResult(False, None, None, witnesses)
