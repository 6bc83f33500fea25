"""Group extensions from 2-cocycles and the associated transfer machinery.

An extension of an elementary abelian kernel N (presented as a right module
of dimension t) by G lives on pairs (a, g) with

    (a, g)(b, h) = (a.act(h) + b + f(g, h), gh).

The pair (a, g) has index encode(a) + |N|*g, where encode(a) is the vector
code of ``fp_linalg.encode``: the digits of encode(a) in base p are the
entries of a, least significant first.

The transfer pair couples the group algebras of the extension and the base:
`down` sums coefficients over fibers of the projection, `up` lifts through
the canonical section times the kernel norm element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import fp_linalg as fl
from .fp_linalg import FpSubspace
from .cohomology import TwoCocycle, coboundary, unit_cochains
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupMap,
    GroupTable,
    Subgroup,
)
from .gmodule import FreeBimodule, GModule, free_submodule_closure


class ExtensionError(ValueError):
    pass


@dataclass
class ExtensionResult:
    total: GroupTable
    base: GroupTable
    module: GModule  # the kernel as a right module over the base
    cocycle: TwoCocycle
    projection: GroupMap  # total -> base
    kernel_embed: np.ndarray  # kernel element index (vector code) -> total index
    kernel: Subgroup
    section: np.ndarray  # base element -> total index (0, g)

    @property
    def t(self) -> int:
        return self.module.dim

    def kernel_generators(self) -> List[int]:
        """Images of the standard basis vectors of the kernel module."""
        codes = fl.encode(np.eye(self.t, dtype=np.int64), self.base.p)
        return [int(x) for x in self.kernel_embed[codes]]


def build_extension(
    g: GroupTable,
    nmod: GModule,
    f: TwoCocycle,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> ExtensionResult:
    """Construct the extension group of the module kernel by g along f."""
    if f.group is not g and f.group.order != g.order:
        raise ExtensionError("cocycle not over this group")
    if f.module is not nmod and (f.module.dim != nmod.dim):
        raise ExtensionError("cocycle not over this module")
    if not f.is_normalized() or not f.is_cocycle():
        raise ExtensionError("not a cocycle")
    p = g.p
    t = nmod.dim
    nsize = p**t
    order = nsize * g.order
    if order > order_cap:
        raise ExtensionError(f"order cap: {order} > {order_cap}")

    # Addition, action and cocycle tables on kernel codes.
    vecs = fl.vector_codes(t, p)
    add = fl.encode(vecs[:, None, :] + vecs[None, :, :], p)
    act_code = fl.encode(vecs @ nmod.act, p)  # [h, a] -> a.act(h)
    f_code = fl.encode(f.table, p)

    # Row x = (a, g), column y = (b, h).
    a_idx = np.arange(order) % nsize
    g_idx = np.arange(order) // nsize
    acted = act_code[g_idx[None, :], a_idx[:, None]]  # a.act(h)
    summed = add[add[acted, a_idx[None, :]], f_code[np.ix_(g_idx, g_idx)]]  # + b + f(g, h)
    mul = summed + nsize * g.mul[np.ix_(g_idx, g_idx)]
    try:
        total = GroupTable(p, mul, name=f"ext({g.name})", order_cap=order_cap)
    except GroupError as e:
        raise ExtensionError(f"not a cocycle: extension table invalid ({e})") from e

    projection = GroupMap(total, g, g_idx, check=True)
    kernel_embed = np.arange(nsize, dtype=np.int64)  # (a, identity) has index a
    kernel = Subgroup(total, kernel_embed)
    section = (nsize * np.arange(g.order)).astype(np.int64)
    return ExtensionResult(total, g, nmod, f, projection, kernel_embed, kernel, section)


def section_is_homomorphism(ext: ExtensionResult) -> bool:
    sec = ext.section
    g = ext.base
    t = ext.total
    return bool(np.array_equal(sec[g.mul], t.mul[np.ix_(sec, sec)]))


def equivalence_map(
    ext: ExtensionResult, f: TwoCocycle, f2: TwoCocycle
) -> Optional[GroupMap]:
    """Isomorphism ext(f) -> ext(f2), (a, g) -> (a + sigma(g), g), when
    f - f2 is the coboundary of some normalized sigma; None otherwise."""
    m, q, d, p = f.module, f.group.order, f.module.dim, f.module.p
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


# -- transfer maps --------------------------------------------------------------


@dataclass
class TransferPair:
    ext: ExtensionResult
    n: int
    down: np.ndarray  # (n*|T|, n*|G|): x -> coefficient-sum over fibers
    up: np.ndarray  # (n*|G|, n*|T|): section * norm element
    norm_vector: np.ndarray  # the kernel norm element in F_p(T)
    e_exponents: np.ndarray  # row r: the exponents (i_1..i_t) of e_vectors[r]
    e_vectors: np.ndarray  # rows: the e_{i_1..i_t, l} vectors, l = r mod n
    free_total: FreeBimodule
    free_base: FreeBimodule
    lambda_basis: np.ndarray  # rows: section(g) * e_{i,l} spanning ker(down)
    lambda1_basis: np.ndarray  # rows: e_{i,l} * section(g)


def _algebra_power_product(
    total: GroupTable, gens: Sequence[int], exps: Sequence[int]
) -> np.ndarray:
    """(a_1 - 1)^{i_1} ... (a_t - 1)^{i_t} in F_p(total)."""
    p = total.p
    vec = np.zeros(total.order, dtype=np.int64)
    vec[0] = 1
    for a, e in zip(gens, exps):
        for _ in range(e):
            # multiply vec by (a - 1) on the right
            out = np.zeros(total.order, dtype=np.int64)
            nz = np.nonzero(vec)[0]
            for x in nz:
                out[total.mul[x, a]] = (out[total.mul[x, a]] + vec[x]) % p
                out[x] = (out[x] - vec[x]) % p
            vec = out
    return vec


def transfer_maps(ext: ExtensionResult, n: int) -> TransferPair:
    total, base = ext.total, ext.base
    p = total.p
    t = ext.t
    fb_total = FreeBimodule(total, n)
    fb_base = FreeBimodule(base, n)
    to, bo = total.order, base.order

    proj = ext.projection.image_of
    down = np.zeros((n * to, n * bo), dtype=np.int64)
    for l in range(n):
        for x in range(to):
            down[l * to + x, l * bo + proj[x]] = 1

    gens = ext.kernel_generators()
    norm = _algebra_power_product(total, gens, [p - 1] * t)
    # The norm element is the sum over the kernel.
    expected = np.zeros(to, dtype=np.int64)
    expected[ext.kernel.members] = 1
    if not np.array_equal(norm, expected):
        raise ExtensionError("kernel norm element mismatch")

    up = np.zeros((n * bo, n * to), dtype=np.int64)
    norm_R = FreeBimodule(total, 1).right_mul_matrix(norm)
    for l in range(n):
        for gg in range(bo):
            h = int(ext.section[gg])
            up[l * bo + gg, l * to : (l + 1) * to] = norm_R[h]  # h * norm

    # e_{i_1..i_t, l} vectors and the lambda basis of ker(down).  The
    # exponent tuples run in lexicographic order (last exponent fastest),
    # i.e. the vector codes with their digits reversed, and each one is
    # repeated for the n copies.
    e_exponents = np.repeat(fl.vector_codes(t, p)[:, ::-1], n, axis=0)
    e_vectors = np.zeros((e_exponents.shape[0], n * to), dtype=np.int64)
    for r in range(0, e_exponents.shape[0], n):
        vec = _algebra_power_product(total, gens, e_exponents[r])
        for l in range(n):
            e_vectors[r + l, l * to : (l + 1) * to] = vec

    lam_rows = []
    lam1_rows = []
    one_block = FreeBimodule(total, 1)
    for r, (exps, evec) in enumerate(zip(e_exponents, e_vectors)):
        if sum(exps) < 1:
            continue
        l = r % n
        block = evec[l * to : (l + 1) * to]
        R = one_block.right_mul_matrix(block)  # row h: h * e-part
        L = one_block.left_mul_matrix(block)  # row h: e-part * h
        for gg in range(bo):
            h = int(ext.section[gg])
            row = np.zeros(n * to, dtype=np.int64)
            row[l * to : (l + 1) * to] = R[h]
            lam_rows.append(row)
            row1 = np.zeros(n * to, dtype=np.int64)
            row1[l * to : (l + 1) * to] = L[h]
            lam1_rows.append(row1)
    lambda_basis = (
        np.array(lam_rows, dtype=np.int64)
        if lam_rows
        else np.zeros((0, n * to), dtype=np.int64)
    )
    lambda1_basis = (
        np.array(lam1_rows, dtype=np.int64)
        if lam1_rows
        else np.zeros((0, n * to), dtype=np.int64)
    )
    return TransferPair(
        ext,
        n,
        down,
        up,
        norm,
        e_exponents,
        e_vectors,
        fb_total,
        fb_base,
        lambda_basis,
        lambda1_basis,
    )


def lambda_expansion(tp: TransferPair, y: np.ndarray) -> Optional[np.ndarray]:
    """Coefficients over the section-times-e basis of ker(down); None if y is
    outside the kernel.  Uniqueness holds because the basis is independent."""
    y = fl.as_residues(y, tp.ext.total.p).reshape(-1)
    if np.any((y @ tp.down) % tp.ext.total.p):
        return None
    coeffs = fl.solve_left(tp.lambda_basis, y, tp.ext.total.p)
    return coeffs


def kernel_of_down(tp: TransferPair) -> FpSubspace:
    rows = fl.left_kernel_array(tp.down, tp.ext.total.p)
    return FpSubspace.from_rows(rows, tp.ext.total.p, tp.down.shape[0])


def filtration(tp: TransferPair, m: int) -> FpSubspace:
    """Two-sided submodule generated by the e-vectors with exponent sum >= m."""
    p = tp.ext.total.p
    t = tp.ext.t
    if m <= 0:
        return FpSubspace.full(tp.free_total.dim, p)
    if m > t * (p - 1):
        return FpSubspace.zero(tp.free_total.dim, p)
    seeds = tp.e_vectors[tp.e_exponents.sum(axis=1) >= m]
    return free_submodule_closure(tp.free_total, seeds, "both")


def filtration_product(tp: TransferPair, a: FpSubspace, b: FpSubspace) -> FpSubspace:
    """Span of pairwise algebra products of two carriers."""
    fbt = tp.free_total
    products = [fbt.algebra_product(a.basis, y) for y in b.basis]
    return FpSubspace.from_rows(np.vstack(products) if products else b.basis, fbt.p, fbt.dim)
