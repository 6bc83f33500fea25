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

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from . import fp_linalg as fl
from .fp_linalg import FpSubspace
from .cohomology import Cochain
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupMap,
    GroupTable,
    Subgroup,
    memo,
)
from .gmodule import FreeBimodule, GModule, free_submodule_closure


class ExtensionError(ValueError):
    pass


def _freeze_arrays(obj) -> None:
    """Make every array field read-only: results are shared through memos,
    and a caller that writes into one raises instead of corrupting it."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if isinstance(val, np.ndarray):
            val.setflags(write=False)


@dataclass
class ExtensionResult:
    total: GroupTable
    base: GroupTable
    module: GModule  # the kernel as a right module over the base
    cocycle: Cochain
    projection: GroupMap  # total -> base
    kernel_embed: np.ndarray  # kernel element index (vector code) -> total index
    kernel: Subgroup
    section: np.ndarray  # base element -> total index (0, g)

    def __post_init__(self):
        _freeze_arrays(self)

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
    f: Cochain,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> ExtensionResult:
    """Construct the extension group of the module kernel by g along f."""
    if f.module.group is not g and f.module.group.order != g.order:
        raise ExtensionError("cocycle not over this group")
    if f.module is not nmod and (f.module.dim != nmod.dim):
        raise ExtensionError("cocycle not over this module")
    if not f.is_cocycle():
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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)  # filled by @memo

    def __post_init__(self):
        _freeze_arrays(self)


def _algebra_power_product(
    total: GroupTable, gens: Sequence[int], exps: Sequence[int]
) -> np.ndarray:
    """(a_1 - 1)^{i_1} ... (a_t - 1)^{i_t} in F_p(total)."""
    vec = np.zeros(total.order, dtype=np.int64)
    vec[0] = 1
    for a, e in zip(gens, exps):
        for _ in range(e):
            # vec * (a - 1): the coefficient of k in vec * a is vec[k a^-1].
            vec = (vec[total.mul[:, total.inv[a]]] - vec) % total.p
    return vec


def transfer_maps(ext: ExtensionResult, n: int) -> TransferPair:
    total, base = ext.total, ext.base
    p = total.p
    t = ext.t
    fb_total = FreeBimodule(total, n)
    fb_base = FreeBimodule(base, n)
    to, bo = total.order, base.order
    section = ext.section

    # down: x in copy l goes to its image under the projection in copy l.
    down = fb_total.copies(np.eye(bo, dtype=np.int64)[ext.projection.image_of])

    # The exponent tuples run in lexicographic order (last exponent fastest),
    # i.e. the vector codes with their digits reversed; the last one is
    # (p-1, .., p-1), whose power product is the kernel norm element.
    exps = fl.vector_codes(t, p)[:, ::-1]
    gens = ext.kernel_generators()
    powers = np.array([_algebra_power_product(total, gens, e) for e in exps])
    norm = powers[-1]
    # The norm element is the sum over the kernel.
    expected = np.zeros(to, dtype=np.int64)
    expected[ext.kernel.members] = 1
    if not np.array_equal(norm, expected):
        raise ExtensionError("kernel norm element mismatch")

    # up: row g of copy l is section(g) * norm in copy l.
    up = fb_total.copies(fb_total.mul_block(norm, "right")[section])

    # e_{i_1..i_t, l}: each power product once per copy l, row r = k*n + l.
    e_exponents = np.repeat(exps, n, axis=0)
    e_vectors = fb_total.copies(powers[:, None]).reshape(-1, n * to)

    # Rows section(g) * e_{i,l} and e_{i,l} * section(g) for exponent sum
    # >= 1 (every tuple but the first), ordered by (i, l, g).
    lambda_basis = fb_total.copies(
        fb_total.mul_block(powers[1:], "right")[:, section]
    ).reshape(-1, n * to)
    lambda1_basis = fb_total.copies(
        fb_total.mul_block(powers[1:], "left")[:, section]
    ).reshape(-1, n * to)
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
    rows = fl.left_kernel_basis(tp.down, tp.ext.total.p)
    return FpSubspace.from_rows(rows, tp.ext.total.p, tp.down.shape[0])


@memo
def filtration(tp: TransferPair, m: int) -> FpSubspace:
    """Two-sided submodule generated by the e-vectors with exponent sum >= m;
    each layer is built once per transfer pair."""
    p = tp.ext.total.p
    t = tp.ext.t
    if m <= 0:
        return FpSubspace.full(tp.free_total.dim, p)
    if m > t * (p - 1):
        return FpSubspace.zero(tp.free_total.dim, p)
    seeds = tp.e_vectors[tp.e_exponents.sum(axis=1) >= m]
    return free_submodule_closure(tp.free_total, seeds, "both")


# Rows of b per batch of filtration_product: a batch of products is at most
# PRODUCT_ROWS * dim(a) rows, so the products are never all held at once.
PRODUCT_ROWS = 8


def filtration_product(tp: TransferPair, a: FpSubspace, b: FpSubspace) -> FpSubspace:
    """Span of the pairwise algebra products x*y, x in a.basis, y in b.basis.

    The products with a batch of y rows are formed in one pass and folded
    into the echelon form of the span so far; once the span is the whole
    module, no product can add to it.
    """
    fbt = tp.free_total
    span = fl.RowSpace(fbt.p, fbt.dim)
    for s in range(0, b.dim, PRODUCT_ROWS):
        if span.dim == fbt.dim:
            break
        span.add(fbt.algebra_product(a.basis, b.basis[s : s + PRODUCT_ROWS]).reshape(-1, fbt.dim))
    return span.subspace()
