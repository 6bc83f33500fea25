"""Modules over the group algebra F_p(G).

Convention: module elements are row vectors, acted on from the right by one
matrix per group element, with act(gh) = act(g) @ act(h).  A left module is
the same data over the opposite multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .fp_linalg import FpSubspace, RowSpace
from .group_core import (
    GroupTable,
    Subgroup,
    distinct_elements,
    memo,
    opposite,
    quotient,
)

DEFAULT_DIM_CAP = 8192


class ModuleError(ValueError):
    pass


class GModule:
    """Finite-dimensional right module over F_p(group)."""

    def __init__(
        self,
        group: GroupTable,
        act: np.ndarray,
        check: bool = True,
        name: str = "",
    ):
        self.group = group
        self.p = group.p
        act = np.asarray(act, dtype=np.int64) % self.p
        if act.ndim != 3 or act.shape[0] != group.order or act.shape[1] != act.shape[2]:
            raise ModuleError("act must be (order, dim, dim)")
        if act.shape[1] > DEFAULT_DIM_CAP:
            raise ModuleError("dimension cap exceeded")
        self.act = act
        self.act.setflags(write=False)
        self.dim = act.shape[1]
        self.name = name
        self._cache: dict = {}  # filled by @memo
        if check:
            self._validate()

    def _validate(self):
        if not np.array_equal(self.act[0], np.eye(self.dim, dtype=np.int64)):
            raise ModuleError("act(identity) != identity")
        for g in self.group.burnside_basis():
            if not fl.is_invertible(self.act[g], self.p):
                raise ModuleError("action matrix not invertible")
            prod = (self.act[g][None] @ self.act) % self.p
            if not np.array_equal(prod, self.act[self.group.mul[g]]):
                raise ModuleError("action is not a homomorphism")

    def __repr__(self):
        return f"<module dim {self.dim} over {self.group.name or 'G'}>"


def trivial_module(group: GroupTable, dim: int = 1) -> GModule:
    act = np.broadcast_to(np.eye(dim, dtype=np.int64), (group.order, dim, dim)).copy()
    return GModule(group, act, check=False, name="trivial")


def dual_module(m: GModule) -> GModule:
    """Contragredient module; lives over the opposite table."""
    opp = opposite(m.group)
    act = np.ascontiguousarray(np.transpose(m.act, (0, 2, 1)))
    return GModule(opp, act, check=False, name=f"dual({m.name})")


# -- core operations ---------------------------------------------------------


def fixed_under(acts: Sequence[np.ndarray], p: int, dim: int) -> FpSubspace:
    """Row vectors v with v @ a = v for every matrix a in ``acts``."""
    blocks = [(a - np.eye(dim, dtype=np.int64)) % p for a in acts]
    if not blocks:
        return FpSubspace.full(dim, p)
    stacked = np.hstack(blocks)  # v @ stacked = 0 for every matrix
    return FpSubspace.from_rows(fl.left_kernel_basis(stacked, p), p, dim)


@memo
def fixed_points(m: GModule) -> FpSubspace:
    """Vectors fixed by every group element: intersection of ker(act(g) - 1)."""
    return fixed_under(_actions(m), m.p, m.dim)


@memo
def radical(m: GModule) -> FpSubspace:
    """J_G(m): the span of all v(g - 1); the augmentation ideal acting on m."""
    return radical_of_carrier(m, FpSubspace.full(m.dim, m.p))


def _act(rows: np.ndarray, action: np.ndarray) -> np.ndarray:
    """The images x @ action of the rows x, not reduced mod p: an action is a
    square matrix, or the index array of a permutation matrix, whose product
    is the column gather x[:, action]."""
    return rows[:, action] if action.ndim == 1 else rows @ action


def _closure(p: int, seeds: np.ndarray, actions: Sequence[np.ndarray]) -> FpSubspace:
    """Least subspace containing the seed rows and stable under each action
    (``_act``).

    A spin, as in the MeatAxe (Parker 1984): each vector that joins the span
    is imaged once by each action, in the round after it joined, and never
    again.  The joined vectors span the final space V and their images lie
    in V, so V is stable; every one of them lies in any stable subspace that
    holds the seeds, so V is the least one.  That subspace is unique and its
    RREF basis canonical, so imaging other spanning vectors, such as the
    whole basis every round, gives the same result.
    """
    n = seeds.shape[1]
    rs = RowSpace(p, n)
    rs.add(seeds)
    done = 0
    while done < rs.dim < n:
        frontier = rs.joined(done)
        done = rs.dim
        for action in actions:
            rs.add(_act(frontier, action))
    return rs.subspace()


def _is_stable_under(carrier: FpSubspace, actions: Sequence[np.ndarray]) -> bool:
    return not any(np.any(carrier.reduce(_act(carrier.basis, action))) for action in actions)


def _actions(m: GModule) -> List[np.ndarray]:
    return [m.act[g] for g in m.group.burnside_basis()]


def radical_of_carrier(m: GModule, carrier: FpSubspace) -> FpSubspace:
    mats = _actions(m)
    eye = np.eye(m.dim, dtype=np.int64)
    # (gh - 1) = (g - 1)h + (h - 1): generator images must be closed off under
    # the action to span the full radical.
    seeds = [carrier.basis @ ((a - eye) % m.p) for a in mats]
    return _closure(m.p, np.vstack(seeds) if seeds else carrier.basis[:0], mats)


def d_G(m: GModule, carrier: Optional[FpSubspace] = None) -> int:
    """Minimal number of module generators (dim of the radical quotient)."""
    if carrier is None:
        return m.dim - radical(m).dim
    rad = radical_of_carrier(m, carrier)
    return carrier.dim - rad.dim


def minimal_generators(m: GModule) -> np.ndarray:
    """Lexicographically-first echelon lift of a basis of m / J_G(m)."""
    return fl.complement_reps(radical(m).basis, np.eye(m.dim, dtype=np.int64), m.p)


def generated_submodule(m: GModule, vectors: np.ndarray) -> FpSubspace:
    """Least action-stable subspace containing the given row vectors."""
    return _closure(m.p, np.atleast_2d(vectors).reshape(-1, m.dim), _actions(m))


def is_stable(m: GModule, carrier: FpSubspace) -> bool:
    return _is_stable_under(carrier, _actions(m))


def restrict_action(m: GModule, carrier: FpSubspace) -> GModule:
    """Abstract module on a stable carrier, in coordinates of ``carrier.basis``.
    A submodule of the free module restricts through ``FreeBimodule.restrict``."""
    if not is_stable(m, carrier):
        raise ModuleError("carrier not stable under the action")
    # Stable under the Burnside basis, hence under every element of G.
    img = (carrier.basis @ m.act) % m.p
    # Coordinates in an RREF basis are the entries at its pivot columns.
    act = img[:, :, list(carrier.pivots)]
    return GModule(m.group, act, check=False)


def quotient_module(m: GModule, sub: FpSubspace) -> Tuple[GModule, np.ndarray]:
    """Module on a complement basis of `sub`; returns (module, complement rows)."""
    if not is_stable(m, sub):
        raise ModuleError("quotient by unstable subspace")
    comp = fl.complement_reps(sub.basis, np.eye(m.dim, dtype=np.int64), m.p)
    k = comp.shape[0]
    # Full basis: radical rows then complement rows; coordinates of images.
    full = np.vstack([sub.basis, comp])
    img = (comp @ m.act) % m.p
    coords = fl.solve_left(full, img.reshape(-1, m.dim), m.p)
    if coords is None:
        raise ModuleError("vector outside span")
    act = coords.reshape(m.group.order, k, m.dim)[:, :, sub.dim :]
    return GModule(m.group, act, check=False), comp


# -- conjugation modules -------------------------------------------------------


@dataclass
class ConjugationModule:
    """W as a module over G/N1 via conjugation, with the element/vector bridge.

    The element with vector c in F_p^k is b_1^{c_1} ... b_k^{c_k} for the
    ``basis_elements`` b_i, and the vector is stored as its integer code
    ``fp_linalg.encode(c)``: ``element_of_code`` maps the p^k codes to
    elements of G, and ``code_of_element`` maps the elements of G back to
    codes, with -1 off W.
    """

    module: GModule
    quotient_map: object  # QuotientMap
    w_members: np.ndarray
    basis_elements: List[int]  # independent generators of W, ascending
    code_of_element: np.ndarray  # (|G|,) int64
    element_of_code: np.ndarray  # (p^k,) int64


def module_from_conjugation(g: GroupTable, n1: Subgroup, w: Subgroup) -> ConjugationModule:
    """Realize an elementary abelian normal W as a right G/N1-module.

    Requires W normal, elementary abelian, and centralized by N1 (so the
    quotient action by conjugation is well defined).
    """
    p = g.p
    orders = g.element_orders()
    if np.any(orders[w.members] > p):
        raise ModuleError("W is not elementary abelian")
    if not w.is_normal():
        raise ModuleError("W is not normal")
    # N1 must centralize W (pointwise), so the quotient action is well defined.
    x = n1.members[:, None]
    if np.any(g.mul[g.mul[g.inv[x], w.members[None, :]], x] != w.members):
        raise ModuleError("N1 does not centralize W")
    # Greedy least-index basis of W: each b_i is the least element outside the
    # span of the ones before it.  The span is kept as the element array of
    # b_1^{c_1} ... b_k^{c_k} in code order (c_k the most significant digit).
    # While the basis commutes, the span is a subgroup and span * <b> has p
    # times its elements; a b that does not commute shows W is not abelian.
    basis_elements: List[int] = []
    element_of_code = np.zeros(1, dtype=np.int64)
    inside = np.zeros(g.order, dtype=bool)
    inside[0] = True
    while element_of_code.size < w.order:
        b = int(w.members[np.argmin(inside[w.members])])
        if np.any(g.mul[b, basis_elements] != g.mul[basis_elements, b]):
            raise ModuleError("W is not elementary abelian")
        basis_elements.append(b)
        powers = np.array([g.power(b, c) for c in range(p)], dtype=np.int64)
        element_of_code = g.mul[element_of_code[None, :], powers[:, None]].ravel()
        inside[element_of_code] = True
    k = len(basis_elements)
    vecs = fl.vector_codes(k, p)
    if distinct_elements(g, element_of_code).size != element_of_code.size:
        raise ModuleError("W basis is not independent")
    if element_of_code.size != w.order:
        raise ModuleError("W basis does not span W")
    code_of_element = np.full(g.order, -1, dtype=np.int64)
    code_of_element[element_of_code] = np.arange(p**k)

    qt, qm = quotient(g, n1)
    r = qm.section[:, None]
    images = code_of_element[g.mul[g.mul[g.inv[r], basis_elements], r]]  # b_i^r
    if np.any(images < 0):
        raise ModuleError("conjugation leaves W")
    module = GModule(qt, vecs[images], check=False, name="conj")
    module._validate()
    return ConjugationModule(module, qm, w.members.copy(), basis_elements, code_of_element, element_of_code)


# -- the free bimodule prod^n F_p(G) -----------------------------------------


class FreeBimodule:
    """prod^n F_p(G): coordinate l*|G| + g is group element g of copy l.

    A group element acts on either side by permuting coordinates, so G acts
    only through column gathers (``element_gather``): no permutation matrix
    of the module is built.  ``mul_block``, ``copies`` and ``copy_gather``
    are the only code that knows this layout and the product formula; every
    other matrix or gather on the free module is written through them,
    except the embedding matrix of ``embed_into_free``, whose columns follow
    the coordinate rule above.
    """

    def __init__(self, group: GroupTable, n: int):
        if n < 1:
            raise ModuleError("n >= 1 required")
        self.group = group
        self.p = group.p
        self.n = n
        self.block = group.order
        self.dim = n * group.order

    def mul_block(self, y: np.ndarray, side: str = "right") -> np.ndarray:
        """The |G| x |G| matrix of x -> x*y (side 'right') or x -> y*x
        (side 'left') on one copy, y a group algebra vector; a stack of
        vectors y gives a stack of matrices.  The last axis must have length
        |G|: a vector of the n-fold module is not one group algebra element."""
        y = fl.as_residues(y, self.p)
        if y.shape[-1:] != (self.block,):
            raise ModuleError(f"a group algebra vector has length {self.block}, got shape {y.shape}")
        g = self.group
        if side == "right":
            return y.take(g.mul[g.inv], axis=-1)  # B[a, k] = y[a^-1 k]
        if side == "left":
            return y.take(g.mul[:, g.inv].T, axis=-1)  # B[a, k] = y[k a^-1]
        raise ModuleError("side must be 'right' or 'left'")

    def copies(self, block: np.ndarray) -> np.ndarray:
        """The (r x c) block once per copy on the diagonal, (n*r) x (n*c),
        i.e. np.kron(I_n, block); leading axes index a stack of blocks."""
        *lead, r, c = np.shape(block)
        # Filled copy by copy: np.kron costs ~25 us a call on these sizes.
        out = np.zeros((*lead, self.n, r, self.n, c), dtype=np.int64)
        for l in range(self.n):
            out[..., l, :, l, :] = block
        return out.reshape(*lead, self.n * r, self.n * c)

    def copy_gather(self, idx: np.ndarray) -> np.ndarray:
        """The gather of the whole module that applies the gather ``idx`` of
        one copy (last axis |G|) in every copy; leading axes index a stack."""
        idx = np.asarray(idx)
        out = np.arange(0, self.dim, self.block)[:, None] + idx[..., None, :]
        return out.reshape(*idx.shape[:-1], self.dim)

    def element_gather(self, h, side: str = "right") -> np.ndarray:
        """The index array idx with x*h == x[:, idx] (side 'right') or
        h*x == x[:, idx] (side 'left'): x*h has entry x[k h^-1] at k, and
        h*x has x[h^-1 k], in each copy.  An array of elements h gives one
        row per element."""
        g, inv_h = self.group, self.group.inv[np.asarray(h, dtype=np.int64)]
        if side == "right":
            idx = g.mul.T[inv_h]
        elif side == "left":
            idx = g.mul[inv_h]
        else:
            raise ModuleError("side must be 'right' or 'left'")
        return self.copy_gather(idx)

    def restrict(self, carrier: FpSubspace, side: str = "right") -> GModule:
        """The action x -> x*h (side 'right'), or x -> h*x over the opposite
        table (side 'left'), on a stable carrier, in coordinates of
        ``carrier.basis``."""
        if not is_free_submodule(self, carrier, side):
            raise ModuleError("carrier not stable under the action")
        # Coordinates in an RREF basis are the entries at its pivot columns,
        # so act[h][i, j] = basis[i, idx_h[pivot j]]; one gather for all of G.
        idx = self.element_gather(np.arange(self.block), side)[:, list(carrier.pivots)]
        grp = self.group if side == "right" else opposite(self.group)
        return GModule(grp, np.moveaxis(carrier.basis[:, idx], 1, 0), check=False)

    def radical(self) -> FpSubspace:
        """J_G of the module, on either side: the span of the x(g - 1), or of
        the (g - 1)x, is the augmentation ideal in every copy, the vectors
        whose copies each sum to zero."""
        sums = self.socle_basis().T  # x @ sums: the sum of each copy of x
        return FpSubspace.from_rows(fl.left_kernel_basis(sums, self.p), self.p, self.dim)

    def socle_basis(self) -> np.ndarray:
        """One all-ones vector per copy: the fixed points of either action."""
        return self.copies(np.ones((1, self.block), dtype=np.int64))

    def algebra_product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Componentwise product x*y of tuple vectors; x may be a stack of
        rows, and so may y, which then gives out[j] = x * y[j]."""
        x = fl.as_residues(x, self.p)
        y = np.asarray(y)
        xs = x.reshape(-1, self.n, self.block)
        ys = self.mul_block(y.reshape(-1, self.n, self.block), "right")
        # One product per copy: (rows of x) @ (blocks of y) -> (y, x, copy, g).
        out = np.stack([fl.matmul_mod(xs[:, l], ys[:, l], self.p) for l in range(self.n)], axis=-2)
        return out.reshape(y.shape[:-1] + x.shape)


def _free_actions(fb: FreeBimodule, side: str) -> List[np.ndarray]:
    """The generators' actions on one side or both, as column gathers."""
    gens = fb.group.burnside_basis()
    sides = ("right", "left") if side == "both" else (side,)
    return [fb.element_gather(g, s) for s in sides for g in gens]


def free_submodule_closure(fb: FreeBimodule, vectors: np.ndarray, side: str) -> FpSubspace:
    """Least one-sided (or two-sided) submodule containing the vectors."""
    return _closure(fb.p, np.atleast_2d(vectors).reshape(-1, fb.dim), _free_actions(fb, side))


def is_free_submodule(fb: FreeBimodule, carrier: FpSubspace, side: str) -> bool:
    return _is_stable_under(carrier, _free_actions(fb, side))


def annihilator(fb: FreeBimodule, q: FpSubspace, side: str) -> FpSubspace:
    """Pairing-orthogonal annihilator.

    side='left_of_right': L(Q) = {x : x . y = 0 for all y in Q} for a right
    submodule Q; side='right_of_left' symmetrically.  For one-sided
    submodules the Delta-pairing orthogonal complement equals the honest
    product-zero annihilator; `annihilator_by_products` is the
    definition-level cross-check.
    """
    if side not in ("left_of_right", "right_of_left"):
        raise ModuleError("side must be left_of_right or right_of_left")
    want = "right" if side == "left_of_right" else "left"
    if not is_free_submodule(fb, q, want):
        raise ModuleError(f"carrier is not a {want} submodule")
    # <x, y> = Delta(sum_l x_l y_l) pairs e_a with e_b exactly when b = a^-1,
    # in each copy: <x, y> = x . y[pair].  The pairing is symmetric, so on
    # either side the annihilator is the left kernel of the columns y[pair].
    pair = fb.copy_gather(fb.group.inv)
    rows = fl.left_kernel_basis(np.ascontiguousarray(q.basis[:, pair].T), fb.p)
    return FpSubspace.from_rows(rows, fb.p, fb.dim)


def annihilator_by_products(fb: FreeBimodule, q: FpSubspace, side: str) -> FpSubspace:
    """Definition-level annihilator: full dot product zero in the algebra."""
    blocks = []
    g = fb.group
    for y in q.basis:
        yb = y.reshape(fb.n, fb.block)
        if side == "left_of_right":
            # x . y as a function of x: block l contributes x_l * y_l.
            cols = np.vstack([yb[l][g.mul[g.inv][:, :]] for l in range(fb.n)])
        else:
            cols = np.vstack([yb[l][g.mul[:, g.inv].T] for l in range(fb.n)])
        blocks.append(cols)
    if not blocks:
        return FpSubspace.full(fb.dim, fb.p)
    m = np.hstack(blocks)
    rows = fl.left_kernel_basis(m, fb.p)
    return FpSubspace.from_rows(rows, fb.p, fb.dim)


def tuple_product_matrix(fb: FreeBimodule, xs: Sequence[np.ndarray], side: str) -> np.ndarray:
    """The matrix of (y_1..y_s) -> sum_i (y_i,..,y_i) x_i, prod^s F_p(G) ->
    prod^n F_p(G), acting on row vectors.

    The product is the componentwise algebra product: copy l of the image is
    sum_i y_i x_{i,l} (side 'left') or sum_i x_{i,l} y_i (side 'right').
    """
    # Side 'left' puts y on the left, so x_{i,l} multiplies from the right.
    acting = "right" if side == "left" else "left"
    blocks = [fb.mul_block(np.reshape(x, (fb.n, fb.block)), acting) for x in xs]
    return np.vstack([np.hstack(list(b)) for b in blocks])


# -- embedding into the free module ------------------------------------------


@dataclass
class FreeEmbedding:
    free: FreeBimodule
    matrix: np.ndarray  # dim(m) x free.dim, v -> v @ matrix
    injective: bool


def embed_into_free(m: GModule) -> FreeEmbedding:
    """Equivariant injection of m into prod^n F_p(G) carrying m^G onto the socle.

    Frobenius reciprocity: a map v -> sum_h f(v h^-1) e_h into F_p(G) is
    equivariant for every linear form f, and it sends a fixed vector w to
    f(w) times the all-ones vector.  So forms with w_i . f_l = delta_il on
    the fixed basis w_i give copy l of the embedding.  Its kernel is a
    submodule meeting m^G trivially, hence zero for a p-group; the rank
    check reports it all the same.
    """
    fixed = fixed_points(m)
    n = fixed.dim
    if n < 1:
        raise ModuleError("module has no fixed points")
    fb = FreeBimodule(m.group, n)
    p = m.p
    forms = fl.solve_array(fixed.basis, np.eye(n, dtype=np.int64), p)  # d x n
    # cols[h, i, l] = (act[h^-1] @ forms)[i, l] is coordinate l*|G| + h of row i.
    cols = (m.act[m.group.inv] @ forms) % p
    P = cols.transpose(1, 2, 0).reshape(m.dim, fb.dim)
    return FreeEmbedding(fb, P, injective=fl.rank_array(P, p) == m.dim)


# -- sampling ------------------------------------------------------------------


def random_right_submodule(
    fb: FreeBimodule, rng: np.random.Generator, extra_vectors: int = 2
) -> FpSubspace:
    seeds = rng.integers(0, fb.p, size=(extra_vectors, fb.dim))
    return free_submodule_closure(fb, np.vstack([fb.socle_basis(), seeds]), "right")
