"""Finite p-groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Groups built from a
power-commutator presentation enumerate normal words g1^e1...gn^en in
lexicographic order of the exponent tuple, so the element index is the
base-p integer with e1 the most significant digit.

Tables are built and checked with array passes rather than per-element
loops: a presentation's table grows from its tail subgroups
<g_k, ..., g_n> upwards, and associativity is tested on a generating set
only (Light's test), which is exact at every order.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fp_linalg import check_prime, right_kernel_basis, vector_codes
from .presentations import PcPresentation

DEFAULT_ORDER_CAP = 1024


class GroupError(ValueError):
    pass


class InconsistentPresentation(GroupError):
    pass


_MISS = object()


def memo(fn: Callable) -> Callable:
    """Cache ``fn(obj, *args)`` in ``obj._cache`` under ``(fn.__name__, *args)``.

    The one cache policy for data derived from an immutable table or module.
    Keyword arguments and omitted defaults are bound to their positions
    first, so every spelling of one call shares one entry.  A cached None is
    a hit like any other value.  A hit returns the cached object itself, so
    cached values are read-only: a sequence is cached as a tuple, the arrays
    of a table, a module, an extension or a transfer pair refuse writes, and
    any other value is read-only by convention.  An entry lives as long as
    the object it is cached on.
    """
    sig = inspect.signature(fn)
    arity = len(sig.parameters)

    @functools.wraps(fn)
    def cached(obj, *args, **kwargs):
        if kwargs or len(args) + 1 < arity:
            bound = sig.bind(obj, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn.__name__, *args)
        val = obj._cache.get(key, _MISS)
        if val is _MISS:
            val = obj._cache[key] = fn(obj, *args)
        return val

    return cached


def _p_power_exponent(order: int, p: int) -> int:
    k = 0
    n = order
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise GroupError(f"order {order} is not a power of {p}")
    return k


class GroupTable:
    """Immutable multiplication-table group."""

    def __init__(
        self,
        p: int,
        mul: np.ndarray,
        name: str = "",
        check: bool = True,
        order_cap: int = DEFAULT_ORDER_CAP,
    ):
        self.p = check_prime(p)
        mul = np.asarray(mul, dtype=np.int64)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise GroupError("square multiplication table expected")
        if n > order_cap:
            raise GroupError(f"order cap: {n} > {order_cap}")
        self.order = n
        self.k = _p_power_exponent(n, self.p)
        self.mul = mul
        self.mul.setflags(write=False)
        self.name = name
        self._cache: Dict[tuple, object] = {}  # filled by @memo
        if check:
            self._validate()
        inv = np.empty(n, dtype=np.int64)
        hits = np.argwhere(mul == 0)
        if hits.shape[0] != n:
            raise GroupError("inverse structure broken (multiple/missing zeros per row)")
        inv[hits[:, 0]] = hits[:, 1]
        self.inv = inv
        self.inv.setflags(write=False)
        if check:
            if np.any(self.mul[self.inv, np.arange(n)] != 0):
                raise GroupError("inv is not a two-sided inverse")

    # -- validation -------------------------------------------------------

    def _validate(self):
        n = self.order
        mul = self.mul
        if np.any(mul < 0) or np.any(mul >= n):
            raise GroupError("table entries out of range")
        if not (np.array_equal(mul[0], np.arange(n)) and np.array_equal(mul[:, 0], np.arange(n))):
            raise GroupError("index 0 is not a two-sided identity")
        # Rows and columns must be permutations.
        sorted_rows = np.sort(mul, axis=1)
        sorted_cols = np.sort(mul, axis=0)
        if np.any(sorted_rows != np.arange(n)) or np.any(sorted_cols != np.arange(n)[:, None]):
            raise GroupError("table rows/columns are not permutations")
        self.verify_associativity()

    def verify_associativity(self) -> None:
        """Raise GroupError unless the table is associative (exact).

        Light's test (Clifford & Preston, The Algebraic Theory of
        Semigroups I, 1961): the left nucleus {a : (ax)y = a(xy) for all
        x, y} is closed under products, so it is the whole table once it
        holds a set that generates the table by products.  The set is
        chosen greedily: the least element a not yet reached, after which
        every reached x adds x a^k for every power a^k.  Each reached
        element is a product of chosen ones, so reaching less than their
        whole product closure only chooses more.  Then each chosen element
        is tested, a block of them at a time.  Needs 0 to be a two-sided
        identity and the rows and columns to be permutations.
        """
        n, mul = self.order, self.mul
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        chosen: List[int] = []
        while not reached.all():
            a = int(np.argmin(reached))
            chosen.append(a)
            powers, y = [0], a
            while y != 0:  # the cycle of 1 under right multiplication by a
                powers.append(y)
                y = int(mul[y, a])
            reached[mul[np.flatnonzero(reached)[:, None], powers]] = True
        step = max(1, (1 << 16) // (n * n))
        for lo in range(0, len(chosen), step):
            block = chosen[lo : lo + step]
            bad = (mul[mul[block]] != mul[block][:, mul]).any(axis=(1, 2))
            if bad.any():
                raise GroupError(f"associativity fails at a={block[int(np.argmax(bad))]}")

    # -- basics ------------------------------------------------------------

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        m, inv = self.mul, self.inv
        return int(m[m[m[inv[x], inv[y]], x], y])

    def power(self, x: int, e: int) -> int:
        e = int(e)
        if e < 0:
            x, e = int(self.inv[x]), -e
        r = 0
        b = x
        while e:
            if e & 1:
                r = int(self.mul[r, b])
            b = int(self.mul[b, b])
            e >>= 1
        return r

    def element_order(self, x: int) -> int:
        o = 1
        y = x
        while y != 0:
            y = int(self.mul[y, x])
            o += 1
        return o

    @property
    @memo
    def pow_p_table(self) -> np.ndarray:
        idx = np.arange(self.order)
        cur = idx.copy()
        for _ in range(self.p - 1):
            cur = self.mul[cur, idx]
        return cur

    @memo
    def element_orders(self) -> np.ndarray:
        return _orders_modulo(self, np.arange(self.order) == 0)

    @memo
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @memo
    def burnside_basis(self) -> Tuple[int, ...]:
        """A minimal generating sequence (deterministic): each element is the
        least one outside the subgroup that Phi(G) and the ones before it
        generate.  By Burnside's basis theorem it generates G and has
        d(G) = log_p |G : Phi(G)| elements."""
        gens = []
        # G/Phi(G) is elementary abelian, so each step is central of order p
        bits = frattini(self).bitmap
        while not bits.all():
            gens.append(int(np.argmin(bits)))
            bits = _adjoin(self, np.flatnonzero(bits), gens[-1])
        return tuple(gens)

    @memo
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"{self.p}:{self.order}:".encode())
        digest.update(np.ascontiguousarray(self.mul, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def __repr__(self):
        nm = self.name or "group"
        return f"<{nm}: order {self.order}, p={self.p}>"


def _orders_modulo(g: GroupTable, inside: np.ndarray) -> np.ndarray:
    """For every x, the least p^k with x^(p^k) in the subgroup whose bitmap
    is ``inside``: the order of x, or of its coset in an abelian quotient."""
    orders = np.ones(g.order, dtype=np.int64)
    cur = np.arange(g.order)
    live = ~inside
    while live.any():
        orders[live] *= g.p
        cur = g.pow_p_table[cur]
        live = ~inside[cur]
    return orders


@memo
def opposite(g: GroupTable) -> GroupTable:
    return GroupTable(g.p, np.ascontiguousarray(g.mul.T), name=f"{g.name}^op", check=False, order_cap=g.order)


def direct_product_tables(a: GroupTable, b: GroupTable) -> GroupTable:
    if a.p != b.p:
        raise GroupError("direct product requires matching p")
    na, nb = a.order, b.order
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    mul = (a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]).astype(np.int64)
    return GroupTable(a.p, mul, name=f"{a.name}x{b.name}", check=False)


# -- construction from presentations ---------------------------------------


def _right_mul(right_by_gen: np.ndarray, x, letters: Iterable[int]):
    """x times the word ``letters``, one generator at a time; x may be an
    array.  Row k-1 of ``right_by_gen`` is right multiplication by g_k."""
    for k in letters:
        x = right_by_gen[k - 1, x]
    return x


def _times_normal_words(right_by_gen: np.ndarray, start, factors: Sequence[Sequence[int]], p: int):
    """start * z_1^e_1 * ... * z_r^e_r for every exponent tuple, as a new last
    axis indexed by the tuple read as a base-p number, e_1 most significant.
    Each z_i is given as a word; with z_i = g_(k+i) the products are start
    times every normal word of <g_(k+1), ..., g_n> in index order."""
    out = np.asarray(start)[..., None]
    for word in factors:
        cols = [out]
        for _ in range(p - 1):
            cols.append(_right_mul(right_by_gen, cols[-1], word))
        out = np.stack(cols, axis=-1).reshape(*out.shape[:-1], -1)
    return out


def _letters(idx: int, p: int, ngens: int) -> List[int]:
    """The normal word of an element index as a list of generator letters."""
    letters: List[int] = []
    for i in range(ngens, 0, -1):
        idx, e = divmod(idx, p)
        letters[:0] = [i] * e
    return letters


def from_pc_presentation(
    pres: PcPresentation, order_cap: int = DEFAULT_ORDER_CAP
) -> GroupTable:
    """Build the multiplication table of a consistent pc-presentation.

    Row k of ``right_by_gen`` (x -> x g_k) is filled for k = n, ..., 1 from
    the tail subgroup G_(k+1) = <g_(k+1), ..., g_n>, whose elements are the
    indices below m = p^(n-k) and whose rows are already known.  Write
    x = u v with u = g_1^e_1 ... g_k^e_k and v in G_(k+1); then
    x g_k = u g_k v^(g_k), with v^(g_k) in G_(k+1) the product of the images
    g_j^(g_k) = g_j [g_j, g_k].  When e_k = p - 1 the digit wraps and
    g_k^p v^(g_k) is read off the products g_k^p u for u in G_(k+1).  So
    each row costs array passes over G_(k+1) and index arithmetic, and no
    word is collected.  The table is x times every normal word, one digit
    at a time.

    The result is validated as a group (associativity included) and every
    power and commutator relation, trivial ones too, is evaluated in it.  A
    group of order p^n generated by the g_k that satisfies the relations is
    the presented group, so a consistent presentation gives the table that
    collection gives, and an inconsistent one raises InconsistentPresentation.
    """
    p, n = pres.p, pres.ngens
    order = p**n
    if order > order_cap:
        raise GroupError(f"order cap: {order} > {order_cap}")
    gen = [p ** (n - i) for i in range(n + 1)]  # gen[i] is the index of g_i

    right_by_gen = np.empty((n, order), dtype=np.int64)
    x = np.arange(order)
    for k in range(n, 0, -1):
        m = gen[k]
        images = [
            _letters(int(_right_mul(right_by_gen, gen[j], pres.comm_word(j, k))), p, n)
            for j in range(k + 1, n + 1)
        ]
        conj = _times_normal_words(right_by_gen, 0, images, p)
        g_k_p = _right_mul(right_by_gen, 0, pres.pow_word(k))
        wrap = _times_normal_words(right_by_gen, g_k_p, [[j] for j in range(k + 1, n + 1)], p)
        prefix, tail = np.divmod(x, m)
        tail = conj[tail]
        right_by_gen[k - 1] = np.where(
            prefix % p < p - 1, (prefix + 1) * m + tail, (prefix - (p - 1)) * m + wrap[tail]
        )

    mul = _times_normal_words(right_by_gen, x, [[j] for j in range(1, n + 1)], p)
    try:
        g = GroupTable(p, mul, name=pres.name, order_cap=order_cap)
    except GroupError as e:
        raise InconsistentPresentation(f"inconsistent presentation: {e}") from e

    def value(word: Iterable[int]) -> int:
        return int(_right_mul(right_by_gen, 0, word))

    for i in range(1, n + 1):
        if g.power(gen[i], p) != value(pres.pow_word(i)):
            raise InconsistentPresentation(f"pow relation for g{i} broken")
        for j in range(1, i):
            if g.commutator(gen[i], gen[j]) != value(pres.comm_word(i, j)):
                raise InconsistentPresentation(f"comm relation for ({i},{j}) broken")
    return g


# -- subgroups ---------------------------------------------------------------


class Subgroup:
    """Subset of a GroupTable closed under multiplication and inverse."""

    def __init__(self, parent: GroupTable, members: Sequence[int], check: bool = True):
        self.parent = parent
        idx = np.asarray(members, dtype=np.int64)
        if check and idx.size and (idx.min() < 0 or idx.max() >= parent.order):
            raise GroupError("subgroup members must be element indices")
        self.bitmap = np.zeros(parent.order, dtype=bool)
        self.bitmap[idx] = True
        # flatnonzero returns a view of an (n, 1) buffer; the copy keeps that
        # second array object out of every cached subgroup.
        mem = self.members = np.flatnonzero(self.bitmap).copy()
        self._normal: Optional[bool] = None
        if check:
            if mem.size == 0 or mem[0] != 0:
                raise GroupError("subgroup must contain the identity")
            sub = parent.mul[np.ix_(mem, mem)]
            if not self.bitmap[sub].all() or not self.bitmap[parent.inv[mem]].all():
                raise GroupError("subset not closed under mul/inv")

    @property
    def order(self) -> int:
        return int(self.members.size)

    def contains(self, x: int) -> bool:
        return bool(self.bitmap[x])

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return bool(self.bitmap[other.members].all())

    def is_normal(self) -> bool:
        if self._normal is None:
            g = self.parent
            ok = True
            for gen in g.burnside_basis():
                conj = g.mul[g.mul[g.inv[gen], self.members], gen]
                if not self.bitmap[conj].all():
                    ok = False
                    break
            self._normal = ok
        return self._normal

    def key(self) -> Tuple[int, ...]:
        return tuple(int(m) for m in self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other.members, self.members)
        )

    def __hash__(self):
        return hash((id(self.parent), self.key()))

    def __repr__(self):
        return f"<subgroup of order {self.order} in {self.parent.name or 'G'}>"


def subgroup_closure(g: GroupTable, seeds: Iterable[int]) -> Subgroup:
    """Least subgroup containing the seeds (breadth-first product closure)."""
    bitmap = np.zeros(g.order, dtype=bool)
    bitmap[0] = True
    frontier = sorted({int(s) for s in seeds} | {0})
    for s in frontier:
        bitmap[s] = True
    while True:
        idx = np.nonzero(bitmap)[0]
        prods = g.mul[np.ix_(idx, idx)].ravel()
        before = int(bitmap.sum())
        bitmap[prods] = True
        bitmap[g.inv[idx]] = True
        if int(bitmap.sum()) == before:
            break
    return Subgroup(g, np.nonzero(bitmap)[0], check=False)


def distinct_elements(g: GroupTable, elements) -> np.ndarray:
    """The distinct element indices among ``elements``, ascending: what
    ``np.unique`` returns, read off a bitmap of g without a sort.  numpy
    2.4's ``np.unique`` also imports numpy.ma (about 13 ms) on first use."""
    seen = np.zeros(g.order, dtype=bool)
    seen[elements] = True
    return np.flatnonzero(seen)


def set_product(g: GroupTable, a: Subgroup, b: Subgroup) -> Subgroup:
    """Product set A*B; a subgroup whenever one factor is normal."""
    return Subgroup(g, g.mul[np.ix_(a.members, b.members)].ravel())


@memo
def center(g: GroupTable) -> Subgroup:
    mask = (g.mul == g.mul.T).all(axis=1)
    return Subgroup(g, np.nonzero(mask)[0], check=False)


def centralizer(g: GroupTable, s: Subgroup | Sequence[int]) -> Subgroup:
    members = s.members if isinstance(s, Subgroup) else np.asarray(sorted(s), dtype=np.int64)
    mask = (g.mul[:, members] == g.mul[members, :].T).all(axis=1)
    return Subgroup(g, np.nonzero(mask)[0], check=False)


def subgroup_center(g: GroupTable, n: Subgroup) -> Subgroup:
    """Z(N) = N ∩ C_G(N)."""
    c = centralizer(g, n)
    return Subgroup(g, n.members[c.bitmap[n.members]], check=False)


def _commutators_with_generators(g: GroupTable) -> np.ndarray:
    """Row i holds [x, s_i] for every x, s_i the i-th element of the
    Burnside basis; shape (d(G), |G|).  For N normal, {y : [x, y] in N} is
    a subgroup, so [x, G] <= N exactly when every row has [x, s_i] in N.

    Not cached: building it costs a few fancy-index passes, while keeping
    it on every catalog table held ~0.4 MiB for the life of the process.
    """
    mul, inv = g.mul, g.inv
    idx = np.arange(g.order)
    rows = [mul[mul[mul[inv, inv[s]], idx], s] for s in g.burnside_basis()]
    return np.stack(rows) if rows else np.zeros((0, g.order), dtype=np.int64)


@memo
def commutator_subgroup(g: GroupTable) -> Subgroup:
    """G' as the subgroup generated by the [x, s] for x in G and s in the
    Burnside basis.

    That subgroup is normal, because [x, s]^y = [xy, s][y, s]^-1, and every
    generator is central modulo it, so it contains every commutator.
    """
    return subgroup_closure(g, distinct_elements(g, _commutators_with_generators(g)))


def omega1(g: GroupTable, n: Subgroup) -> Subgroup:
    orders = g.element_orders()
    elems = n.members[orders[n.members] <= g.p]
    return subgroup_closure(g, elems)


@memo
def frattini(g: GroupTable) -> Subgroup:
    """Phi(G) = G' G^p for a p-group: the subgroup generated by every
    commutator x^-1 y^-1 x y and every p-th power.

    The commutators are marked a block of rows x at a time, so the gathers
    hold about 2^16 entries rather than |G|^2."""
    n = g.order
    seeds = np.zeros(n, dtype=bool)
    step = max(1, (1 << 16) // n)
    for lo in range(0, n, step):
        xs = slice(lo, lo + step)
        seeds[g.mul[g.inv[g.mul[:, xs].T], g.mul[xs]]] = True  # (yx)^-1 xy = x^-1 y^-1 x y
    seeds[g.pow_p_table] = True
    return subgroup_closure(g, np.flatnonzero(seeds))


@dataclass
class ISet:
    """The set {a in A : a^p in Z(G)}; ``is_subgroup`` says whether it is closed."""

    members: np.ndarray
    is_subgroup: bool

    @property
    def size(self) -> int:
        return int(self.members.size)


def iset(g: GroupTable, a: Subgroup) -> ISet:
    z = center(g)
    pw = g.pow_p_table
    members = a.members[z.bitmap[pw[a.members]]]
    sub = g.mul[np.ix_(members, members)]
    bitmap = np.zeros(g.order, dtype=bool)
    bitmap[members] = True
    closed = bool(bitmap[sub].all()) and members.size > 0 and members[0] == 0
    return ISet(members, closed)


def _adjoin(g: GroupTable, members: np.ndarray, x: int) -> np.ndarray:
    """Bitmap of <N, x> = N u Nx u ... u Nx^(p-1), for N normal with x^p in N
    and [x, G] <= N (a central step of order p)."""
    cosets = [members]
    y = x
    for _ in range(g.p - 1):
        cosets.append(g.mul[members, y])
        y = int(g.mul[y, x])
    bits = np.zeros(g.order, dtype=bool)
    bits[np.concatenate(cosets)] = True
    return bits


def normal_subgroups(g: GroupTable, within: Optional[Subgroup] = None) -> Tuple[Subgroup, ...]:
    """All subgroups of `within` that are normal in g, built layer by layer.

    Every normal subgroup of a p-group sits in a chain of normal subgroups
    with factors of order p whose layers are central in the quotient.  So
    each known normal subgroup N is extended by the elements x of `within`
    with x^p in N and [x, G] <= N: the central layer of order p in G/N.
    One candidate is taken per order-p subgroup of that layer: after
    M = <N, x> is built, all of M leaves the candidate mask, because every
    y in M \\ N generates the same M over N.  No order cap is checked: a
    table exists only below the cap it was built under.
    """
    return _normal_subgroups(g, within)


@memo
def _normal_subgroups(g: GroupTable, within: Optional[Subgroup]) -> Tuple[Subgroup, ...]:
    """``normal_subgroups``, cached per ``within`` under a positional key."""
    allowed = np.ones(g.order, dtype=bool) if within is None else within.bitmap
    comm_with_gens = _commutators_with_generators(g)
    pw = g.pow_p_table

    trivial = Subgroup(g, [0], check=False)
    trivial._normal = True
    found: Dict[bytes, Subgroup] = {trivial.bitmap.tobytes(): trivial}
    queue = [trivial]
    while queue:
        nsub = queue.pop()
        nmem, nbits = nsub.members, nsub.bitmap
        mask = allowed & ~nbits & nbits[pw] & nbits[comm_with_gens].all(axis=0)
        for x in np.flatnonzero(mask):
            if not mask[x]:
                continue
            bits = _adjoin(g, nmem, int(x))
            mask &= ~bits
            key = bits.tobytes()
            if key not in found:
                new = Subgroup(g, np.flatnonzero(bits), check=False)
                new._normal = True
                found[key] = new
                queue.append(new)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.key())))


def normals_between(
    g: GroupTable,
    lower: Optional[Subgroup] = None,
    upper: Optional[Subgroup] = None,
    order: Optional[int] = None,
    within: Optional[Subgroup] = None,
) -> List[Subgroup]:
    """The normal subgroups N of g inside `within` with lower <= N <= upper
    and |N| = order, each bound applied only where it is given, in the
    (order, key) order of ``normal_subgroups(g, within=within)``.

    The lattice members whose order fits the bounds are stacked as bitmap
    rows on each call, not cached: row N contains lower when
    ``bitmaps[N, lower.members]`` all hold, and lies in upper when it has
    no bit outside ``upper.bitmap``.
    """
    lo = 1 if lower is None else lower.order
    hi = g.order if upper is None else upper.order
    normals = [
        n for n in normal_subgroups(g, within=within)
        if lo <= n.order <= hi and (order is None or n.order == order)
    ]
    if not normals or (lower is None and upper is None):
        return normals
    bitmaps = np.stack([n.bitmap for n in normals])
    keep = np.ones(len(normals), dtype=bool)
    if lower is not None:
        keep &= bitmaps[:, lower.members].all(axis=1)
    if upper is not None:
        keep &= ~(bitmaps & ~upper.bitmap).any(axis=1)
    return [normals[i] for i in np.flatnonzero(keep)]


def phi_layers(g: GroupTable) -> Iterator[Tuple[Subgroup, Subgroup]]:
    """(N, W) for every normal N != 1 inside Phi(G), in lattice order, with
    W = Omega_1(Z(N)).  W != 1: a normal N != 1 of a p-group meets Z(G),
    and N ∩ Z(G) <= Z(N).  Only the lattice inside Phi(G) is built."""
    for n in normal_subgroups(g, within=frattini(g))[1:]:
        yield n, omega1(g, subgroup_center(g, n))


@memo
def maximal_subgroups(g: GroupTable) -> Tuple[Subgroup, ...]:
    """Index-p (maximal) subgroups, sorted by ``key()``; normal because the
    group is a p-group.

    Each contains Phi(G), so they are the preimages of the hyperplanes of
    G/Phi(G) = F_p^d, written in the Burnside basis b_1..b_d: one hyperplane
    per functional whose first nonzero coefficient is 1.  Each is built as
    Phi(G) with the lifts prod b_i^(v_i) of a basis v of its hyperplane
    adjoined one at a time, every step central of order p.
    """
    basis = g.burnside_basis()
    phi = frattini(g).members
    out = []
    for functional in vector_codes(len(basis), g.p):
        nonzero = np.flatnonzero(functional)
        if not nonzero.size or functional[nonzero[0]] != 1:
            continue
        members = phi
        for v in right_kernel_basis(functional[None], g.p):
            x = 0
            for b, c in zip(basis, v):
                x = int(g.mul[x, g.power(b, c)])
            members = np.flatnonzero(_adjoin(g, members, x))
        m = Subgroup(g, members, check=False)
        m._normal = True
        out.append(m)
    return tuple(sorted(out, key=Subgroup.key))


def elementary_abelian_normals(g: GroupTable) -> List[Subgroup]:
    """The nontrivial normal subgroups that are elementary abelian."""
    orders = g.element_orders()
    out = []
    for n in normal_subgroups(g):
        if n.order > 1 and bool((orders[n.members] <= g.p).all()):
            sub = g.mul[np.ix_(n.members, n.members)]
            if np.array_equal(sub, sub.T):
                out.append(n)
    return out


def is_cyclic_quotient(g: GroupTable, top: Subgroup, bottom: Subgroup) -> bool:
    """Is top/bottom cyclic?  bottom must be normal in top."""
    m = top.order // bottom.order
    for x in top.members:
        k = 1
        y = int(x)
        while not bottom.contains(y):
            y = int(g.mul[y, int(x)])
            k += 1
        if k == m:
            return True
    return m == 1


# -- quotients and maps ------------------------------------------------------


@dataclass
class QuotientMap:
    source: GroupTable
    group: GroupTable  # the quotient
    kernel: Subgroup
    image_of: np.ndarray  # source element -> quotient element
    section: np.ndarray  # quotient element -> least source element in the coset


def quotient(g: GroupTable, n: Subgroup) -> Tuple[GroupTable, QuotientMap]:
    """G/N as a table: quotient element i is the coset of ``section[i]``, the
    i-th least of the least coset elements.  Row x of ``g.mul[:, N]`` is the
    coset xN, so one ``min`` finds every coset's least element, and a sorted
    search numbers the cosets in that order.

    When G has Phi(G) memoised, G/N gets Phi(G)N/N as its own memoised
    Phi, read through the coset ids.  That is exact for a p-group: the
    projection maps the commutators and p-th powers of G onto those of G/N,
    so it maps Phi(G) = G'G^p onto Phi(G/N)."""
    if not n.is_normal():
        raise GroupError("not normal")
    least = g.mul[:, n.members].min(axis=1)
    reps = distinct_elements(g, least)
    coset_id = np.searchsorted(reps, least)
    qmul = coset_id[g.mul[np.ix_(reps, reps)]]
    # G/N is no larger than G, which exists under its own cap.
    qt = GroupTable(g.p, qmul, name=f"{g.name}/N", check=False, order_cap=g.order)
    qt.verify_associativity()
    phi = g._cache.get(("frattini",))  # the key @memo gives frattini(g)
    if phi is not None:
        qt._cache[("frattini",)] = Subgroup(qt, coset_id[phi.members], check=False)
    return qt, QuotientMap(g, qt, n, coset_id, reps)


class GroupMap:
    """Map between group tables given by an image table; verified homomorphism."""

    def __init__(self, source: GroupTable, target: GroupTable, image_of, check: bool = True):
        self.source = source
        self.target = target
        self.image_of = np.asarray(image_of, dtype=np.int64)
        if self.image_of.shape != (source.order,):
            raise GroupError("image table has wrong length")
        if check and not self.is_homomorphism():
            raise GroupError("not a homomorphism")

    def is_homomorphism(self) -> bool:
        """f(xy) = f(x)f(y) on all |G|^2 pairs, and f(1) = 1: the definition."""
        im = self.image_of
        lhs = im[self.source.mul]
        rhs = self.target.mul[np.ix_(im, im)]
        return bool(np.array_equal(lhs, rhs)) and im[0] == 0

    def is_homomorphism_on(self, gens: Sequence[int]) -> bool:
        """f(xs) = f(x)f(s) for every x and every s in ``gens``, and f(1) = 1.

        Exact when ``gens`` generates the source: every y is a word
        s_1 ... s_k in the generators (inverses are positive powers in a
        finite group), and induction on k gives f(xy) = f(x)f(s_1)...f(s_k)
        for every x; at x = 1 that is f(y) = f(s_1)...f(s_k), so
        f(xy) = f(x)f(y).  With a generator s, f(s) = f(1)f(s) forces
        f(1) = 1 as well; the explicit test covers the trivial group."""
        im, s = self.image_of, np.asarray(gens, dtype=np.int64)
        lhs = im[self.source.mul[:, s]]
        rhs = self.target.mul[im[:, None], im[s]]
        return bool(np.array_equal(lhs, rhs)) and im[0] == 0

    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and distinct_elements(self.target, self.image_of).size == self.source.order
        )

    def is_automorphism(self) -> bool:
        return self.source is self.target and self.is_bijective()

    def __call__(self, x: int) -> int:
        return int(self.image_of[x])


def map_order(f: GroupMap) -> int:
    if not f.is_automorphism():
        raise GroupError("not automorphism")
    ident = np.arange(f.source.order)
    cur = f.image_of
    k = 1
    while not np.array_equal(cur, ident):
        cur = f.image_of[cur]
        k += 1
        if k > f.source.order * f.source.order:
            raise GroupError("map order runaway")
    return k


def is_inner(g: GroupTable, f: GroupMap) -> Optional[int]:
    """The least h with f = conjugation by h, or None.

    Conjugation by h depends only on the coset hZ(g), so only the least
    element of each coset is tried: one gather builds every such
    representative's whole conjugation table, and one comparison matches
    them all against the image table."""
    if not f.is_automorphism():
        raise GroupError("not automorphism")
    z = center(g)
    reps = np.flatnonzero(g.mul[:, z.members].min(axis=1) == np.arange(g.order))
    conj = g.mul[g.mul[g.inv[reps]], reps[:, None]]
    hits = np.flatnonzero((conj == f.image_of).all(axis=1))
    return int(reps[hits[0]]) if hits.size else None


# -- isomorphism testing -----------------------------------------------------


def _element_signature(g: GroupTable) -> np.ndarray:
    """Per-element invariant vector used to prune isomorphism search."""
    orders = g.element_orders()
    cent_sizes = (g.mul == g.mul.T).sum(axis=1)
    pw = g.pow_p_table
    pow_order = orders[pw]
    return np.stack([orders, cent_sizes, pow_order], axis=1)


def _group_invariants(g: GroupTable) -> tuple:
    orders = g.element_orders()
    hist = tuple(sorted(np.bincount(orders)[1:].tolist()))
    return (
        g.order,
        g.p,
        bool(g.is_abelian()),
        center(g).order,
        commutator_subgroup(g).order,
        frattini(g).order,
        hist,
    )


def _partial_hom_image(
    g1: GroupTable, g2: GroupTable, gens_sub: Sequence[int], images_sub: Sequence[int]
) -> Optional[np.ndarray]:
    """Map on <gens_sub> induced by generator images, or None on conflict.

    Returns an array phi with phi[x] = image for x in the subgroup and -1
    outside; injectivity and the homomorphism property are verified on the
    subgroup, so every prefix of a backtracking assignment is pruned early.
    """
    phi = -np.ones(g1.order, dtype=np.int64)
    phi[0] = 0
    members = [0]
    frontier = [0]
    used = np.zeros(g2.order, dtype=bool)
    used[0] = True
    while frontier:
        nxt = []
        for x in frontier:
            for s, im in zip(gens_sub, images_sub):
                y = int(g1.mul[x, s])
                fy = int(g2.mul[phi[x], im])
                if phi[y] < 0:
                    if used[fy]:
                        return None
                    phi[y] = fy
                    used[fy] = True
                    members.append(y)
                    nxt.append(y)
                elif phi[y] != fy:
                    return None
        frontier = nxt
    mem = np.array(members, dtype=np.int64)
    sub1 = g1.mul[np.ix_(mem, mem)]
    if np.any(phi[sub1] < 0):
        return None
    if not np.array_equal(phi[sub1], g2.mul[np.ix_(phi[mem], phi[mem])]):
        return None
    return phi


def abelian_cyclic_basis(g: GroupTable) -> List[int]:
    """Elements generating a direct decomposition into cyclic factors,
    ordered by descending factor order (abelian groups only).

    Each step takes the least x whose coset x*span has the largest order
    p^k in G/span, then the first x*s (s in span, ascending) of order p^k;
    its powers are a complement of span in <span, x>.
    """
    if not g.is_abelian():
        raise GroupError("abelian group expected")
    orders = g.element_orders()
    basis: List[int] = []
    span = np.zeros(g.order, dtype=bool)
    span[0] = True
    while not span.all():
        coset_order = _orders_modulo(g, span)
        x = int(np.argmax(coset_order))
        order = int(coset_order[x])
        members = np.flatnonzero(span)
        cand = g.mul[x, members]
        pure = np.flatnonzero(orders[cand] == order)
        if pure.size == 0:
            raise GroupError("no pure representative found (not abelian?)")
        rep = int(cand[pure[0]])
        basis.append(rep)
        y = 0
        for _ in range(order):
            span[g.mul[members, y]] = True
            y = int(g.mul[y, rep])
    basis.sort(key=lambda b: -orders[b])
    return basis


def _abelian_isomorphism(g1: GroupTable, g2: GroupTable) -> Optional[np.ndarray]:
    """Match the normal words b_1^e_1 ... b_r^e_r of the two cyclic bases."""
    b1 = abelian_cyclic_basis(g1)
    b2 = abelian_cyclic_basis(g2)
    o1 = g1.element_orders()[b1].tolist()
    if o1 != g2.element_orders()[b2].tolist():
        return None

    def words(g: GroupTable, basis: List[int]) -> np.ndarray:
        out = np.zeros(1, dtype=np.int64)
        for b, o in zip(basis, o1):
            powers = np.zeros(o, dtype=np.int64)
            for e in range(1, o):
                powers[e] = g.mul[powers[e - 1], b]
            out = g.mul[out[:, None], powers[None, :]].ravel()
        return out

    phi = -np.ones(g1.order, dtype=np.int64)
    phi[words(g1, b1)] = words(g2, b2)
    if np.any(phi < 0) or distinct_elements(g2, phi).size != g1.order:
        return None
    return phi


@memo
def _greedy_generators(g: GroupTable) -> Tuple[int, ...]:
    """Each element is the least one outside the subgroup the ones before it
    generate; on a table built from a pc-presentation these are the pc
    generators, more than d(G) of them.

    Only the isomorphism search takes this sequence rather than the Burnside
    basis: the candidate order fixes which isomorphism or automorphism the
    brute-force search meets first, and the extra early generators prune
    the search (with the Burnside basis, ``scripts/generate_data.py`` made
    about twice as many ``_partial_hom_image`` calls).
    """
    gens = []
    cur = subgroup_closure(g, [0])
    while cur.order < g.order:
        gens.append(int(np.argmin(cur.bitmap)))  # least element outside
        cur = subgroup_closure(g, gens)
    return tuple(gens)


def iter_isomorphisms(g1: GroupTable, g2: GroupTable) -> Iterator[np.ndarray]:
    """Every isomorphism g1 -> g2, by backtracking on generator images.

    The generators are ``_greedy_generators(g1)``, in that order.  Candidate
    images of each are the g2 elements with its element signature, in
    ascending index order; a prefix of images is pruned as soon as the map
    it induces on the generated subgroup fails.  Groups whose signature
    multisets differ yield nothing without a search.
    """
    n = g1.order
    gens = _greedy_generators(g1)
    sig1 = _element_signature(g1)
    sig2 = _element_signature(g2)
    if sorted(map(tuple, sig1.tolist())) != sorted(map(tuple, sig2.tolist())):
        return iter(())
    sig2_index: Dict[tuple, List[int]] = {}
    for x in range(g2.order):
        sig2_index.setdefault(tuple(sig2[x]), []).append(x)

    def backtrack(pos: int, images: List[int]) -> Iterator[np.ndarray]:
        if pos == len(gens):
            phi = _partial_hom_image(g1, g2, gens, images)
            if phi is not None and np.all(phi >= 0) and distinct_elements(g2, phi).size == n:
                yield phi
            return
        for cand in sig2_index.get(tuple(sig1[gens[pos]]), []):
            images.append(cand)
            if _partial_hom_image(g1, g2, gens[: pos + 1], images) is not None:
                yield from backtrack(pos + 1, images)
            images.pop()

    return backtrack(0, [])


def find_isomorphism(g1: GroupTable, g2: GroupTable) -> Optional[np.ndarray]:
    """An isomorphism g1 -> g2 as an image table; None if not isomorphic."""
    if _group_invariants(g1) != _group_invariants(g2):
        return None
    if g1.is_abelian() and g2.is_abelian():
        # ``iter_isomorphisms`` would find one too, but the catalog's
        # deduplication compares many abelian groups with equal invariants,
        # and backtracking over their every-pc-generator sequences made
        # ``catalog._dedupe`` take 95 s instead of 1.2 s on a 2-vCPU host
        # (1.59M ``_partial_hom_image`` calls instead of 850).
        return _abelian_isomorphism(g1, g2)
    return next(iter_isomorphisms(g1, g2), None)


def is_isomorphic(g1: GroupTable, g2: GroupTable) -> bool:
    return find_isomorphism(g1, g2) is not None
