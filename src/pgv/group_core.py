"""Finite p-groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Groups built from a
power-commutator presentation enumerate normal words g1^e1...gn^en in
lexicographic order of the exponent tuple, so the element index is the
base-p integer with e1 the most significant digit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fp_linalg import check_prime
from .presentations import PcPresentation

DEFAULT_ORDER_CAP = 1024
FULL_ASSOC_LIMIT = 512


class GroupError(ValueError):
    pass


class InconsistentPresentation(GroupError):
    pass


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
        element_names: Optional[Sequence[str]] = None,
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
        self.element_names = list(element_names) if element_names else None
        self._cache: Dict[str, object] = {}
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
        self.verify_associativity(full=n <= FULL_ASSOC_LIMIT)

    def verify_associativity(self, full: bool = True, rng_seed: int = 0) -> None:
        n = self.order
        mul = self.mul
        if full:
            for a in range(n):
                lhs = mul[mul[a], :]
                rhs = mul[a][mul]
                if not np.array_equal(lhs, rhs):
                    raise GroupError(f"associativity fails at a={a}")
        else:
            rng = np.random.default_rng(rng_seed)
            m = 10 * n * n
            a = rng.integers(0, n, size=m)
            b = rng.integers(0, n, size=m)
            c = rng.integers(0, n, size=m)
            if np.any(mul[mul[a, b], c] != mul[a, mul[b, c]]):
                raise GroupError("associativity fails (sampled)")

    # -- basics ------------------------------------------------------------

    def conjugate(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return int(self.mul[self.mul[self.inv[g], x], g])

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
    def pow_p_table(self) -> np.ndarray:
        tbl = self._cache.get("pow_p")
        if tbl is None:
            idx = np.arange(self.order)
            cur = idx.copy()
            for _ in range(self.p - 1):
                cur = self.mul[cur, idx]
            tbl = cur
            self._cache["pow_p"] = tbl
        return tbl

    def element_orders(self) -> np.ndarray:
        tbl = self._cache.get("orders")
        if tbl is None:
            tbl = np.array([self.element_order(x) for x in range(self.order)], dtype=np.int64)
            self._cache["orders"] = tbl
        return tbl

    def is_abelian(self) -> bool:
        val = self._cache.get("abelian")
        if val is None:
            val = bool(np.array_equal(self.mul, self.mul.T))
            self._cache["abelian"] = val
        return val

    def generating_sequence(self) -> List[int]:
        """Greedy minimal generating sequence (deterministic)."""
        gens = self._cache.get("gens")
        if gens is None:
            gens = []
            cur = subgroup_closure(self, [0])
            while cur.order < self.order:
                nxt = int(np.argmin(cur.bitmap))  # least element outside
                gens.append(nxt)
                cur = subgroup_closure(self, gens)
            self._cache["gens"] = gens
        return list(gens)

    def fingerprint(self) -> str:
        h = self._cache.get("fingerprint")
        if h is None:
            digest = hashlib.sha256()
            digest.update(f"{self.p}:{self.order}:".encode())
            digest.update(np.ascontiguousarray(self.mul, dtype=np.int64).tobytes())
            h = digest.hexdigest()
            self._cache["fingerprint"] = h
        return h

    def __repr__(self):
        nm = self.name or "group"
        return f"<{nm}: order {self.order}, p={self.p}>"


def opposite(g: GroupTable) -> GroupTable:
    opp = g._cache.get("opposite")
    if opp is None:
        opp = GroupTable(g.p, np.ascontiguousarray(g.mul.T), name=f"{g.name}^op", check=False)
        g._cache["opposite"] = opp
    return opp


def trivial_group(p: int) -> GroupTable:
    return GroupTable(p, np.zeros((1, 1), dtype=np.int64), name="1")


def cyclic_group(p: int, order: int) -> GroupTable:
    n = order
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return GroupTable(p, mul, name=f"C{n}")


def direct_product_tables(a: GroupTable, b: GroupTable, name: str = "") -> GroupTable:
    if a.p != b.p:
        raise GroupError("direct product requires matching p")
    na, nb = a.order, b.order
    ia = np.repeat(np.arange(na), nb)
    ib = np.tile(np.arange(nb), na)
    mul = (a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]).astype(np.int64)
    return GroupTable(a.p, mul, name=name or f"{a.name}x{b.name}", check=False)


# -- construction from presentations ---------------------------------------


def _collect(letters: List[int], pres: PcPresentation) -> List[int]:
    """Collection from the left: normal-form exponents of a letter word."""
    p = pres.p
    exps: List[int] = []
    w = list(letters)
    for k in range(1, pres.ngens + 1):
        e = 0
        guard = 0
        while True:
            try:
                j = w.index(k)
            except ValueError:
                break
            while j > 0:
                m = w[j - 1]
                w[j - 1 : j + 1] = [k, m] + pres.comm_word(m, k)
                j -= 1
                guard += 1
                if guard > 4_000_000:
                    raise InconsistentPresentation("collection does not terminate")
            e += 1
            w.pop(0)
            if e == p:
                w = pres.pow_word(k) + w
                e = 0
        exps.append(e)
    if w:
        raise InconsistentPresentation("collection left letters beyond the last generator")
    return exps


def _exps_to_index(exps: Sequence[int], p: int) -> int:
    idx = 0
    for e in exps:
        idx = idx * p + e
    return idx


def _index_to_exps(idx: int, p: int, ngens: int) -> List[int]:
    out = [0] * ngens
    for i in range(ngens - 1, -1, -1):
        out[i] = idx % p
        idx //= p
    return out


def from_pc_presentation(
    pres: PcPresentation, order_cap: int = DEFAULT_ORDER_CAP
) -> GroupTable:
    """Build the multiplication table of a consistent pc-presentation.

    The table is defined by collection of x * g_k for every normal word x and
    generator g_k, then extended to all products column by column.  A full
    associativity check afterwards rejects inconsistent presentations.
    """
    p, n = pres.p, pres.ngens
    order = p**n
    if order > order_cap:
        raise GroupError(f"order cap: {order} > {order_cap}")

    # x * g_k for every x, via honest collection.
    right_by_gen = np.empty((n, order), dtype=np.int64)
    for x in range(order):
        exps = _index_to_exps(x, p, n)
        letters = [i + 1 for i, e in enumerate(exps) for _ in range(e)]
        for k in range(1, n + 1):
            exps_out = _collect(letters + [k], pres)
            right_by_gen[k - 1, x] = _exps_to_index(exps_out, p)

    mul = np.empty((order, order), dtype=np.int64)
    mul[:, 0] = np.arange(order)
    powers = [p ** (n - 1 - i) for i in range(n)]
    for y in range(1, order):
        exps = _index_to_exps(y, p, n)
        k = max(i for i, e in enumerate(exps) if e > 0)  # last nonzero digit
        y_prev = y - powers[k]
        mul[:, y] = right_by_gen[k, mul[:, y_prev]]

    try:
        g = GroupTable(p, mul, name=pres.name, order_cap=order_cap)
    except GroupError as e:
        raise InconsistentPresentation(f"inconsistent presentation: {e}") from e

    # Sanity: the defining relations hold in the table.
    for i in range(1, n + 1):
        gi = powers[i - 1]
        if g.power(gi, p) != _exps_to_index(_collect(pres.pow_word(i), pres), p):
            raise InconsistentPresentation(f"pow relation for g{i} broken")
    for (i, j), w in pres.comm_words.items():
        gi, gj = powers[i - 1], powers[j - 1]
        if g.commutator(gi, gj) != _exps_to_index(_collect(list(w), pres), p):
            raise InconsistentPresentation(f"comm relation for ({i},{j}) broken")
    return g


# -- subgroups ---------------------------------------------------------------


class Subgroup:
    """Subset of a GroupTable closed under multiplication and inverse."""

    def __init__(self, parent: GroupTable, members: Iterable[int], check: bool = True):
        self.parent = parent
        mem = np.array(sorted(set(int(m) for m in members)), dtype=np.int64)
        self.members = mem
        self.bitmap = np.zeros(parent.order, dtype=bool)
        self.bitmap[mem] = True
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
            for gen in g.generating_sequence():
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


def set_product(g: GroupTable, a: Subgroup, b: Subgroup) -> Subgroup:
    """Product set A*B; a subgroup whenever one factor is normal."""
    prods = np.unique(g.mul[np.ix_(a.members, b.members)].ravel())
    return Subgroup(g, prods)


def center(g: GroupTable) -> Subgroup:
    z = g._cache.get("center")
    if z is None:
        mask = (g.mul == g.mul.T).all(axis=1)
        z = Subgroup(g, np.nonzero(mask)[0], check=False)
        g._cache["center"] = z
    return z


def centralizer(g: GroupTable, s: Subgroup | Sequence[int]) -> Subgroup:
    members = s.members if isinstance(s, Subgroup) else np.asarray(sorted(s), dtype=np.int64)
    mask = (g.mul[:, members] == g.mul[members, :].T).all(axis=1)
    return Subgroup(g, np.nonzero(mask)[0], check=False)


def subgroup_center(g: GroupTable, n: Subgroup) -> Subgroup:
    """Z(N) = N ∩ C_G(N)."""
    c = centralizer(g, n)
    return Subgroup(g, n.members[c.bitmap[n.members]], check=False)


def _commutators_with_generators(g: GroupTable) -> np.ndarray:
    """Row i holds [x, s_i] for every x, s_i the i-th generator of the
    generating sequence; shape (d, |G|).

    Not cached: building it costs a few fancy-index passes, while keeping
    it on every catalog table held ~0.4 MiB for the life of the process.
    """
    mul, inv = g.mul, g.inv
    idx = np.arange(g.order)
    rows = [mul[mul[mul[inv, inv[s]], idx], s] for s in g.generating_sequence()]
    return np.stack(rows) if rows else np.zeros((0, g.order), dtype=np.int64)


def commutator_subgroup(g: GroupTable) -> Subgroup:
    """G' as the subgroup generated by the [x, s] for x in G and s a generator.

    That subgroup is normal, because [x, s]^y = [xy, s][y, s]^-1, and every
    generator is central modulo it, so it contains every commutator.
    """
    d = g._cache.get("derived")
    if d is None:
        d = subgroup_closure(g, np.unique(_commutators_with_generators(g)))
        g._cache["derived"] = d
    return d


def omega1(g: GroupTable, n: Subgroup) -> Subgroup:
    orders = g.element_orders()
    elems = n.members[orders[n.members] <= g.p]
    return subgroup_closure(g, elems)


def agemo1(g: GroupTable, n: Subgroup) -> Subgroup:
    pw = g.pow_p_table
    return subgroup_closure(g, pw[n.members])


def frattini(g: GroupTable) -> Subgroup:
    f = g._cache.get("frattini")
    if f is None:
        full = Subgroup(g, np.arange(g.order), check=False)
        f = set_product(g, commutator_subgroup(g), agemo1(g, full))
        g._cache["frattini"] = f
    return f


@dataclass
class ISet:
    """The set {a in A : a^p in Z(G)}; promoted to a subgroup only if closed."""

    parent: GroupTable
    members: np.ndarray
    is_subgroup: bool
    subgroup: Optional[Subgroup]

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
    return ISet(g, members, closed, Subgroup(g, members, check=False) if closed else None)


def all_subgroups(g: GroupTable, max_order: int = 128) -> List[Subgroup]:
    """Complete subgroup lattice by closure BFS; guarded by a size cap."""
    if g.order > max_order:
        raise GroupError(f"order cap: subgroup lattice only up to {max_order}")
    seen: Dict[Tuple[int, ...], Subgroup] = {}
    trivial = Subgroup(g, [0], check=False)
    seen[trivial.key()] = trivial
    queue = [trivial]
    while queue:
        h = queue.pop()
        for x in range(1, g.order):
            if h.contains(x):
                continue
            new = subgroup_closure(g, list(h.members) + [x])
            k = new.key()
            if k not in seen:
                seen[k] = new
                queue.append(new)
    return sorted(seen.values(), key=lambda s: (s.order, s.key()))


def maximal_subgroups_bruteforce(g: GroupTable, max_order: int = 128) -> List[Subgroup]:
    subs = all_subgroups(g, max_order=max_order)
    proper = [s for s in subs if s.order < g.order]
    maximal = []
    for s in proper:
        if not any(t.order > s.order and t.order < g.order and t.contains_subgroup(s) for t in proper):
            maximal.append(s)
    return maximal


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


def normal_subgroups(
    g: GroupTable, within: Optional[Subgroup] = None, order_cap: int = DEFAULT_ORDER_CAP
) -> List[Subgroup]:
    """All subgroups of `within` that are normal in g, built layer by layer.

    Every normal subgroup of a p-group sits in a chain of normal subgroups
    with factors of order p whose layers are central in the quotient.  So
    each known normal subgroup N is extended by the elements x of `within`
    with x^p in N and [x, G] <= N: the central layer of order p in G/N.
    One candidate is taken per order-p subgroup of that layer: after
    M = <N, x> is built, all of M leaves the candidate mask, because every
    y in M \\ N generates the same M over N.
    """
    if g.order > order_cap:
        raise GroupError(f"order cap: {g.order} > {order_cap}")
    if within is None:
        within = Subgroup(g, np.arange(g.order), check=False)
    cache_key = ("normals", within.key())
    cached = g._cache.get(cache_key)
    if cached is not None:
        return list(cached)

    comm_with_gens = _commutators_with_generators(g)
    pw = g.pow_p_table

    trivial = Subgroup(g, [0], check=False)
    trivial._normal = True
    found: Dict[bytes, Subgroup] = {trivial.bitmap.tobytes(): trivial}
    queue = [trivial]
    while queue:
        nsub = queue.pop()
        nmem, nbits = nsub.members, nsub.bitmap
        mask = within.bitmap & ~nbits & nbits[pw] & nbits[comm_with_gens].all(axis=0)
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
    out = sorted(found.values(), key=lambda s: (s.order, s.key()))
    g._cache[cache_key] = out
    return list(out)


def maximal_subgroups(g: GroupTable) -> List[Subgroup]:
    """Index-p (maximal) subgroups; normal because the group is a p-group."""
    ms = g._cache.get("maximals")
    if ms is None:
        ms = [n for n in normal_subgroups(g) if n.order * g.p == g.order]
        g._cache["maximals"] = ms
    return list(ms)


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
    if not n.is_normal():
        raise GroupError("not normal")
    coset_id = -np.ones(g.order, dtype=np.int64)
    reps: List[int] = []
    for x in range(g.order):
        if coset_id[x] < 0:
            cid = len(reps)
            members = g.mul[x, n.members]
            coset_id[members] = cid
            reps.append(x)
    m = len(reps)
    reps_arr = np.array(reps, dtype=np.int64)
    qmul = coset_id[g.mul[np.ix_(reps_arr, reps_arr)]]
    qt = GroupTable(g.p, qmul, name=f"{g.name}/N", check=False)
    qt.verify_associativity(full=qt.order <= FULL_ASSOC_LIMIT)
    return qt, QuotientMap(g, qt, n, coset_id, reps_arr)


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
        im = self.image_of
        lhs = im[self.source.mul]
        rhs = self.target.mul[np.ix_(im, im)]
        return bool(np.array_equal(lhs, rhs)) and im[0] == 0

    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and np.unique(self.image_of).size == self.source.order
        )

    def is_automorphism(self) -> bool:
        return self.source is self.target and self.is_bijective()

    def __call__(self, x: int) -> int:
        return int(self.image_of[x])


def identity_map(g: GroupTable) -> GroupMap:
    return GroupMap(g, g, np.arange(g.order), check=False)


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


def conjugation_map(g: GroupTable, h: int) -> GroupMap:
    conj = g.mul[g.mul[g.inv[h], np.arange(g.order)], h]
    return GroupMap(g, g, conj, check=False)


# -- isomorphism testing -----------------------------------------------------


def _element_signature(g: GroupTable) -> np.ndarray:
    """Per-element invariant vector used to prune isomorphism search."""
    orders = g.element_orders()
    cent_sizes = (g.mul == g.mul.T).sum(axis=1)
    pw = g.pow_p_table
    pow_order = orders[pw]
    sig = np.stack([orders, cent_sizes, pow_order], axis=1)
    # One refinement round: histogram of neighbor signatures under multiplication
    # is overkill here; order/centralizer/power-order already cuts deep.
    return sig


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
    g1: GroupTable, g2: GroupTable, gens_sub: List[int], images_sub: List[int]
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
    ordered by descending factor order (abelian groups only)."""
    if not g.is_abelian():
        raise GroupError("abelian group expected")
    basis: List[int] = []
    span = Subgroup(g, [0], check=False)
    orders = g.element_orders()
    while span.order < g.order:
        # Element of maximal order in G/span, lifted to the same order:
        # choose x maximizing the order of x*span in the quotient, then shift
        # by span members so the representative's own order matches.
        best = None
        for x in range(g.order):
            if span.contains(x):
                continue
            # order of the coset x*span in G/span: least p^k with x^(p^k) in span
            k = 0
            y = x
            while not span.contains(int(y)):
                k += 1
                y = g.power(x, g.p**k)
            coset_order = g.p**k
            if best is None or coset_order > best[0]:
                best = (coset_order, x)
        coset_order, x = best
        # adjust the representative within its coset to have the coset order
        rep = None
        for s in span.members:
            cand = int(g.mul[x, s])
            if g.power(cand, coset_order) == 0:
                rep = cand
                break
        if rep is None:
            raise GroupError("no pure representative found (not abelian?)")
        basis.append(rep)
        span = subgroup_closure(g, list(span.members) + [rep])
    basis.sort(key=lambda b: -g.element_order(b))
    return basis


def _abelian_isomorphism(g1: GroupTable, g2: GroupTable) -> Optional[np.ndarray]:
    b1 = abelian_cyclic_basis(g1)
    b2 = abelian_cyclic_basis(g2)
    o1 = [g1.element_order(b) for b in b1]
    o2 = [g2.element_order(b) for b in b2]
    if o1 != o2:
        return None
    phi = -np.ones(g1.order, dtype=np.int64)
    from itertools import product as iproduct

    ranges = [range(o) for o in o1]
    for exps in iproduct(*ranges):
        x = 0
        y = 0
        for b, c, e in zip(b1, b2, exps):
            x = int(g1.mul[x, g1.power(b, e)])
            y = int(g2.mul[y, g2.power(c, e)])
        phi[x] = y
    if np.any(phi < 0) or np.unique(phi).size != g1.order:
        return None
    return phi


def iter_isomorphisms(g1: GroupTable, g2: GroupTable) -> Iterator[np.ndarray]:
    """Every isomorphism g1 -> g2, by backtracking on generator images.

    Candidate images of each generator are the g2 elements with its element
    signature, in ascending index order; a prefix of images is pruned as soon
    as the map it induces on the generated subgroup fails.  Groups whose
    signature multisets differ yield nothing without a search.
    """
    n = g1.order
    gens = g1.generating_sequence()
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
            if phi is not None and np.all(phi >= 0) and np.unique(phi).size == n:
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
        return _abelian_isomorphism(g1, g2)
    return next(iter_isomorphisms(g1, g2), None)


def is_isomorphic(g1: GroupTable, g2: GroupTable) -> bool:
    return find_isomorphism(g1, g2) is not None
