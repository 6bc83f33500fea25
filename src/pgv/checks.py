"""Registry of per-claim checks, each evaluated on concrete instances.

Every check takes a JSON-able instance dict (catalog entry name, seed, size
parameters), materializes the objects it needs, evaluates its hypothesis
gates computationally, and reports PASS / COUNTEREXAMPLE with both sides of
the claim in the details.  Checks report; they never assert.

A check body returns ``(ok, details)``; a failed hypothesis gate raises
``Skip`` and an instance too large to evaluate raises ``Unsupported``.
Bodies that loop over configurations yield one ``(ok, details)`` per tested
configuration into ``_sweep``.  ``register`` alone turns the outcome into a
``CheckVerdict``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .catalog import CatalogEntry, CatalogError, builtin_catalog, catalog_filter, find_entry
from .cohomology import (
    Cochain,
    cohomology,
    conjugation_h1,
    derivation_to_automorphism,
    inflate_module,
    sample_nG_module,
    SampledModule,
    zero_two_cocycle,
)
from .extensions import (
    ExtensionResult,
    TransferPair,
    build_extension,
    filtration,
    filtration_product,
    kernel_of_down,
    lambda_expansion,
    transfer_maps,
)
from .fp_linalg import FpSubspace
from .group_core import (
    GroupError,
    GroupMap,
    GroupTable,
    QuotientMap,
    Subgroup,
    center,
    centralizer,
    elementary_abelian_normals,
    frattini,
    is_cyclic_quotient,
    is_isomorphic,
    iset,
    map_order,
    memo,
    normals_between,
    omega1,
    phi_layers,
    quotient,
    set_product,
    subgroup_center,
    subgroup_closure,
)
from .gmodule import (
    FreeBimodule,
    GModule,
    ModuleError,
    annihilator,
    annihilator_by_products,
    d_G,
    dual_module,
    embed_into_free,
    fixed_points,
    fixed_under,
    free_submodule_closure,
    generated_submodule,
    minimal_generators,
    quotient_module,
    radical,
    random_right_submodule,
    restrict_action,
    trivial_module,
    tuple_product_matrix,
)
from .noninner import (
    BRUTE_FORCE_LIMIT,
    Certificate,
    SpecialReport,
    engine_sweep,
    exhaustive_noninner,
    excess_h1_probe,
    find_special_subgroups,
    subgroup_rank,
    try_config,
    verify_certificate,
)

PASS = "PASS"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SKIPPED = "SKIPPED_HYPOTHESIS"
UNSUPPORTED = "UNSUPPORTED"


@dataclass
class CheckVerdict:
    check_id: str
    instance: Dict[str, object]
    status: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "status": self.status,
            "details": self.details,
        }


@dataclass
class CheckDef:
    check_id: str
    description: str
    run: Callable[[Dict[str, object]], CheckVerdict]
    generate: Callable[[Sequence[CatalogEntry], int, int], List[Dict[str, object]]]


CHECKS: Dict[str, CheckDef] = {}
ALIASES = {"thm_gg": "gg_growth", "thm5.5": "thm5_5"}


Outcome = Tuple[bool, Dict[str, object]]


class Skip(Exception):
    """A hypothesis gate failed: the instance reports SKIPPED_HYPOTHESIS."""

    status = SKIPPED

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.details = dict(details, reason=reason)


class Unsupported(Skip):
    """The instance is too large to evaluate: it reports UNSUPPORTED."""

    status = UNSUPPORTED


def register(check_id: str, description: str, generate=None):
    """Register a body ``inst -> (ok, details)`` as the check ``check_id``."""

    def deco(body: Callable[[Dict[str, object]], Outcome]):
        def run(inst: Dict[str, object]) -> CheckVerdict:
            try:
                ok, details = body(inst)
            except Skip as s:
                return CheckVerdict(check_id, inst, s.status, s.details)
            return CheckVerdict(check_id, inst, PASS if ok else COUNTEREXAMPLE, details)

        CHECKS[check_id] = CheckDef(check_id, description, run, generate or (lambda cat, seed, lim: []))
        return body

    return deco


def _sweep(trials: Iterator[Outcome], none: str = "hypotheses never met", count: str = "instances") -> Outcome:
    """Fold one ``(ok, details)`` per tested configuration: the first failure
    wins (later trials are not drawn), no trial at all is a skip."""
    n = 0
    for ok, details in trials:
        if not ok:
            return False, details
        n += 1
    if n == 0:
        raise Skip(none)
    return True, {count: n}


# -- shared materialization helpers ----------------------------------------------


def _group(instance: Dict[str, object]) -> GroupTable:
    if "group_table" in instance:
        return instance["group_table"]
    return find_entry(str(instance["group"])).group()


def _carrier(g: GroupTable, n: int, seed: int, extra: int = 1) -> SampledModule:
    fb = FreeBimodule(g, n)
    return SampledModule(fb, random_right_submodule(fb, np.random.default_rng(seed), extra))


def _h1_of_module(g: GroupTable, m: GModule) -> int:
    return cohomology(g, m, 1).h_dim


def _class_extension(g: GroupTable, t: int, seed: int, split: bool = False) -> ExtensionResult:
    """G extended by the trivial module F_p^t along the seed-th H^2 class.
    When H^2 vanishes: the split extension if ``split``, else a skip."""
    ext = _seeded_extension(g, t, seed)
    if not split and ext.cocycle.is_zero():
        raise Skip("H^2 trivial")
    return ext


def _seeded_extension(g: GroupTable, t: int, seed: int) -> ExtensionResult:
    """The extension along the seed-th H^2 class of F_p^t (seed mod dim H^2),
    or the split one when H^2 vanishes.  Seeds that pick one class get one
    shared extension."""
    h_dim = _h2_dim(g, t)
    return _extension_of_class(g, t, seed % h_dim if h_dim else None)


@memo
def _h2_dim(g: GroupTable, t: int) -> int:
    return cohomology(g, trivial_module(g, t), 2).h_dim


@memo
def _extension_of_class(g: GroupTable, t: int, k: Optional[int]) -> ExtensionResult:
    """The extension along the k-th H^2 class representative of F_p^t, the
    split one for k None.  Cached on the table, so every check in a process
    shares it, and with it the memos on it and on its ``total``."""
    m = trivial_module(g, t)
    f = zero_two_cocycle(g, m) if k is None else cohomology(g, m, 2).h_reps[k]
    return build_extension(g, m, f)


@memo
def _transfer_pair(g: GroupTable, t: int, seed: int, n: int) -> TransferPair:
    """The transfer pair of ``_class_extension(g, t, seed, split=True)`` with
    n copies.  Cached on the table, so the ``filtration`` layers cached on
    the pair are shared by every check in a process."""
    return transfer_maps(_seeded_extension(g, t, seed), n)


def _classes_and_split(g: GroupTable, m: GModule, k: int) -> List[Cochain]:
    """The first k H^2 class representatives of m, then the zero cocycle."""
    return cohomology(g, m, 2).h_reps[:k] + [zero_two_cocycle(g, m)]


def _h1_inflated(ext: ExtensionResult, m: GModule) -> int:
    """dim H^1 of a base-group module inflated to the extension group."""
    return _h1_of_module(ext.total, inflate_module(m, ext.projection))


def _inflated(qm: QuotientMap, m: GModule) -> Tuple[GModule, bool]:
    """A G/N-module inflated to G, and whether inflation keeps dim H^1."""
    infl = inflate_module(m, GroupMap(qm.source, qm.group, qm.image_of, check=False))
    return infl, _h1_of_module(qm.source, infl) == _h1_of_module(qm.group, m)


def _one_modules(fb: FreeBimodule, carriers: List[FpSubspace], seed: int) -> List[GModule]:
    """The 1-modules (fixed-point dimension 1, dim H^1 <= 1) among the given
    right submodules of fb = F_p(G) and the seeded sample, in that order."""
    samples = [SampledModule(fb, c) for c in carriers] + [sample_nG_module(fb.group, 1, seed)]
    return [s.module for s in samples if s.fixed_dim == 1 and s.h1_dim <= 1]


def _quotient_mod_cocycle(
    g: GroupTable, nmod: GModule, f: Cochain, sub: FpSubspace
) -> Tuple[GModule, Cochain]:
    """Push a cocycle along nmod -> nmod/sub."""
    qmod, comp = quotient_module(nmod, sub)
    basis_full = np.vstack([sub.basis, comp])
    q, d = g.order, nmod.dim
    coords = fl.solve_left(basis_full, f.table.reshape(q * q, d), g.p)
    tab = coords[:, sub.dim :].reshape(q, q, qmod.dim)
    return qmod, Cochain(qmod, tab)


def _subgroup_table(g: GroupTable, s: Subgroup) -> Tuple[GroupTable, np.ndarray]:
    """A subgroup as its own multiplication table plus the member lookup."""
    members = s.members
    pos = -np.ones(g.order, dtype=np.int64)
    pos[members] = np.arange(members.size)
    mul = pos[g.mul[np.ix_(members, members)]]
    return GroupTable(g.p, mul, check=False, name=f"{g.name}|sub"), members


def _small_nonabelian(cat, max_order) -> Iterator[CatalogEntry]:
    """The non-abelian entries of order <= max_order, in catalog order; an
    entry's table is built only when the scan reaches it."""
    return (e for e in cat if e.order <= max_order and not e.group().is_abelian())


def _tiny_groups(cat):
    out = []
    for nm in ("C2", "C3", "C4", "C2xC2"):
        try:
            out.append(find_entry(nm, cat))
        except CatalogError:
            continue
    return out


# -- module-theory checks ---------------------------------------------------------


def _gen_modules(cat, seed, limit):
    out = []
    for i, e in enumerate(_tiny_groups(cat) + list(_small_nonabelian(cat, 8))):
        for n in (1, 2):
            for k in range(2):
                out.append({"group": e.name, "n": n, "seed": seed + 17 * i + k})
    return out[:limit]


@register("gen_count", "every minimal generator set has size d_G", _gen_modules)
def check_gen_count(inst):
    g = _group(inst)
    mod = _carrier(g, int(inst["n"]), int(inst["seed"])).module
    d = d_G(mod)
    gens = minimal_generators(mod)
    span_ok = generated_submodule(mod, gens).dim == mod.dim
    # Randomized independent minimal set: greedily prune a spanning list.
    rng = np.random.default_rng(int(inst["seed"]) + 1)
    pool = list(rng.permutation(np.eye(mod.dim, dtype=np.int64)))
    chosen: List[np.ndarray] = []
    for v in pool:
        if generated_submodule(mod, np.array(chosen + [v])).dim > (
            generated_submodule(mod, np.array(chosen)).dim if chosen else 0
        ):
            chosen.append(v)
        if generated_submodule(mod, np.array(chosen)).dim == mod.dim:
            break
    pruned = list(chosen)
    changed = True
    while changed:
        changed = False
        for i in range(len(pruned)):
            trial = pruned[:i] + pruned[i + 1 :]
            if trial and generated_submodule(mod, np.array(trial)).dim == mod.dim:
                pruned = trial
                changed = True
                break
    ok = span_ok and gens.shape[0] == d and (mod.dim == 0 or len(pruned) == d)
    return ok, {"d_G": int(d), "canonical": int(gens.shape[0]), "random_minimal": len(pruned)}


@register("cc_bound", "generator count of a submodule vs the chain bound", _gen_modules)
def check_cc_bound(inst):
    g = _group(inst)
    mod = _carrier(g, int(inst["n"]), int(inst["seed"])).module
    if mod.dim == 0:
        raise Skip("zero module")
    rng = np.random.default_rng(int(inst["seed"]) + 5)
    seed_vec = rng.integers(0, g.p, size=(1, mod.dim))
    a1 = generated_submodule(mod, (seed_vec @ np.eye(mod.dim, dtype=np.int64)) % g.p)
    full = FpSubspace.full(mod.dim, g.p)
    if a1.dim == full.dim or a1.dim == 0:
        raise Skip("degenerate submodule")
    m = d_G(mod)
    rad_full = radical(mod)
    s = full.dim - rad_full.sum(a1).dim  # d_G(A/A1) = dim A - dim(J(A)+A1)
    d_a1 = d_G(mod, a1)
    reading1 = d_a1 <= s + m
    reading2 = m <= d_a1 + s
    return reading1, {
        "d_A": int(m),
        "d_quotient": int(s),
        "d_A1": int(d_a1),
        "bound_on_submodule_holds": bool(reading1),
        "bound_on_ambient_holds": bool(reading2),
    }


@register("ut_embed", "socle-prescribed embedding into the free module", _gen_modules)
def check_ut_embed(inst):
    g = _group(inst)
    mod = _carrier(g, int(inst["n"]), int(inst["seed"])).module
    if fixed_points(mod).dim < 1:
        raise Skip("no fixed points")
    emb = embed_into_free(mod)
    fixed = fixed_points(mod)
    socle_img = (fixed.basis @ emb.matrix) % g.p
    socle_ok = np.array_equal(socle_img, emb.free.socle_basis())
    equiv_ok = True
    for h in g.burnside_basis():
        lhs = (mod.act[h] @ emb.matrix) % g.p
        rhs = (emb.matrix @ emb.free.element_action(h, "right")) % g.p
        if not np.array_equal(lhs, rhs):
            equiv_ok = False
    ok = emb.injective and socle_ok and equiv_ok
    return ok, {"injective": emb.injective, "socle_prescribed": bool(socle_ok), "equivariant": bool(equiv_ok)}


@register("free_iff_h1zero", "vanishing H^1 forces an explicit free decomposition", _gen_modules)
def check_free_iff_h1zero(inst):
    g = _group(inst)
    s = _carrier(g, int(inst["n"]), int(inst["seed"]))
    if s.module.dim == 0:
        raise Skip("zero module")
    mod, h1 = s.module, s.h1_dim
    if h1 != 0:
        raise Skip(f"H1 = {h1}")
    nfree = d_G(mod)
    dim_ok = mod.dim == nfree * g.order
    iso_ok = False
    if dim_ok:
        gens = minimal_generators(mod)
        rows = []
        for l in range(nfree):
            for h in range(g.order):
                rows.append((gens[l] @ mod.act[h]) % g.p)
        M = np.array(rows, dtype=np.int64)
        iso_ok = fl.rank_array(M, g.p) == mod.dim
        # Action tables agree by construction: e_{l,h}.k -> e_{l,hk} maps to
        # x_l act(h) act(k); verified via the rank/bijectivity check above.
    ok = dim_ok and iso_ok
    return ok, {"h1": int(h1), "rank": int(nfree), "dim_matches": bool(dim_ok), "bijective": bool(iso_ok)}


@register("dual_fixed", "fixed points of the dual count module generators", _gen_modules)
def check_dual_fixed(inst):
    g = _group(inst)
    mod = _carrier(g, int(inst["n"]), int(inst["seed"])).module
    lhs = fixed_points(dual_module(mod)).dim
    rhs = d_G(mod)
    return lhs == rhs, {"dual_fixed_dim": int(lhs), "d_G": int(rhs)}


@register("dual_gens", "generator count of the dual equals the fixed-point dim", _gen_modules)
def check_dual_gens(inst):
    g = _group(inst)
    mod = _carrier(g, int(inst["n"]), int(inst["seed"])).module
    lhs = d_G(dual_module(mod))
    rhs = fixed_points(mod).dim
    return lhs == rhs, {"d_of_dual": int(lhs), "fixed_dim": int(rhs)}


def _gen_duality(cat, seed, limit):
    out = []
    groups = ["C2", "C3", "C4", "C2xC2", "D8", "Q8"]
    i = 0
    for nm in groups:
        for n in (1, 2):
            for k in range(3):
                out.append({"group": nm, "n": n, "seed": seed + 31 * i})
                i += 1
    return out[:limit]


@register("l00_duality", "two-sided annihilators are inverse bijections", _gen_duality)
def check_l00(inst):
    g = _group(inst)
    n = int(inst["n"])
    fb = FreeBimodule(g, n)
    rng = np.random.default_rng(int(inst["seed"]))
    q = free_submodule_closure(fb, rng.integers(0, g.p, size=(2, fb.dim)), "right")
    left = annihilator(fb, q, "left_of_right")
    back = annihilator(fb, left, "right_of_left")
    size_ok = left.dim + q.dim == fb.dim
    inv_ok = back == q
    prod_ok = annihilator_by_products(fb, q, "left_of_right") == left
    ok = size_ok and inv_ok and prod_ok
    return ok, {
        "dim_Q": int(q.dim),
        "dim_L": int(left.dim),
        "ambient": int(fb.dim),
        "roundtrip": bool(inv_ok),
        "pairing_equals_products": bool(prod_ok),
    }


@register("ww_bridge", "H^1 dimension equals annihilator generator count", _gen_duality)
def check_ww(inst):
    g = _group(inst)
    n = int(inst["n"])
    s = _carrier(g, n, int(inst["seed"]))
    if s.fixed_dim != n:
        raise Skip("socle not full")
    m = s.h1_dim
    left = annihilator(s.free, s.carrier, "left_of_right")
    d_left = d_G(restrict_action(s.free.as_gmodule("left"), left)) if left.dim else 0
    return m == d_left, {"h1": int(m), "d_of_annihilator": int(d_left)}


# -- transfer / filtration checks -------------------------------------------------


def _gen_transfer(cat, seed, limit):
    out = []
    i = 0
    for nm in ("C2", "C3", "C2xC2", "C4"):
        for t in (1, 2):
            for n in (1, 2):
                out.append({"group": nm, "t": t, "n": n, "seed": seed + i})
                i += 1
    return out[:limit]


def _build_transfer(inst):
    g = _group(inst)
    tp = _transfer_pair(g, int(inst["t"]), int(inst["seed"]), int(inst["n"]))
    return g, tp.ext, tp


@register("xo_unique", "kernel elements expand uniquely over the section basis", _gen_transfer)
def check_xo(inst):
    g, ext, tp = _build_transfer(inst)
    p = g.p
    kd = kernel_of_down(tp)
    rank_left = fl.rank_array(tp.lambda_basis, p)
    rank_right = fl.rank_array(tp.lambda1_basis, p)
    unique = rank_left == tp.lambda_basis.shape[0] == kd.dim
    unique_r = rank_right == tp.lambda1_basis.shape[0] == kd.dim
    rng = np.random.default_rng(int(inst["seed"]))
    recon = True
    for _ in range(3):
        coeffs = rng.integers(0, p, size=tp.lambda_basis.shape[0])
        y = (coeffs @ tp.lambda_basis) % p
        got = lambda_expansion(tp, y)
        if got is None or not np.array_equal((got @ tp.lambda_basis) % p, y):
            recon = False
    ok = unique and unique_r and recon
    return ok, {
        "kernel_dim": int(kd.dim),
        "left_basis_rank": int(rank_left),
        "right_basis_rank": int(rank_right),
        "reconstruction": bool(recon),
    }


@register("to_iso", "the lifted free module is free with trivial kernel action", _gen_transfer)
def check_to(inst):
    g, ext, tp = _build_transfer(inst)
    p = g.p
    inj = fl.rank_array(tp.up, p) == tp.up.shape[0]
    img = FpSubspace.from_rows(tp.up, p)
    trivial_action = True
    for a in ext.kernel_generators():
        R = tp.free_total.element_action(a, "right")
        if not np.array_equal((tp.up @ R) % p, tp.up % p):
            trivial_action = False
    equivariant = True
    for h in range(ext.total.order):
        hg = ext.projection(h)
        lhs = (tp.free_base.element_action(hg, "right") @ tp.up) % p
        rhs = (tp.up @ tp.free_total.element_action(h, "right")) % p
        if not np.array_equal(lhs, rhs):
            equivariant = False
            break
    ok = inj and trivial_action and equivariant
    return ok, {"injective": bool(inj), "kernel_acts_trivially": bool(trivial_action), "equivariant": bool(equivariant)}


@register("thm2e_image", "annihilators transfer through the projection", _gen_transfer)
def check_thm2e(inst):
    g, ext, tp = _build_transfer(inst)
    p = g.p
    fbb = tp.free_base
    rng = np.random.default_rng(int(inst["seed"]))
    q = free_submodule_closure(fbb, rng.integers(0, p, size=(1, fbb.dim)), "right")
    h_rows = (q.basis @ tp.up) % p
    h_carrier = free_submodule_closure(tp.free_total, h_rows, "right")
    lt = annihilator(tp.free_total, h_carrier, "left_of_right")
    down_img = FpSubspace.from_rows((lt.basis @ tp.down) % p, p, fbb.dim)
    lg = annihilator(fbb, q, "left_of_right")
    return down_img == lg, {"dim_down_image": int(down_img.dim), "dim_base_annihilator": int(lg.dim)}


@register("tp_products", "filtration degrees multiply additively", _gen_transfer)
def check_tp(inst):
    g, ext, tp = _build_transfer(inst)
    t = ext.t
    p = g.p
    top = t * (p - 1) + 1
    ok = True
    dims = {}
    for m1 in range(top + 1):
        for m2 in range(top + 1 - m1):
            prod = filtration_product(tp, filtration(tp, m1), filtration(tp, m2))
            want = filtration(tp, min(m1 + m2, top))
            dims[f"{m1}+{m2}"] = int(prod.dim)
            if prod != want:
                ok = False
    return ok, {"dims": dims}


@register("dd_layers", "first filtration layer is free of rank n*t", _gen_transfer)
def check_dd(inst):
    g, ext, tp = _build_transfer(inst)
    n, t = tp.n, ext.t
    p = g.p
    i1 = filtration(tp, 1)
    i2 = filtration(tp, 2)
    kd = kernel_of_down(tp)
    layer = i1.dim - i2.dim
    want = n * t * g.order
    # The kernel of the projection acts trivially on every layer: layers are
    # modules over the base group.
    kernel_trivial = True
    top = t * (p - 1)
    spaces = [filtration(tp, i) for i in range(top + 2)]
    for i in range(1, top + 1):
        for a in ext.kernel_generators():
            for mtx in (
                tp.free_total.element_action(a, "right"),
                tp.free_total.element_action(a, "left"),
            ):
                moved = spaces[i].basis @ mtx - spaces[i].basis
                if np.any(spaces[i + 1].reduce(moved)):
                    kernel_trivial = False
    ok = layer == want and i1 == kd and kernel_trivial
    return ok, {
        "layer_dim": int(layer),
        "expected": int(want),
        "kernel_matches": bool(i1 == kd),
        "kernel_acts_trivially_on_layers": bool(kernel_trivial),
    }


def _gen_xp(cat, seed, limit):
    out = []
    for i, nm in enumerate(("C2", "C3")):
        out.append({"group": nm, "t": 2, "n": 1, "seed": seed + i})
        out.append({"group": nm, "t": 2, "n": 2, "seed": seed + 10 + i})
    return out[:limit]


@register("xp_layers", "two-generator kernel layer dimensions", _gen_xp)
def check_xp(inst):
    g, ext, tp = _build_transfer(inst)
    p, n, t = g.p, tp.n, ext.t
    if t != 2:
        raise Skip("t != 2")
    top = t * (p - 1) + 1
    dims = [filtration(tp, i).dim for i in range(top + 1)]
    ok = True
    layers = {}
    for i in range(t * (p - 1)):
        layer = dims[i] - dims[i + 1]
        copies = i + 1 if i <= p - 1 else 2 * p - 1 - i
        layers[str(i)] = (int(layer), int(n * copies * g.order))
        if layer != n * copies * g.order:
            ok = False
    return ok, {"layers": layers}


# -- cohomology growth checks (the acceptance suite) -------------------------------


_GROWTH_GROUPS = ("C2", "C3", "C4", "C2xC2", "C5")


def _gen_growth_strict(cat, seed, limit):
    """Instances biased toward H^1 below the fixed-point dimension."""
    rounds = []
    i = 0
    for nm in _GROWTH_GROUPS[:4]:
        rounds.append({"group": nm, "n": 2, "seed": 4 * (seed + i)})  # free module
        i += 1
    for k in range(4):
        for nm in _GROWTH_GROUPS[:4]:
            for n in (2, 3):
                rounds.append({"group": nm, "n": n, "seed": seed + 97 * i + k})
                i += 1
    return rounds[:limit]


def _gen_growth_exact(cat, seed, limit):
    """Exactly-n instances: radicals of free modules."""
    rounds = []
    i = 0
    for n in (1, 2, 3):
        for nm in _GROWTH_GROUPS:
            rounds.append({"group": nm, "n": n, "kind": "radical", "seed": seed + i})
            i += 1
    return rounds[:limit]


def _gen_growth(cat, seed, limit):
    rounds = []
    i = 0
    for nm in _GROWTH_GROUPS[:4]:
        rounds.append({"group": nm, "n": 2, "kind": "radical", "seed": seed + i})
        i += 1
    for nm in _GROWTH_GROUPS[:4]:
        rounds.append({"group": nm, "n": 2, "seed": 4 * (seed + i)})  # free module
        i += 1
    for k in range(4):
        for nm in _GROWTH_GROUPS[:4]:
            for n in (2, 3):
                rounds.append({"group": nm, "n": n, "seed": seed + 97 * i + k})
                i += 1
    return rounds[:limit]


def _growth_instance(inst) -> SampledModule:
    g = _group(inst)
    n = int(inst["n"])
    seed = int(inst["seed"])
    fb = FreeBimodule(g, n)
    if inst.get("kind") == "radical":
        # The radical of the free module: an exactly-n module (H^1 = n).
        return SampledModule(fb, radical(fb.as_gmodule("right")))
    if seed % 4 == 0:
        return SampledModule(fb, FpSubspace.full(fb.dim, g.p))
    return sample_nG_module(g, n, seed)


@register("gg_growth", "H^1 grows by at least n-m under a nonsplit C_p extension", _gen_growth_strict)
def check_gg(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    ext = _class_extension(g, 1, int(inst["seed"]))
    h1_ext = _h1_inflated(ext, s.module)
    return h1_ext >= m + (n - m), {"n": n, "m": int(m), "h1_extension": int(h1_ext), "lower_bound": int(n)}


@register("yy_upper", "H^1 grows by at most n*t under any kernel extension", _gen_growth)
def check_yy(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or m > n:
        raise Skip(f"fixed={fixed_dim}, m={m}")
    t = 1 + int(inst["seed"]) % 2
    ext = _class_extension(g, t, int(inst["seed"]), split=True)
    h1_ext = _h1_inflated(ext, s.module)
    ok = h1_ext <= m + n * t
    return ok, {"n": n, "m": int(m), "t": t, "h1_extension": int(h1_ext), "upper_bound": int(m + n * t)}


def _up_carrier(tp, carrier):
    rows = (carrier.basis @ tp.up) % tp.ext.total.p
    return FpSubspace.from_rows(rows, tp.ext.total.p, tp.free_total.dim)


@register("jj_lower", "annihilator of a lifted module needs at least n generators", _gen_growth_strict)
def check_jj(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    ext = _class_extension(g, 1, int(inst["seed"]))
    tp = transfer_maps(ext, n)
    q_up = _up_carrier(tp, s.carrier)
    lt = annihilator(tp.free_total, q_up, "left_of_right")
    lmod = restrict_action(tp.free_total.as_gmodule("left"), lt)
    gens = d_G(lmod)
    return gens >= n, {"n": n, "m": int(m), "annihilator_generators": int(gens)}


@register("cor8_0", "stable H^1 under central extension forces the maximum", _gen_growth)
def check_cor8(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or m < 0 or m > n:
        raise Skip(f"fixed={fixed_dim}")
    ext = _class_extension(g, 1, int(inst["seed"]))
    h1_ext = _h1_inflated(ext, s.module)
    if h1_ext != m:
        raise Skip(f"H1 changed ({m} -> {h1_ext})")
    return m == n, {"n": n, "m": int(m), "h1_extension": int(h1_ext)}


@register("aa_cases", "rank-t kernel growth laws", _gen_growth_strict)
def check_aa(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    t = 2
    ext = _class_extension(g, t, int(inst["seed"]))
    tp = transfer_maps(ext, n)
    q_up = _up_carrier(tp, s.carrier)
    qmod_t = restrict_action(tp.free_total.as_gmodule("right"), q_up)
    h1_ext = _h1_of_module(ext.total, qmod_t)
    if m == 0:
        ok = h1_ext == t * n
        bound = f"== {t * n}"
    else:
        ok = h1_ext >= m + t * n - t * m + 1
        bound = f">= {m + t * n - t * m + 1}"
    return ok, {"n": n, "m": int(m), "t": t, "h1_extension": int(h1_ext), "bound": bound}


@register("qq_cases", "rank-2 kernel growth laws with an intermediate quotient", _gen_growth)
def check_qq(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n:
        raise Skip(f"fixed={fixed_dim}")
    ext = _class_extension(g, 2, int(inst["seed"]))
    qmod = s.module
    h1_ext = _h1_inflated(ext, qmod)
    h1_mid = _h1_inflated(_collapsed_extension(ext), qmod)
    details = {"n": n, "m": int(m), "h1_extension": int(h1_ext), "h1_mid": int(h1_mid)}
    if m < n:
        if m == 0:
            ok = h1_ext == 2 * n
            details["branch"] = "m=0"
        elif m >= 2:
            ok = h1_ext >= m + 2 * n - 2 * m + 1
            details["branch"] = "m>=2"
        else:
            raise Skip("m=1 not covered by the claim", **details)
    else:
        if h1_mid != m:
            raise Skip("intermediate H1 moved", **details)
        ok = h1_ext == 2 * n
        details["branch"] = "m=n"
    return ok, details


@register("ggg_exact", "exactly-n modules gain exactly n under a stable layer", _gen_growth_exact)
def check_ggg(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    n = int(inst["n"])
    if fixed_dim != n or m != n:
        raise Skip(f"fixed={fixed_dim}, m={m} != n")
    ext = _class_extension(g, 2, int(inst["seed"]))
    qmod = s.module
    h1_mid = _h1_inflated(_collapsed_extension(ext), qmod)
    if h1_mid != m:
        raise Skip("quotient layer moved H1")
    h1_ext = _h1_inflated(ext, qmod)
    return h1_ext == h1_mid + n, {"n": n, "h1_mid": int(h1_mid), "h1_extension": int(h1_ext)}


def _gen_kj(cat, seed, limit):
    out = []
    for i, nm in enumerate(("C2", "C3", "C4")):
        out.append({"group": nm, "n": 1, "kind": "radical", "seed": seed + i})
        for k in range(2):
            out.append({"group": nm, "n": 1, "seed": seed + 7 * i + k})
    return out[:limit]


@register("kj_h2", "stable 1-modules have one-dimensional H^2 and are cyclic", _gen_kj)
def check_kj(inst):
    s = _growth_instance(inst)
    g, fixed_dim, m = s.free.group, s.fixed_dim, s.h1_dim
    if fixed_dim != 1 or m > 1:
        raise Skip("not a 1-module")
    ext = _class_extension(g, 1, int(inst["seed"]))
    qmod = s.module
    h1_ext = _h1_inflated(ext, qmod)
    if h1_ext != m:
        raise Skip("H1 moved")
    if ext.total.order > 16 or qmod.dim > 6:
        raise Unsupported("H^2 instance too large")
    h2 = cohomology(ext.total, inflate_module(qmod, ext.projection), 2).h_dim
    d = d_G(qmod)
    return h2 == 1 and d == 1, {"h2_extension": int(h2), "d_G": int(d)}


def _gen_dp(cat, seed, limit):
    out = []
    for i, nm in enumerate(("C2", "C3")):
        for k in range(3):
            out.append({"group": nm, "seed": seed + 13 * i + k})
    return out[:limit]


@register("dp_dim", "1-modules of a rank-2 extension are p times their kernel fixed part", _gen_dp)
def check_dp(inst):
    ext = _class_extension(_group(inst), 2, int(inst["seed"]), split=True)
    T = ext.total
    s = sample_nG_module(T, 1, int(inst["seed"]))
    if s.fixed_dim != 1 or s.h1_dim > 1:
        raise Skip("not a 1-module over the extension")
    q = s.module
    qn = fixed_under([q.act[a] for a in ext.kernel_generators()], T.p, q.dim)  # fixed by the kernel
    ok = q.dim >= T.p * qn.dim
    return ok, {"dim_Q": int(q.dim), "dim_Q_fixed_by_kernel": int(qn.dim), "p": T.p}


@register("rty_eq", "stable 1-modules meet the kernel bound with equality and cyclic fixed part", _gen_dp)
def check_rty(inst):
    g = _group(inst)
    ext = _class_extension(g, 2, int(inst["seed"]))
    ext1 = _collapsed_extension(ext)
    T1 = ext1.total
    s = sample_nG_module(T1, 1, int(inst["seed"]))
    if s.fixed_dim != 1 or s.h1_dim > 1:
        raise Skip("not a 1-module")
    qmod1 = s.module
    # View the module over the bigger extension through the collapse map.
    collapse = _collapse_map(ext, ext1)
    qmod_T = inflate_module(qmod1, collapse)
    h1_T1 = s.h1_dim
    h1_T = _h1_of_module(ext.total, qmod_T)
    if h1_T1 != h1_T:
        raise Skip("H1 differs across the collapse")
    # fixed points of the kernel of ext acting through collapse
    kernel_acts = [qmod1.act[int(collapse.image_of[a])] for a in ext.kernel_generators()]
    qn = fixed_under(kernel_acts, g.p, qmod1.dim)
    if qn.dim == 0:
        raise Skip("kernel-fixed part trivial")
    d_fixed = d_G(qmod1, qn)
    ok = qmod1.dim == g.p * qn.dim and d_fixed == 1
    return ok, {"dim_Q": int(qmod1.dim), "dim_fixed": int(qn.dim), "d_of_fixed": int(d_fixed)}


@memo
def _collapsed_extension(ext: ExtensionResult) -> ExtensionResult:
    """The rank-1 extension below a rank-2 one: the kernel P and the cocycle
    pushed onto P/P1, P1 the second coordinate.  Cached on ``ext``, which
    ``_extension_of_class`` shares between checks."""
    g = ext.base
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)
    qkern, fbar = _quotient_mod_cocycle(g, ext.module, ext.cocycle, sub)
    return build_extension(g, qkern, fbar)


def _collapse_map(ext: ExtensionResult, ext1: ExtensionResult) -> GroupMap:
    """Projection from the rank-2 extension onto the rank-1 quotient extension
    that kills the second kernel coordinate."""
    nsize = ext.total.order // ext.base.order
    x = np.arange(ext.total.order)
    image = fl.vector_codes(ext.t, ext.base.p)[x % nsize, 0] + ext.base.p * (x // nsize)
    return GroupMap(ext.total, ext1.total, image)


def _gen_xu(cat, seed, limit):
    out = []
    i = 0
    for nm in ("C2xC2", "C4", "D8", "C3xC3"):
        for k in range(2):
            out.append({"group": nm, "seed": seed + 11 * i + k})
            i += 1
    return out[:limit]


@register("xu_free", "modules maximal over a minimal normal subgroup restrict freely", _gen_xu)
def check_xu(inst):
    g = _group(inst)
    mins = normals_between(g, order=g.p)
    if not mins:
        raise Skip("no minimal normal subgroup")
    nsub = mins[int(inst["seed"]) % len(mins)]
    mod = _carrier(g, 1, int(inst["seed"]), extra=2).module
    sub_table, members = _subgroup_table(g, nsub)
    mod_n = GModule(sub_table, mod.act[members], check=False)
    qn = fixed_points(mod_n)
    if (qn.dim * g.p) != mod.dim:
        raise Skip(f"|Q^N|^p != |Q| ({qn.dim} vs {mod.dim})")
    nrank = qn.dim
    free_dims = mod.dim == nrank * sub_table.order
    d_over_n = d_G(mod_n)
    h1_n = _h1_of_module(sub_table, mod_n)
    ok = free_dims and d_over_n == nrank and h1_n == 0
    return ok, {"rank": int(nrank), "d_over_N": int(d_over_n), "h1_over_N": int(h1_n)}


def _gen_io(cat, seed, limit):
    out = []
    for i, nm in enumerate(("D8", "Q8", "D16", "Q16", "SD16", "C4", "C2xC2")):
        out.append({"group": nm, "seed": seed + i})
    return out[:limit]


@register("io_rank", "generator growth for extensions by stable 1-modules", _gen_io)
def check_io(inst):
    g = _group(inst)
    details: Dict[str, object] = {}
    # Structure claim: a 2-group with a unique normal elementary abelian
    # subgroup should be dihedral or quaternion; findings are reported.
    el_ab = elementary_abelian_normals(g)
    details["normal_elementary_abelian_count"] = len(el_ab)
    if g.is_abelian():
        raise Skip("abelian input", **details)
    if len(el_ab) != 1:
        raise Skip("no unique normal elementary abelian", **details)
    cat = builtin_catalog()
    dq = list(filter(catalog_filter("dihedral,quaternion"), cat))
    matches = any(e.order == g.order and is_isomorphic(e.group(), g) for e in dq)
    details["structure_claim_dihedral_or_quaternion"] = bool(matches)
    if not matches:
        return False, details
    # Generator-count claim on a small stable instance: a 1-module over G/N
    # whose H^1 does not move under inflation gives d(ext) = d(G) + 1.
    d_g = len(g.burnside_basis())
    # A non-trivial p-group has a normal subgroup of order p.
    nsub = normals_between(g, order=g.p)[0]
    _, qm = quotient(g, nsub)
    fbq = FreeBimodule(qm.group, 1)
    rank_results = []
    for qmod_quot in _one_modules(fbq, [radical(fbq.as_gmodule("right"))], int(inst["seed"])):
        qmod, stable = _inflated(qm, qmod_quot)
        if not stable:
            continue
        if g.order * (g.p**qmod.dim) > 256 or g.order > 16:
            continue
        for f in _classes_and_split(g, qmod, 1):
            rank_results.append(len(build_extension(g, qmod, f).total.burnside_basis()))
        details["d_base"] = int(d_g)
        details["d_extensions"] = rank_results
        if any(r != d_g + 1 for r in rank_results):
            return False, details
    if not rank_results:
        # The structure claim alone is no verdict on the generator count.
        raise Skip("no 1-module reaches the generator-count test", **details)
    return True, details


def _ceil_log(p: int, x: int) -> int:
    """The least k with p**k >= x."""
    k = 0
    while p**k < x:
        k += 1
    return k


def _gen_jx(cat, seed, limit):
    out = []
    for i, nm in enumerate(("C2", "C4", "C2xC2", "C3", "C9")):
        for k in range(2):
            out.append({"group": nm, "seed": seed + 5 * i + k})
    return out[:limit]


@register("jx_rank", "abelian base: extensions by stable 1-modules gain one generator", _gen_jx)
def check_jx(inst):
    g = _group(inst)
    if not g.is_abelian():
        raise Skip("non-abelian base")
    if g.order > 16:
        raise Unsupported("H^2 instance too large")
    fb = FreeBimodule(g, 1)
    carriers = [
        FpSubspace.from_rows(fb.socle_basis(), g.p, fb.dim),  # trivial 1-module
        radical(fb.as_gmodule("right")),
    ]
    modules = _one_modules(fb, carriers, int(inst["seed"]))
    cyclic_subs = []
    seen_keys = set()
    for x in range(1, g.order):
        s = subgroup_closure(g, [x])
        if s.order < g.order and s.key() not in seen_keys:
            seen_keys.add(s.key())
            cyclic_subs.append(s)

    def trials():
        for qmod in modules:
            if qmod.dim > 4 or g.order * (g.p**qmod.dim) > 256:
                continue
            for nsub in cyclic_subs:
                qt, qm = quotient(g, nsub)
                qn_carrier = fixed_under([qmod.act[int(a)] for a in nsub.members[1:]], g.p, qmod.dim)
                try:
                    qn_mod = restrict_action(qmod, qn_carrier)
                except ModuleError:
                    continue
                qn_over_quot = GModule(qt, qn_mod.act[qm.section], check=False)
                if _h1_of_module(g, qn_mod) != _h1_of_module(qt, qn_over_quot):
                    continue
                d_g = len(g.burnside_basis())
                exts = [build_extension(g, qmod, f) for f in _classes_and_split(g, qmod, 2)]
                results = [len(ext.total.burnside_basis()) for ext in exts]
                ok = all(r == d_g + 1 for r in results)
                yield ok, {"d_base": int(d_g), "d_extensions": results, "n_order": int(nsub.order)}

    return _sweep(trials(), none="gates never met")


def _gen_px(cat, seed, limit):
    out = []
    for i, nm in enumerate(("C2xC2", "C2xC2xC2", "C3xC3", "D8xC2")):
        for k in range(2):
            out.append({"group": nm, "seed": seed + 3 * i + k})
    return out[:limit]


@register("px_iff", "H^1 stability passes between a module and its fixed part", _gen_px)
def check_px(inst):
    g = _group(inst)
    mins = normals_between(g, order=g.p)
    if len(mins) < 2:
        raise Skip("needs two minimal normals")
    seed = int(inst["seed"])
    n1 = mins[seed % len(mins)]
    n2 = mins[(seed + 1) % len(mins)]
    if n1 == n2:
        raise Skip("same subgroup")
    qt, qm = quotient(g, n1)
    s = sample_nG_module(qt, 1, seed)
    if s.fixed_dim != 1 or s.h1_dim > 1:
        raise Skip("not a 1-module")
    qmod, rhs = _inflated(qm, s.module)
    both = set_product(g, n1, n2)
    cq = fixed_under([qmod.act[int(a)] for a in both.members[1:]], g.p, qmod.dim)
    if qmod.dim != g.p * cq.dim or cq.dim == 0:
        raise Skip("dimension gate fails")
    try:
        cq_mod = restrict_action(qmod, cq)
    except ModuleError:
        raise Skip("fixed part unstable")
    cq_over_quot_act = cq_mod.act[qm.section]
    cq_quot = GModule(qt, cq_over_quot_act, check=False)
    lhs = _h1_of_module(g, cq_mod) == _h1_of_module(qt, cq_quot)
    return lhs == rhs, {"fixed_part_stable": bool(lhs), "module_stable": bool(rhs)}


@register("du_growth", "radical cohomology grows by one under module extensions", _gen_jx)
def check_du(inst):
    g = _group(inst)
    cyclics = normals_between(g, order=g.p)
    if not cyclics:
        raise Skip("no cyclic normal")
    nsub = cyclics[int(inst["seed"]) % len(cyclics)]
    qt, qm = quotient(g, nsub)
    fbq = FreeBimodule(qt, 1)
    carriers = [FpSubspace.full(fbq.dim, g.p), radical(fbq.as_gmodule("right"))]
    modules = _one_modules(fbq, carriers, int(inst["seed"]))

    def trials():
        for qmod_quot in modules:
            qmod, stable = _inflated(qm, qmod_quot)
            if not stable:
                continue
            rad = radical(qmod)
            if rad.dim == 0:
                continue
            if qmod.dim > 8 or g.order > 16:
                continue
            # The claim quantifies over cocycles on Q itself, pushed along the
            # radical quotient; classes on Q/J(Q) that do not lift are out of scope.
            taus = _classes_and_split(g, qmod, 2)
            try:
                rad_mod = restrict_action(qmod, rad)
            except ModuleError:
                continue
            h1_base = _h1_of_module(g, rad_mod)
            for f_full in taus:
                head, fbar = _quotient_mod_cocycle(g, qmod, f_full, rad)
                if g.order * (g.p**head.dim) > 256:
                    continue
                h1_ext = _h1_inflated(build_extension(g, head, fbar), rad_mod)
                yield h1_ext == h1_base + 1, {
                    "h1_base": int(h1_base),
                    "h1_extension": int(h1_ext),
                    "cocycle_nonzero": bool(not f_full.is_zero()),
                }

    return _sweep(trials(), none="gates never met")


# -- derivation / automorphism checks ----------------------------------------------


def _gen_nonabelian(max_order: int):
    """Instances on the non-abelian catalog groups of order <= max_order."""

    def gen(cat, seed, limit):
        return [{"group": e.name, "seed": seed} for e in itertools.islice(_small_nonabelian(cat, max_order), limit)]

    return gen


_gen_special = _gen_nonabelian(64)


@register("lp_order", "derivation-induced maps have order p", _gen_nonabelian(32))
def check_lp(inst):
    g = _group(inst)
    phi = frattini(g)

    def trials():
        for n, w in phi_layers(g):
            for n1 in normals_between(g, lower=w, upper=n, within=phi):
                got = conjugation_h1(g, n1, w)
                if got is None:
                    continue
                cm, sp = got
                for rep in sp.h_reps[:2]:
                    if rep.is_zero():
                        continue
                    try:
                        psi = derivation_to_automorphism(g, cm, rep)
                    except GroupError:
                        yield False, {"reason": "induced map not an automorphism"}
                    else:
                        order = map_order(psi)
                        yield order == g.p, {"order": int(order), "p": g.p}

    return _sweep(trials(), none="no usable configuration", count="maps_tested")


@register("ij_bound", "p-th power index bound inside normal subgroups", _gen_special)
def check_ij(inst):
    g = _group(inst)
    z = center(g)
    n_val = subgroup_rank(g, z)
    mul, inv = g.mul, g.inv

    def trials():
        # gate: Z(G) <= N, [N,N] <= Z(G) and Omega1(N) abelian
        for n in normals_between(g, lower=z):
            x, y = n.members[:, None], n.members[None, :]
            if not z.bitmap[mul[mul[mul[inv[x], inv[y]], x], y]].all():
                continue
            w = omega1(g, n)
            sub = g.mul[np.ix_(w.members, w.members)]
            if not np.array_equal(sub, sub.T):
                continue
            isn = iset(g, n)
            zval = set_product(g, z, w)
            ratio = isn.size // zval.order
            yield ratio <= g.p**n_val, {
                "iset_size": int(isn.size),
                "base_size": int(zval.order),
                "bound": int(g.p**n_val),
                "iset_closed": bool(isn.is_subgroup),
            }

    ok, details = _sweep(trials(), none="no qualifying N")
    return ok, dict(details, p=g.p)


# -- section-5 statements -----------------------------------------------------------


def _nonabelian_group(inst: Dict[str, object]) -> GroupTable:
    """The instance group of a check that reads the special-subgroup reports
    (``find_special_subgroups``, cached on the table): abelian groups are
    outside that machinery."""
    g = _group(inst)
    if g.is_abelian():
        raise Skip("abelian input")
    return g


def _h1_dim(g: GroupTable, n1: Subgroup, w: Subgroup) -> Optional[int]:
    """dim H^1(G/N1, W) of the conjugation module, or None without one."""
    got = conjugation_h1(g, n1, w)
    return None if got is None else got[1].h_dim


def _all_inner(g: GroupTable, n1: Subgroup, w: Subgroup) -> Tuple[bool, int]:
    """(gate, dim H^1): the gate holds when W is a G/N1-module by conjugation
    and every derivation class induces an inner map."""
    _, evidence = try_config(g, n1, w, "paper", "all_inner")
    if evidence is None:
        return False, 0
    return evidence["all_inner"], evidence["h1_dim"]


@memo
def _inner_special_layers(g: GroupTable) -> Tuple[Tuple[SpecialReport, int], ...]:
    """(rep, dim H^1(G/N, W)) for every special N whose layer W != 1 has
    only inner induced maps; cached on the table."""
    layers = []
    for rep in find_special_subgroups(g):
        if not rep.special or rep.layer.order == 1:
            continue
        gate, h1 = _all_inner(g, rep.subgroup, rep.layer)
        if gate:
            layers.append((rep, h1))
    return tuple(layers)


@register("ddd_iso", "inner derivation classes match the p-th power set", _gen_special)
def check_ddd(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep in find_special_subgroups(g):
            if not rep.special:
                continue
            n, a = rep.subgroup, rep.product
            gate, lhs = _all_inner(g, a, omega1(g, subgroup_center(g, a)))
            if not gate:
                continue
            zw = set_product(g, center(g), omega1(g, n))
            rhs_size = rep.witness["iset_size"] // zw.order
            k = _ceil_log(g.p, rhs_size)
            rhs_n_size = iset(g, n).size // zw.order
            yield g.p**k == rhs_size and lhs == k, {
                "h1_dim": int(lhs),
                "iset_centralizer_ratio": int(rhs_size),
                "iset_n_ratio": int(rhs_n_size),
            }

    return _sweep(trials())


@register("thm5_5", "excess H^1 forces a certified non-inner automorphism", _gen_special)
def check_thm55(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep in find_special_subgroups(g):
            if not rep.special:
                continue
            out = excess_h1_probe(g, rep)
            if isinstance(out, Certificate):
                ok, _ = verify_certificate(g, out)
                yield ok, {"reason": "certificate failed"}
            elif out is not None:
                yield False, dict(out.details)

    return _sweep(trials(), none="H1 bound never met", count="certificates")


def _centralized_part(g: GroupTable, w: Subgroup, a: Subgroup) -> Subgroup:
    """C_W(A): the members of W that commute with every member of A."""
    c = centralizer(g, a)
    return Subgroup(g, w.members[c.bitmap[w.members]], check=False)


@register("ty", "splitting derivations across the centralizer product", _gen_special)
def check_ty(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep in find_special_subgroups(g):
            if not rep.special:
                continue
            n, w = rep.subgroup, rep.layer
            if rep.product.order == n.order or w.order == 1:
                continue
            cert, evidence = try_config(
                g, n, w, "paper", "ty", {"n_members": [int(x) for x in n.members]},
                complement_of=rep.product,
            )
            if evidence is None or (evidence["h1_dim"] == 0):
                continue
            yield cert is not None, {"evidence": evidence}

    return _sweep(trials())


@register("j", "one-step extensions with stable H^1 stay inside Frattini", _gen_special)
def check_j(inst):
    g = _nonabelian_group(inst)
    phi = frattini(g)

    def trials():
        for rep in find_special_subgroups(g):
            if not rep.checks["iset_inside"]:
                continue
            a = rep.subgroup
            for a1 in normals_between(g, lower=a, order=a.order * g.p):
                za1 = subgroup_center(g, a1)
                if not za1.contains_subgroup(center(g)):
                    continue
                w = omega1(g, za1)
                if w.order == 1:
                    continue
                h1_a1 = _h1_dim(g, a1, w)
                if h1_a1 is None or h1_a1 != _h1_dim(g, a, w):
                    continue
                yield phi.contains_subgroup(a1), {"a_order": int(a.order), "a1_order": int(a1.order)}

    return _sweep(trials())


@register("l3_2", "vanishing H^1 forces the socle to be proper", _gen_special)
def check_l32(inst):
    g = _group(inst)

    def trials():
        for n, w in phi_layers(g):
            if _h1_dim(g, n, w) != 0:
                continue
            yield w.order != n.order, {"n_order": int(n.order), "w_order": int(w.order)}

    return _sweep(trials(), none="H1 never vanishes")


@register("xi", "fixed parts over larger subgroups stay n-bounded", _gen_special)
def check_xi(inst):
    g = _nonabelian_group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, _ in _inner_special_layers(g):
            # Every normal A >= N but G itself, the last.
            for a in normals_between(g, lower=rep.subgroup)[:-1]:
                cw = _centralized_part(g, rep.layer, a)
                if cw.order == 1:
                    continue
                got = conjugation_h1(g, a, cw)
                if got is None:
                    continue
                cm, sp = got
                fixed_dim = fixed_points(cm.module).dim
                ok = sp.h_dim <= n_val and fixed_dim == n_val
                yield ok, {"h1": int(sp.h_dim), "n": int(n_val), "fixed_dim": int(fixed_dim)}

    return _sweep(trials())


@register("yu", "excess derivations shrink the fixed part strictly", _gen_special)
def check_yu(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep, h1_n in _inner_special_layers(g):
            normals = normals_between(g, lower=rep.subgroup)
            parts = [_centralized_part(g, rep.layer, a) for a in normals]
            for a2, cw2 in zip(normals, parts):
                for a1, cw1 in zip(normals, parts):
                    if a1.order <= a2.order or cw1.order == 1:
                        continue
                    h1 = _h1_dim(g, a2, cw1)
                    if h1 is None or h1 < h1_n + 1:
                        continue
                    yield cw1.order < cw2.order, {"cw1": int(cw1.order), "cw2": int(cw2.order), "h1": int(h1)}

    return _sweep(trials())


@register("hh", "self-centralizing layers: a certificate or a smaller layer", _gen_special)
def check_hh(inst):
    g = _group(inst)
    phi = frattini(g)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for n, w in phi_layers(g):
            if not _self_centralizing(g, n):
                continue
            m = _h1_dim(g, n, w)
            if m is None or m >= n_val:
                continue
            # Every normal N1 < N: the last of those <= N is N itself.
            below = normals_between(g, upper=n, within=phi)[:-1]
            smaller = any(_self_centralizing(g, n1) for n1 in below)
            yield engine_sweep(g) is not None or smaller, {"m": int(m), "n": int(n_val)}

    return _sweep(trials())


@register("ll", "layer centralizers stay cyclic modulo the layer", _gen_special)
def check_ll(inst):
    g = _nonabelian_group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, h1 in _inner_special_layers(g):
            if h1 != n_val:
                continue
            wz = set_product(g, rep.layer, center(g))
            for n1 in normals_between(g, lower=wz):
                cn1 = centralizer(g, n1)
                top = set_product(g, cn1, rep.subgroup)
                ok = is_cyclic_quotient(g, top, rep.subgroup)
                yield ok, {"n1_order": int(n1.order), "top_order": int(top.order)}

    return _sweep(trials())


@register("qp", "a centralizer escaping Frattini yields a non-inner map", _gen_special)
def check_qp(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep in find_special_subgroups(g):
            if not rep.checks["iset_inside"] or rep.checks["product_inside_frattini"]:
                continue
            yield engine_sweep(g) is not None, {"n_order": int(rep.subgroup.order)}

    return _sweep(trials())


@register("kl", "a layer below the special subgroup exists", _gen_special)
def check_kl(inst):
    g = _nonabelian_group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, h1 in _inner_special_layers(g):
            if h1 != n_val:
                continue
            n = rep.subgroup
            wz = set_product(g, rep.layer, center(g))
            layers = normals_between(g, lower=wz, upper=n, order=n.order // g.p)
            yield bool(layers), {"n_order": int(n.order)}

    return _sweep(trials())


def _trichotomy(g: GroupTable, rep: SpecialReport, specials: List[SpecialReport]) -> Outcome:
    """(1) certificate, (2) smaller special, (3) same order, larger I."""
    n = rep.subgroup
    size = rep.witness["iset_size"]
    cert = engine_sweep(g)
    smaller = any(r.subgroup.order < n.order for r in specials)
    bigger_i = any(
        r.subgroup.order == n.order and r.witness["iset_size"] > size for r in specials
    )
    details = {
        "certificate": cert is not None,
        "smaller_special": smaller,
        "same_order_bigger_iset": bigger_i,
    }
    return (cert is not None) or smaller or bigger_i, details


def _trichotomy_sweep(g: GroupTable, keep=None) -> Outcome:
    """The trichotomy on the special layers with inner induced maps that
    ``keep(rep, h1_dim)`` selects; without ``keep``, on every special
    subgroup.  The search sweep runs at the first layer kept, once per table."""
    specials = [r for r in find_special_subgroups(g) if r.special]
    if keep is None:
        return _sweep((_trichotomy(g, rep, specials) for rep in specials), none="no special subgroup")
    layers = _inner_special_layers(g)
    return _sweep(_trichotomy(g, rep, specials) for rep, h1 in layers if keep(rep, h1))


def _cyclic_layer(g: GroupTable, rep: SpecialReport) -> bool:
    """Is N/(W·Z(G)) cyclic?"""
    return is_cyclic_quotient(g, rep.subgroup, set_product(g, rep.layer, center(g)))


def _self_centralizing(g: GroupTable, n: Subgroup) -> bool:
    """The outer centralizer part of N is trivial: C_G(N) <= N."""
    return n.contains_subgroup(centralizer(g, n))


def _noncyclic_double_layer(g: GroupTable, n: Subgroup) -> bool:
    """N/(W·Z(G)), W = Omega_1(Z(N)), is non-cyclic of order p^2."""
    wz = set_product(g, omega1(g, subgroup_center(g, n)), center(g))
    return (
        n.contains_subgroup(wz)
        and n.order == wz.order * g.p**2
        and not is_cyclic_quotient(g, n, wz)
    )


@register("xx", "trichotomy for non-cyclic layers", _gen_special)
def check_xx(inst):
    g = _nonabelian_group(inst)
    return _trichotomy_sweep(
        g,
        lambda rep, h1: h1 == subgroup_rank(g, center(g)) and not _cyclic_layer(g, rep),
    )


@register("xy", "two extra derivation classes force a non-inner map", _gen_special)
def check_xy(inst):
    g = _nonabelian_group(inst)

    def trials():
        for rep, h1_n in _inner_special_layers(g):
            n, w = rep.subgroup, rep.layer
            wz = set_product(g, w, center(g))
            zn = subgroup_center(g, n)
            # Every normal N1 < N over W Z(G): N itself, if listed, is last.
            for n1 in normals_between(g, lower=wz, upper=n)[:-1]:
                if set_product(g, zn, n1).order != n.order:
                    continue
                cert, ev = try_config(g, n1, w, "paper", "xy", None, complement_of=n)
                if ev is None or ev["h1_dim"] < h1_n + 2:
                    continue
                yield cert is not None, {"evidence": ev}

    return _sweep(trials())


@register("t9_2", "layer trichotomy with growing p-th power sets", _gen_special)
def check_t92(inst):
    g = _nonabelian_group(inst)
    return _trichotomy_sweep(
        g,
        lambda rep, h1: h1 == subgroup_rank(g, center(g)) and rep.product.order == rep.subgroup.order,
    )


@register("tt", "trichotomy with trivial outer centralizer part", _gen_special)
def check_tt(inst):
    """The trichotomy on the special layers whose outer centralizer part is
    trivial, read as C_G(N) <= N (``_self_centralizing``)."""
    g = _nonabelian_group(inst)
    return _trichotomy_sweep(g, lambda rep, h1: _self_centralizing(g, rep.subgroup))


@register("xpl", "trichotomy for cyclic layers", _gen_special)
def check_xpl(inst):
    g = _nonabelian_group(inst)
    return _trichotomy_sweep(g, lambda rep, h1: _cyclic_layer(g, rep))


@register("qk", "non-cyclic double layers force a non-inner map", _gen_special)
def check_qk(inst):
    """The trichotomy on the special layers that are non-cyclic double layers,
    read as N/(W·Z(G)) non-cyclic of order p^2 (``_noncyclic_double_layer``)."""
    g = _nonabelian_group(inst)
    return _trichotomy_sweep(g, lambda rep, h1: _noncyclic_double_layer(g, rep.subgroup))


@register("ui", "the full special-subgroup trichotomy", _gen_special)
def check_ui(inst):
    return _trichotomy_sweep(_nonabelian_group(inst))


@register("cor18", "every non-abelian p-group here has a certified non-inner map", _gen_special)
def check_cor18(inst):
    g = _group(inst)
    cert = engine_sweep(g)
    details: Dict[str, object] = {"found": cert is not None}
    if cert is not None:
        ok, _ = verify_certificate(g, cert)
        details["verified"] = ok
        if not ok:
            return False, details
    if g.order <= BRUTE_FORCE_LIMIT:
        details["brute_force_found"] = exhaustive_noninner(g) is not None
        if details["brute_force_found"] != (cert is not None):
            return False, details
    return cert is not None, details


@register("tu_coker", "cokernel bound for the relation map of a lifted module", _gen_transfer)
def check_tu(inst):
    g, ext, tp = _build_transfer(inst)
    p = g.p
    n, t = tp.n, ext.t
    fbt = tp.free_total
    rng = np.random.default_rng(int(inst["seed"]))
    # left T-submodule Q with small generator count
    m_gens = 1 + int(inst["seed"]) % 2
    gens_rows = rng.integers(0, p, size=(m_gens, fbt.dim))
    q = free_submodule_closure(fbt, gens_rows, "left")
    if q.dim == 0:
        raise Skip("zero module")
    lmod = restrict_action(fbt.as_gmodule("left"), q)
    d_t = d_G(lmod)
    down_img = FpSubspace.from_rows((q.basis @ tp.down) % p, p, tp.free_base.dim)
    try:
        bmod = restrict_action(tp.free_base.as_gmodule("left"), down_img)
        d_g_img = d_G(bmod)
    except ModuleError:
        raise Skip("image not a base submodule")
    if d_t != d_g_img or d_t > n:
        raise Skip(f"generator gate fails (d_T={d_t}, d_img={d_g_img}, n={n})")
    gens_min = minimal_generators(lmod)
    xs = [(v @ q.basis) % p for v in gens_min]
    mlen = len(xs)
    # phi: prod^m F_p(T) -> prod^n F_p(T): (b_i) -> sum_i (b_i,..,b_i) x_i
    phi_matrix = tuple_product_matrix(fbt, xs, "left")
    kd = kernel_of_down(tp)
    i2 = filtration(tp, 2)
    # D = preimage of ker(down); the image of xi is (D @ phi) + I2 in ker(down)
    kd_perp_rows = (phi_matrix @ tp.down) % p  # images under down
    d_space = fl.left_kernel_basis(kd_perp_rows, p)
    img_rows = (d_space @ phi_matrix) % p
    img_plus = FpSubspace.from_rows(np.vstack([img_rows, i2.basis]), p, fbt.dim)
    coker_log = kd.dim - img_plus.dim
    bound_log = (n * t - mlen) * g.order - (t - 1) * down_img.dim
    return coker_log >= bound_log, {"coker_log": int(coker_log), "bound_log": int(bound_log), "m": mlen}
