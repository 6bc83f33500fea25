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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .catalog import CatalogEntry, CatalogError, builtin_catalog, find_entry
from .cohomology import (
    TwoCocycle,
    cohomology,
    conjugation_h1,
    derivation_to_automorphism,
    h1_dim_of_submodule,
    inflate_module,
    zero_two_cocycle,
)
from .extensions import (
    ExtensionResult,
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
    Subgroup,
    center,
    centralizer,
    elementary_abelian_normals,
    frattini,
    is_cyclic_quotient,
    is_isomorphic,
    iset,
    map_order,
    normal_subgroups,
    omega1,
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
    sample_nG_module,
    submodule_fixed_points,
    trivial_module,
)
from .noninner import (
    Certificate,
    NoninnerError,
    SpecialReport,
    brute_force_order_p_noninner,
    engine_sweep,
    excess_h1_probe,
    find_special_subgroups,
    probe_configuration,
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


def run_check(check_id: str, instance: Dict[str, object]) -> CheckVerdict:
    cid = ALIASES.get(check_id, check_id)
    if cid not in CHECKS:
        raise KeyError(f"unknown check_id {check_id!r}")
    return CHECKS[cid].run(instance)


# -- shared materialization helpers ----------------------------------------------


def _group(instance: Dict[str, object]) -> GroupTable:
    if "group_table" in instance:
        return instance["group_table"]
    return find_entry(str(instance["group"])).group()


def _carrier(g: GroupTable, n: int, seed: int, socle: bool = True, extra: int = 1):
    fb = FreeBimodule(g, n)
    return fb, random_right_submodule(fb, np.random.default_rng(seed), extra, socle)


def _restricted(fb: FreeBimodule, carrier, side="right") -> GModule:
    mod, _ = restrict_action(fb.as_gmodule(side), carrier)
    return mod


def _h1_of_module(g: GroupTable, m: GModule) -> int:
    return cohomology(g, m, 1, want_reps=False).h_dim


def _nontrivial_2cocycle(g: GroupTable, m: GModule, index: int = 0) -> Optional[TwoCocycle]:
    sp = cohomology(g, m, 2)
    if sp.h_dim == 0:
        return None
    return sp.h_reps[index % len(sp.h_reps)]


def _sampled_nG(g: GroupTable, n: int, seed: int):
    """(fb, carrier, fixed_dim, h1) for a seeded socle-containing sample."""
    s = sample_nG_module(g, n, seed, h1_fn=h1_dim_of_submodule)
    return s.free, s.carrier, s.fixed_dim, s.h1_dim


def _quotient_mod_cocycle(
    g: GroupTable, nmod: GModule, f: TwoCocycle, sub: FpSubspace
) -> Tuple[GModule, TwoCocycle]:
    """Push a cocycle along nmod -> nmod/sub."""
    qmod, comp = quotient_module(nmod, sub)
    basis_full = np.vstack([sub.basis, comp]) if sub.dim else comp
    q, d = g.order, nmod.dim
    coords = fl.solve_left(basis_full, f.table.reshape(q * q, d), g.p)
    tab = coords[:, sub.dim :].reshape(q, q, qmod.dim)
    return qmod, TwoCocycle(g, qmod, tab)


def _subgroup_table(g: GroupTable, s: Subgroup) -> Tuple[GroupTable, np.ndarray]:
    """A subgroup as its own multiplication table plus the member lookup."""
    members = s.members
    pos = -np.ones(g.order, dtype=np.int64)
    pos[members] = np.arange(members.size)
    mul = pos[g.mul[np.ix_(members, members)]]
    return GroupTable(g.p, mul, check=False, name=f"{g.name}|sub"), members


def _small_nonabelian(cat, max_order):
    return [e for e in cat if e.order <= max_order and not e.group().is_abelian()]


def _tiny_groups(cat, names=("C2", "C3", "C4", "C2xC2")):
    out = []
    for nm in names:
        try:
            out.append(find_entry(nm, cat))
        except CatalogError:
            continue
    return out


# -- module-theory checks ---------------------------------------------------------


def _gen_modules(cat, seed, limit):
    out = []
    for i, e in enumerate(_tiny_groups(cat) + _small_nonabelian(cat, 8)):
        for n in (1, 2):
            for k in range(2):
                out.append({"group": e.name, "n": n, "seed": seed + 17 * i + k})
    return out[:limit]


@register("gen_count", "every minimal generator set has size d_G", _gen_modules)
def check_gen_count(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
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
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    if carrier.dim == 0:
        raise Skip("zero module")
    mod = _restricted(fb, carrier)
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
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
    if fixed_points(mod).dim < 1:
        raise Skip("no fixed points")
    emb = embed_into_free(mod)
    fixed = fixed_points(mod)
    socle_img = (fixed.basis @ emb.matrix) % g.p
    socle_ok = np.array_equal(socle_img, emb.free.socle_basis())
    equiv_ok = True
    for h in g.generating_sequence():
        lhs = (mod.act[h] @ emb.matrix) % g.p
        rhs = (emb.matrix @ emb.free.right_element_action(h)) % g.p
        if not np.array_equal(lhs, rhs):
            equiv_ok = False
    ok = emb.injective and socle_ok and equiv_ok
    return ok, {"injective": emb.injective, "socle_prescribed": bool(socle_ok), "equivariant": bool(equiv_ok)}


@register("free_iff_h1zero", "vanishing H^1 forces an explicit free decomposition", _gen_modules)
def check_free_iff_h1zero(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    if carrier.dim == 0:
        raise Skip("zero module")
    mod = _restricted(fb, carrier)
    h1 = _h1_of_module(g, mod)
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
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
    lhs = fixed_points(dual_module(mod)).dim
    rhs = d_G(mod)
    return lhs == rhs, {"dual_fixed_dim": int(lhs), "d_G": int(rhs)}


@register("dual_gens", "generator count of the dual equals the fixed-point dim", _gen_modules)
def check_dual_gens(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
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
    fb, carrier = _carrier(g, n, int(inst["seed"]))
    fixed = submodule_fixed_points(fb, carrier, "right")
    if fixed.dim != n:
        raise Skip("socle not full")
    m = h1_dim_of_submodule(fb, carrier)
    left = annihilator(fb, carrier, "left_of_right")
    if left.dim == 0:
        d_left = 0
    else:
        lmod, _ = restrict_action(fb.as_gmodule("left"), left)
        d_left = d_G(lmod)
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
    t = int(inst["t"])
    m = trivial_module(g, t)
    sp = cohomology(g, m, 2)
    if sp.h_dim:
        f = sp.h_reps[int(inst["seed"]) % len(sp.h_reps)]
    else:
        f = zero_two_cocycle(g, m)
    ext = build_extension(g, m, f)
    return g, ext, transfer_maps(ext, int(inst["n"]))


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
        R = tp.free_total.right_element_action(a)
        if not np.array_equal((tp.up @ R) % p, tp.up % p):
            trivial_action = False
    equivariant = True
    for h in range(ext.total.order):
        hg = ext.projection(h)
        lhs = (tp.free_base.right_element_action(hg) @ tp.up) % p
        rhs = (tp.up @ tp.free_total.right_element_action(h)) % p
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
                tp.free_total.right_element_action(a),
                tp.free_total.left_element_action(a),
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


def _growth_instance(inst):
    g = _group(inst)
    n = int(inst["n"])
    seed = int(inst["seed"])
    fb = FreeBimodule(g, n)
    if inst.get("kind") == "radical":
        # The radical of the free module: an exactly-n module (H^1 = n).
        carrier = radical(fb.as_gmodule("right"))
        fixed_dim = submodule_fixed_points(fb, carrier, "right").dim
        h1 = h1_dim_of_submodule(fb, carrier)
    elif seed % 4 == 0:
        carrier = FpSubspace.full(fb.dim, g.p)
        fixed_dim, h1 = n, 0
    else:
        fb, carrier, fixed_dim, h1 = _sampled_nG(g, n, seed)
    return g, fb, carrier, fixed_dim, h1


@register("gg_growth", "H^1 grows by at least n-m under a nonsplit C_p extension", _gen_growth_strict)
def check_gg(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        raise Skip("H^2 trivial")
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
    return h1_ext >= m + (n - m), {"n": n, "m": int(m), "h1_extension": int(h1_ext), "lower_bound": int(n)}


@register("yy_upper", "H^1 grows by at most n*t under any kernel extension", _gen_growth)
def check_yy(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m > n:
        raise Skip(f"fixed={fixed_dim}, m={m}")
    t = 1 + int(inst["seed"]) % 2
    pmod = trivial_module(g, t)
    sp = cohomology(g, pmod, 2)
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim] if sp.h_dim else zero_two_cocycle(g, pmod)
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
    ok = h1_ext <= m + n * t
    return ok, {"n": n, "m": int(m), "t": t, "h1_extension": int(h1_ext), "upper_bound": int(m + n * t)}


def _up_carrier(tp, carrier):
    rows = (carrier.basis @ tp.up) % tp.ext.total.p
    return FpSubspace.from_rows(rows, tp.ext.total.p, tp.free_total.dim)


@register("jj_lower", "annihilator of a lifted module needs at least n generators", _gen_growth_strict)
def check_jj(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        raise Skip("H^2 trivial")
    ext = build_extension(g, cp, f)
    tp = transfer_maps(ext, n)
    q_up = _up_carrier(tp, carrier)
    lt = annihilator(tp.free_total, q_up, "left_of_right")
    lmod, _ = restrict_action(tp.free_total.as_gmodule("left"), lt)
    s = d_G(lmod)
    return s >= n, {"n": n, "m": int(m), "annihilator_generators": int(s)}


@register("cor8_0", "stable H^1 under central extension forces the maximum", _gen_growth)
def check_cor8(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m < 0 or m > n:
        raise Skip(f"fixed={fixed_dim}")
    cp = trivial_module(g, 1)
    sp = cohomology(g, cp, 2)
    if sp.h_dim == 0:
        raise Skip("H^2 trivial")
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
    if h1_ext != m:
        raise Skip(f"H1 changed ({m} -> {h1_ext})")
    return m == n, {"n": n, "m": int(m), "h1_extension": int(h1_ext)}


@register("aa_cases", "rank-t kernel growth laws", _gen_growth_strict)
def check_aa(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        raise Skip(f"fixed={fixed_dim}, m={m}")
    t = 2
    pmod = trivial_module(g, t)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        raise Skip("H^2 trivial")
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    tp = transfer_maps(ext, n)
    q_up = _up_carrier(tp, carrier)
    qmod_t, _ = restrict_action(tp.free_total.as_gmodule("right"), q_up)
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
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n:
        raise Skip(f"fixed={fixed_dim}")
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        raise Skip("H^2 trivial")
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)  # P1 = second coordinate
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    h1_mid = _h1_of_module(ext1.total, inflate_module(qmod, ext1.projection))
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
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m != n:
        raise Skip(f"fixed={fixed_dim}, m={m} != n")
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        raise Skip("H^2 trivial")
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    h1_mid = _h1_of_module(ext1.total, inflate_module(qmod, ext1.projection))
    if h1_mid != m:
        raise Skip("quotient layer moved H1")
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
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
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    if fixed_dim != 1 or m > 1:
        raise Skip("not a 1-module")
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        raise Skip("H^2 trivial")
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, inflate_module(qmod, ext.projection))
    if h1_ext != m:
        raise Skip("H1 moved")
    if ext.total.order > 16 or qmod.dim > 6:
        raise Unsupported("H^2 instance too large")
    h2 = cohomology(ext.total, inflate_module(qmod, ext.projection), 2, want_reps=False).h_dim
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
    g = _group(inst)
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim] if sp.h_dim else zero_two_cocycle(g, pmod)
    ext = build_extension(g, pmod, f)
    T = ext.total
    fbT, carrier, fixed_dim, m = _sampled_nG(T, 1, int(inst["seed"]))
    if fixed_dim != 1 or m > 1:
        raise Skip("not a 1-module over the extension")
    # fixed points under the kernel subgroup
    kernel_acts = [fbT.right_element_action(a) for a in ext.kernel_generators()]
    qn = fixed_under(kernel_acts, T.p, fbT.dim).intersect(carrier)
    ok = carrier.dim >= T.p * qn.dim
    return ok, {"dim_Q": int(carrier.dim), "dim_Q_fixed_by_kernel": int(qn.dim), "p": T.p}


@register("rty_eq", "stable 1-modules meet the kernel bound with equality and cyclic fixed part", _gen_dp)
def check_rty(inst):
    g = _group(inst)
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        raise Skip("H^2 trivial")
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    T1 = ext1.total
    fb1, carrier, fixed_dim, m = _sampled_nG(T1, 1, int(inst["seed"]))
    if fixed_dim != 1 or m > 1:
        raise Skip("not a 1-module")
    qmod1 = _restricted(fb1, carrier)
    # View the module over the bigger extension through the collapse map.
    collapse = _collapse_map(ext, ext1)
    qmod_T = inflate_module(qmod1, collapse)
    h1_T1 = _h1_of_module(T1, qmod1)
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
    mins = [
        s
        for s in normal_subgroups(g)
        if s.order == g.p and s.order > 1
    ]
    if not mins:
        raise Skip("no minimal normal subgroup")
    nsub = mins[int(inst["seed"]) % len(mins)]
    fb, carrier = _carrier(g, 1, int(inst["seed"]), socle=True, extra=2)
    mod = _restricted(fb, carrier)
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
    dq = [e for e in cat if e.matches("dihedral") or e.matches("quaternion")]
    matches = any(e.order == g.order and is_isomorphic(e.group(), g) for e in dq)
    details["structure_claim_dihedral_or_quaternion"] = bool(matches)
    if not matches:
        return False, details
    # Generator-count claim on a small stable instance: a 1-module over G/N
    # whose H^1 does not move under inflation gives d(ext) = d(G) + 1.
    d_g = _d_of_group(g)
    mins = [s for s in normal_subgroups(g) if s.order == g.p]
    rank_results = []
    candidates = []
    for nsub in mins[:1]:
        qt, qm = quotient(g, nsub)
        fbq = FreeBimodule(qt, 1)
        rad = radical(fbq.as_gmodule("right"))
        candidates.append((qt, qm, fbq, rad))
        fb2, car2, fd2, m2 = _sampled_nG(qt, 1, int(inst["seed"]))
        if fd2 == 1 and m2 <= 1:
            candidates.append((qt, qm, fb2, car2))
    for qt, qm, fbq, carrier in candidates:
        fixed_dim = submodule_fixed_points(fbq, carrier, "right").dim
        m = h1_dim_of_submodule(fbq, carrier)
        if fixed_dim != 1 or m > 1:
            continue
        qmod_quot = _restricted(fbq, carrier)
        pi = GroupMap(g, qt, qm.image_of, check=False)
        qmod = inflate_module(qmod_quot, pi)
        if _h1_of_module(g, qmod) != _h1_of_module(qt, qmod_quot):
            continue
        if g.order * (g.p**qmod.dim) > 256 or g.order > 16:
            continue
        sp = cohomology(g, qmod, 2)
        taus = (sp.h_reps[:1] if sp.h_dim else []) + [zero_two_cocycle(g, qmod)]
        for f in taus:
            ext = build_extension(g, qmod, f)
            rank_results.append(int(_d_of_group(ext.total)))
        details["d_base"] = int(d_g)
        details["d_extensions"] = rank_results
        if any(r != d_g + 1 for r in rank_results):
            return False, details
    return True, details


def _ceil_log(p: int, x: int) -> int:
    """The least k with p**k >= x."""
    k = 0
    while p**k < x:
        k += 1
    return k


def _d_of_group(g: GroupTable) -> int:
    return _ceil_log(g.p, g.order // frattini(g).order)


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
    seed = int(inst["seed"])
    fb = FreeBimodule(g, 1)
    carriers = [
        FpSubspace.from_rows(fb.socle_basis(), g.p, fb.dim),  # trivial 1-module
        radical(fb.as_gmodule("right")),
    ]
    fb2, car2, fd2, m2 = _sampled_nG(g, 1, seed)
    if fd2 == 1 and m2 <= 1:
        carriers.append(car2)
    cyclic_subs = []
    seen_keys = set()
    for x in range(1, g.order):
        s = subgroup_closure(g, [x])
        if s.order < g.order and s.key() not in seen_keys:
            seen_keys.add(s.key())
            cyclic_subs.append(s)

    def trials():
        for carrier in carriers:
            if submodule_fixed_points(fb, carrier, "right").dim != 1:
                continue
            m_dim = h1_dim_of_submodule(fb, carrier)
            if m_dim > 1:
                continue
            qmod = _restricted(fb, carrier)
            if qmod.dim > 4 or g.order * (g.p**qmod.dim) > 256:
                continue
            for nsub in cyclic_subs:
                qt, qm = quotient(g, nsub)
                qn_carrier = fixed_under([qmod.act[int(a)] for a in nsub.members[1:]], g.p, qmod.dim)
                try:
                    qn_mod, _ = restrict_action(qmod, qn_carrier)
                except ModuleError:
                    continue
                qn_over_quot = GModule(qt, qn_mod.act[qm.section], check=False)
                if _h1_of_module(g, qn_mod) != _h1_of_module(qt, qn_over_quot):
                    continue
                sp = cohomology(g, qmod, 2)
                d_g = _d_of_group(g)
                taus = (sp.h_reps[:2] if sp.h_dim else []) + [zero_two_cocycle(g, qmod)]
                results = [int(_d_of_group(build_extension(g, qmod, f).total)) for f in taus]
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
    mins = [s for s in normal_subgroups(g) if s.order == g.p]
    if len(mins) < 2:
        raise Skip("needs two minimal normals")
    seed = int(inst["seed"])
    n1 = mins[seed % len(mins)]
    n2 = mins[(seed + 1) % len(mins)]
    if n1 == n2:
        raise Skip("same subgroup")
    qt, qm = quotient(g, n1)
    fbq, carrier, fixed_dim, m = _sampled_nG(qt, 1, seed)
    if fixed_dim != 1 or m > 1:
        raise Skip("not a 1-module")
    qmod_quot = _restricted(fbq, carrier)
    pi = GroupMap(g, qt, qm.image_of, check=False)
    qmod = inflate_module(qmod_quot, pi)
    both = set_product(g, n1, n2)
    cq = fixed_under([qmod.act[int(a)] for a in both.members[1:]], g.p, qmod.dim)
    if qmod.dim != g.p * cq.dim or cq.dim == 0:
        raise Skip("dimension gate fails")
    try:
        cq_mod, _ = restrict_action(qmod, cq)
    except ModuleError:
        raise Skip("fixed part unstable")
    cq_over_quot_act = cq_mod.act[qm.section]
    cq_quot = GModule(qt, cq_over_quot_act, check=False)
    lhs = _h1_of_module(g, cq_mod) == _h1_of_module(qt, cq_quot)
    rhs = _h1_of_module(g, qmod) == _h1_of_module(qt, qmod_quot)
    return lhs == rhs, {"fixed_part_stable": bool(lhs), "module_stable": bool(rhs)}


@register("du_growth", "radical cohomology grows by one under module extensions", _gen_jx)
def check_du(inst):
    g = _group(inst)
    cyclics = [s for s in normal_subgroups(g) if s.order == g.p]
    if not cyclics:
        raise Skip("no cyclic normal")
    nsub = cyclics[int(inst["seed"]) % len(cyclics)]
    qt, qm = quotient(g, nsub)
    fbq = FreeBimodule(qt, 1)
    carriers = [
        FpSubspace.full(fbq.dim, g.p),
        radical(fbq.as_gmodule("right")),
    ]
    fb2, car2, fd2, m2 = _sampled_nG(qt, 1, int(inst["seed"]))
    if fd2 == 1 and m2 <= 1:
        carriers.append(car2)

    def trials():
        for carrier in carriers:
            if submodule_fixed_points(fbq, carrier, "right").dim != 1:
                continue
            if h1_dim_of_submodule(fbq, carrier) > 1:
                continue
            qmod_quot = _restricted(fbq, carrier)
            pi = GroupMap(g, qt, qm.image_of, check=False)
            qmod = inflate_module(qmod_quot, pi)
            if _h1_of_module(g, qmod) != _h1_of_module(qt, qmod_quot):
                continue
            rad = radical(qmod)
            if rad.dim == 0:
                continue
            if qmod.dim > 8 or g.order > 16:
                continue
            # The claim quantifies over cocycles on Q itself, pushed along the
            # radical quotient; classes on Q/J(Q) that do not lift are out of scope.
            sp_full = cohomology(g, qmod, 2)
            taus = (sp_full.h_reps[:2] if sp_full.h_dim else []) + [
                zero_two_cocycle(g, qmod)
            ]
            try:
                rad_mod, _ = restrict_action(qmod, rad)
            except ModuleError:
                continue
            h1_base = _h1_of_module(g, rad_mod)
            for f_full in taus:
                head, fbar = _quotient_mod_cocycle(g, qmod, f_full, rad)
                if g.order * (g.p**head.dim) > 256:
                    continue
                ext = build_extension(g, head, fbar)
                h1_ext = _h1_of_module(ext.total, inflate_module(rad_mod, ext.projection))
                yield h1_ext == h1_base + 1, {
                    "h1_base": int(h1_base),
                    "h1_extension": int(h1_ext),
                    "cocycle_nonzero": bool(not f_full.is_zero()),
                }

    return _sweep(trials(), none="gates never met")


# -- derivation / automorphism checks ----------------------------------------------


def _gen_lp(cat, seed, limit):
    out = []
    for e in _small_nonabelian(cat, 32):
        out.append({"group": e.name, "seed": seed})
    return out[:limit]


@register("lp_order", "derivation-induced maps have order p", _gen_lp)
def check_lp(inst):
    g = _group(inst)
    phi = frattini(g)

    def trials():
        for n in normal_subgroups(g, within=phi):
            if n.order == 1:
                continue
            w = omega1(g, subgroup_center(g, n))
            if w.order == 1:
                continue
            candidates = [
                x for x in normal_subgroups(g)
                if x.contains_subgroup(w) and n.contains_subgroup(x)
            ]
            for n1 in candidates:
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


def _gen_special(cat, seed, limit):
    out = []
    for e in _small_nonabelian(cat, 64):
        out.append({"group": e.name, "seed": seed})
    return out[:limit]


@register("ij_bound", "p-th power index bound inside normal subgroups", _gen_special)
def check_ij(inst):
    g = _group(inst)
    z = center(g)
    n_val = subgroup_rank(g, z)

    def trials():
        for n in normal_subgroups(g):
            if n.order == 1:
                continue
            # gate: [N,N] <= Z(G) <= N and Omega1(N) abelian
            if not n.contains_subgroup(z):
                continue
            comm_in_z = all(
                z.contains(g.commutator(int(x), int(y)))
                for x in n.members
                for y in n.members
            )
            if not comm_in_z:
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


def _special_reports(g: GroupTable) -> List[SpecialReport]:
    """The special-subgroup reports of every normal N inside Phi(G)."""
    try:
        return find_special_subgroups(g)
    except NoninnerError:
        return []


def _special_instances(g: GroupTable) -> List[SpecialReport]:
    return [r for r in _special_reports(g) if r.special]


class _Sweep:
    """engine_sweep(g) and the special subgroups of g for one check
    instance, each computed on first use and at most once."""

    def __init__(self, g: GroupTable):
        self.g = g

    @cached_property
    def certificate(self) -> Optional[Certificate]:
        return engine_sweep(self.g)

    @cached_property
    def specials(self) -> List[SpecialReport]:
        return _special_instances(self.g)


def _h1_dim(g: GroupTable, n1: Subgroup, w: Subgroup) -> Optional[int]:
    """dim H^1(G/N1, W) of the conjugation module, or None without one."""
    got = conjugation_h1(g, n1, w, want_reps=False)
    return None if got is None else got[1].h_dim


def _all_inner(g: GroupTable, n1: Subgroup, w: Subgroup) -> Tuple[bool, int]:
    """(gate, dim H^1): the gate holds when W is a G/N1-module by conjugation
    and every derivation class induces an inner map."""
    _, evidence = try_config(g, n1, w, "paper", "all_inner")
    if evidence is None:
        return False, 0
    return evidence["all_inner"], evidence["h1_dim"]


def _inner_special_layers(g: GroupTable, specials: List[SpecialReport]):
    """(rep, W, dim H^1(G/N, W)) for every special N with W = Omega_1(Z(N))
    != 1 whose induced maps are all inner."""
    for rep in specials:
        w = omega1(g, subgroup_center(g, rep.subgroup))
        if w.order == 1:
            continue
        gate, h1 = _all_inner(g, rep.subgroup, w)
        if gate:
            yield rep, w, h1


@register("ddd_iso", "inner derivation classes match the p-th power set", _gen_special)
def check_ddd(inst):
    g = _group(inst)

    def trials():
        for rep in _special_instances(g):
            n = rep.subgroup
            a, w = probe_configuration(g, rep)
            if w.order == 1:
                continue
            gate, lhs = _all_inner(g, a, w)
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
    g = _group(inst)

    def trials():
        for rep in _special_instances(g):
            out = excess_h1_probe(g, rep)
            if out.status == "certificate":
                ok, _ = verify_certificate(g, out.certificate)
                yield ok, {"reason": "certificate failed"}
            elif out.status == "diagnostic":
                yield False, dict(out.diagnostic.details)

    return _sweep(trials(), none="H1 bound never met", count="certificates")


def _centralized_part(g: GroupTable, w: Subgroup, a: Subgroup) -> Subgroup:
    """C_W(A): the members of W that commute with every member of A."""
    c = centralizer(g, a)
    return Subgroup(g, w.members[c.bitmap[w.members]], check=False)


@register("ty", "splitting derivations across the centralizer product", _gen_special)
def check_ty(inst):
    g = _group(inst)

    def trials():
        for rep in _special_instances(g):
            n = rep.subgroup
            c = rep.centralizer
            a = set_product(g, n, c)
            if a.order == n.order:
                continue
            w = omega1(g, subgroup_center(g, n))
            if w.order == 1:
                continue
            cert, evidence = try_config(
                g, n, w, "paper", "ty", {"n_members": [int(x) for x in n.members]},
                complement_of=a,
            )
            if evidence is None or (evidence["h1_dim"] == 0):
                continue
            yield cert is not None, {"evidence": evidence}

    return _sweep(trials())


@register("j", "one-step extensions with stable H^1 stay inside Frattini", _gen_special)
def check_j(inst):
    g = _group(inst)
    phi = frattini(g)
    normals = normal_subgroups(g)

    def trials():
        for rep in _special_reports(g):
            if not rep.checks["iset_inside"]:
                continue
            a = rep.subgroup
            for a1 in normals:
                if a1.order != a.order * g.p or not a1.contains_subgroup(a):
                    continue
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
    phi = frattini(g)

    def trials():
        for n in normal_subgroups(g, within=phi):
            if n.order == 1:
                continue
            w = omega1(g, subgroup_center(g, n))
            if w.order == 1:
                continue
            if _h1_dim(g, n, w) != 0:
                continue
            yield w.order != n.order, {"n_order": int(n.order), "w_order": int(w.order)}

    return _sweep(trials(), none="H1 never vanishes")


@register("xi", "fixed parts over larger subgroups stay n-bounded", _gen_special)
def check_xi(inst):
    g = _group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, w, _ in _inner_special_layers(g, _special_instances(g)):
            for a in normal_subgroups(g):
                if not a.contains_subgroup(rep.subgroup) or a.order == g.order:
                    continue
                cw = _centralized_part(g, w, a)
                if cw.order == 1:
                    continue
                got = conjugation_h1(g, a, cw, want_reps=False)
                if got is None:
                    continue
                cm, sp = got
                fixed_dim = fixed_points(cm.module).dim
                ok = sp.h_dim <= n_val and fixed_dim == n_val
                yield ok, {"h1": int(sp.h_dim), "n": int(n_val), "fixed_dim": int(fixed_dim)}

    return _sweep(trials())


@register("yu", "excess derivations shrink the fixed part strictly", _gen_special)
def check_yu(inst):
    g = _group(inst)

    def trials():
        for rep, w, h1_n in _inner_special_layers(g, _special_instances(g)):
            normals = [a for a in normal_subgroups(g) if a.contains_subgroup(rep.subgroup)]
            parts = [_centralized_part(g, w, a) for a in normals]
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
    sweep = _Sweep(g)

    def trials():
        for n in normal_subgroups(g, within=phi):
            if not _self_centralizing(g, n):
                continue
            w = omega1(g, subgroup_center(g, n))
            if w.order == 1:
                continue
            m = _h1_dim(g, n, w)
            if m is None or m >= n_val:
                continue
            smaller = any(
                centralizer(g, n1).order <= n1.order and n1.order < n.order
                for n1 in normal_subgroups(g)
                if n.contains_subgroup(n1)
            )
            yield sweep.certificate is not None or smaller, {"m": int(m), "n": int(n_val)}

    return _sweep(trials())


@register("ll", "layer centralizers stay cyclic modulo the layer", _gen_special)
def check_ll(inst):
    g = _group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, w, h1 in _inner_special_layers(g, _special_instances(g)):
            if h1 != n_val:
                continue
            wz = set_product(g, w, center(g))
            for n1 in normal_subgroups(g):
                if not n1.contains_subgroup(wz):
                    continue
                cn1 = centralizer(g, n1)
                top = set_product(g, cn1, rep.subgroup)
                ok = is_cyclic_quotient(g, top, rep.subgroup)
                yield ok, {"n1_order": int(n1.order), "top_order": int(top.order)}

    return _sweep(trials())


@register("qp", "a centralizer escaping Frattini yields a non-inner map", _gen_special)
def check_qp(inst):
    g = _group(inst)
    sweep = _Sweep(g)

    def trials():
        for rep in _special_reports(g):
            if not rep.checks["iset_inside"] or rep.checks["product_inside_frattini"]:
                continue
            yield sweep.certificate is not None, {"n_order": int(rep.subgroup.order)}

    return _sweep(trials())


@register("kl", "a layer below the special subgroup exists", _gen_special)
def check_kl(inst):
    g = _group(inst)
    n_val = subgroup_rank(g, center(g))

    def trials():
        for rep, w, h1 in _inner_special_layers(g, _special_instances(g)):
            if h1 != n_val:
                continue
            n = rep.subgroup
            wz = set_product(g, w, center(g))
            layers = [
                n1
                for n1 in normal_subgroups(g)
                if n1.contains_subgroup(wz)
                and n.contains_subgroup(n1)
                and n1.order * g.p == n.order
            ]
            yield bool(layers), {"n_order": int(n.order)}

    return _sweep(trials())


def _trichotomy(sweep: _Sweep, rep: SpecialReport) -> Outcome:
    """(1) certificate, (2) smaller special, (3) same order, larger I."""
    n = rep.subgroup
    size = rep.witness["iset_size"]
    cert = sweep.certificate
    smaller = any(r.subgroup.order < n.order for r in sweep.specials)
    bigger_i = any(
        r.subgroup.order == n.order and r.witness["iset_size"] > size for r in sweep.specials
    )
    details = {
        "certificate": cert is not None,
        "smaller_special": smaller,
        "same_order_bigger_iset": bigger_i,
    }
    return (cert is not None) or smaller or bigger_i, details


def _trichotomy_sweep(g: GroupTable, keep=None) -> Outcome:
    """The trichotomy on the special layers with inner induced maps that
    ``keep(rep, w, h1_dim)`` selects; without ``keep``, on every special
    subgroup.  The search sweep runs at most once, at the first layer kept."""
    sweep = _Sweep(g)
    if keep is None:
        return _sweep((_trichotomy(sweep, rep) for rep in sweep.specials), none="no special subgroup")
    layers = _inner_special_layers(g, sweep.specials)
    return _sweep(_trichotomy(sweep, rep) for rep, w, h1 in layers if keep(rep, w, h1))


def _cyclic_layer(g: GroupTable, n: Subgroup, w: Subgroup) -> bool:
    """Is N/(W·Z(G)) cyclic?"""
    return is_cyclic_quotient(g, n, set_product(g, w, center(g)))


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
    g = _group(inst)
    return _trichotomy_sweep(
        g,
        lambda rep, w, h1: h1 == subgroup_rank(g, center(g)) and not _cyclic_layer(g, rep.subgroup, w),
    )


@register("xy", "two extra derivation classes force a non-inner map", _gen_special)
def check_xy(inst):
    g = _group(inst)

    def trials():
        for rep, w, h1_n in _inner_special_layers(g, _special_instances(g)):
            n = rep.subgroup
            wz = set_product(g, w, center(g))
            zn = subgroup_center(g, n)
            for n1 in normal_subgroups(g):
                if not (
                    n.contains_subgroup(n1)
                    and n1.contains_subgroup(wz)
                    and n1.order < n.order
                ):
                    continue
                if set_product(g, zn, n1).order != n.order:
                    continue
                cert, ev = try_config(g, n1, w, "paper", "xy", None, complement_of=n)
                if ev is None or ev["h1_dim"] < h1_n + 2:
                    continue
                yield cert is not None, {"evidence": ev}

    return _sweep(trials())


@register("t9_2", "layer trichotomy with growing p-th power sets", _gen_special)
def check_t92(inst):
    g = _group(inst)
    return _trichotomy_sweep(
        g,
        lambda rep, w, h1: h1 == subgroup_rank(g, center(g))
        and rep.witness["product_order"] == rep.subgroup.order,
    )


@register("tt", "trichotomy with trivial outer centralizer part", _gen_special)
def check_tt(inst):
    """The trichotomy on the special layers whose outer centralizer part is
    trivial, read as C_G(N) <= N (``_self_centralizing``)."""
    g = _group(inst)
    return _trichotomy_sweep(g, lambda rep, w, h1: _self_centralizing(g, rep.subgroup))


@register("xpl", "trichotomy for cyclic layers", _gen_special)
def check_xpl(inst):
    g = _group(inst)
    return _trichotomy_sweep(g, lambda rep, w, h1: _cyclic_layer(g, rep.subgroup, w))


@register("qk", "non-cyclic double layers force a non-inner map", _gen_special)
def check_qk(inst):
    """The trichotomy on the special layers that are non-cyclic double layers,
    read as N/(W·Z(G)) non-cyclic of order p^2 (``_noncyclic_double_layer``)."""
    g = _group(inst)
    return _trichotomy_sweep(g, lambda rep, w, h1: _noncyclic_double_layer(g, rep.subgroup))


@register("ui", "the full special-subgroup trichotomy", _gen_special)
def check_ui(inst):
    return _trichotomy_sweep(_group(inst))


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
    bf = brute_force_order_p_noninner(g)
    if bf.supported:
        details["brute_force_found"] = bf.automorphism is not None
        if (bf.automorphism is not None) != (cert is not None):
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
    lmod, _ = restrict_action(fbt.as_gmodule("left"), q)
    d_t = d_G(lmod)
    down_img = FpSubspace.from_rows((q.basis @ tp.down) % p, p, tp.free_base.dim)
    try:
        bmod, _ = restrict_action(tp.free_base.as_gmodule("left"), down_img)
        d_g_img = d_G(bmod)
    except ModuleError:
        raise Skip("image not a base submodule")
    if d_t != d_g_img or d_t > n:
        raise Skip(f"generator gate fails (d_T={d_t}, d_img={d_g_img}, n={n})")
    gens_min = minimal_generators(lmod)
    xs = [(v @ q.basis) % p for v in gens_min]
    mlen = len(xs)
    # phi: prod^m F_p(T) -> prod^n F_p(T): (b_i) -> sum_i (b_i,..,b_i) x_i
    phi_matrix = np.zeros((mlen * fbt.block, fbt.dim), dtype=np.int64)
    for i, x in enumerate(xs):
        xb = x.reshape(n, fbt.block)
        for l in range(n):
            phi_matrix[
                i * fbt.block : (i + 1) * fbt.block, l * fbt.block : (l + 1) * fbt.block
            ] = xb[l][ext.total.mul[ext.total.inv][:, :]]
    kd = kernel_of_down(tp)
    i2 = filtration(tp, 2)
    # D = preimage of ker(down); the image of xi is (D @ phi) + I2 in ker(down)
    kd_perp_rows = (phi_matrix @ tp.down) % p  # images under down
    d_space = fl.left_kernel_array(kd_perp_rows, p)
    img_rows = (d_space @ phi_matrix) % p
    img_plus = FpSubspace.from_rows(np.vstack([img_rows, i2.basis]), p, fbt.dim)
    coker_log = kd.dim - img_plus.dim
    bound_log = (n * t - mlen) * g.order - (t - 1) * down_img.dim
    return coker_log >= bound_log, {"coker_log": int(coker_log), "bound_log": int(bound_log), "m": mlen}
