"""Registry of per-claim checks, each evaluated on concrete instances.

Every check takes a JSON-able instance dict (catalog entry name, seed, size
parameters), materializes the objects it needs, evaluates its hypothesis
gates computationally, and reports PASS / COUNTEREXAMPLE with both sides of
the claim in the details.  Checks report; they never assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .catalog import CatalogEntry, builtin_catalog, find_entry
from .cohomology import (
    TwoCocycle,
    cohomology,
    derivation_to_automorphism,
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
    frattini,
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
    free_submodule_closure,
    generated_submodule,
    minimal_generators,
    module_from_conjugation,
    quotient_module,
    radical,
    restrict_action,
    sample_nG_module,
    submodule_fixed_points,
    trivial_module,
)
from .noninner import (
    NoninnerError,
    _is_cyclic_quotient,
    _try_config,
    brute_force_order_p_noninner,
    engine_sweep,
    excess_h1_probe,
    find_special_subgroups,
    probe_hypotheses,
    subgroup_rank,
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


def register(check_id: str, description: str, generate=None):
    def deco(fn):
        CHECKS[check_id] = CheckDef(check_id, description, fn, generate or (lambda cat, seed, lim: []))
        return fn

    return deco


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
    rng = np.random.default_rng(seed)
    seeds_rows = rng.integers(0, g.p, size=(extra, fb.dim))
    rows = np.vstack([fb.socle_basis(), seeds_rows]) if socle else seeds_rows
    carrier = free_submodule_closure(fb, rows, "right")
    return fb, carrier


def _submodule_h1(fb: FreeBimodule, carrier, side="right") -> int:
    mod, _ = restrict_action(fb.as_gmodule(side), carrier)
    return cohomology(mod.group, mod, 1, want_reps=False).h_dim


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


def _inflated_to_extension(ext: ExtensionResult, m: GModule) -> GModule:
    return inflate_module(m, ext.projection)


def _sampled_nG(g: GroupTable, n: int, seed: int):
    """(fb, carrier, fixed_dim, h1) for a seeded socle-containing sample."""
    from .cohomology import h1_dim_of_submodule

    s = sample_nG_module(g, n, seed, h1_fn=lambda fb, c: h1_dim_of_submodule(fb, c))
    return s.free, s.carrier, s.fixed_dim, s.h1_dim


def _quotient_mod_cocycle(
    g: GroupTable, nmod: GModule, f: TwoCocycle, sub: FpSubspace
) -> Tuple[GModule, TwoCocycle]:
    """Push a cocycle along nmod -> nmod/sub."""
    qmod, comp = quotient_module(nmod, sub)
    basis_full = np.vstack([sub.basis, comp]) if sub.dim else comp
    q, d = g.order, nmod.dim
    tab = np.zeros((q, q, qmod.dim), dtype=np.int64)
    from .gmodule import _solve_coords

    flat = f.table.reshape(q * q, d)
    coords = _solve_coords(basis_full, flat % g.p, g.p)
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
        except Exception:
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
    return CheckVerdict(
        "gen_count",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"d_G": int(d), "canonical": int(gens.shape[0]), "random_minimal": len(pruned)},
    )


@register("cc_bound", "generator count of a submodule vs the chain bound", _gen_modules)
def check_cc_bound(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    if carrier.dim == 0:
        return CheckVerdict("cc_bound", inst, SKIPPED, {"reason": "zero module"})
    mod = _restricted(fb, carrier)
    rng = np.random.default_rng(int(inst["seed"]) + 5)
    seed_vec = rng.integers(0, g.p, size=(1, mod.dim))
    a1 = generated_submodule(mod, (seed_vec @ np.eye(mod.dim, dtype=np.int64)) % g.p)
    full = FpSubspace.full(mod.dim, g.p)
    if a1.dim == full.dim or a1.dim == 0:
        return CheckVerdict("cc_bound", inst, SKIPPED, {"reason": "degenerate submodule"})
    m = d_G(mod)
    rad_full = radical(mod)
    s = full.dim - rad_full.sum(a1).dim  # d_G(A/A1) = dim A - dim(J(A)+A1)
    d_a1 = d_G(mod, a1)
    reading1 = d_a1 <= s + m
    reading2 = m <= d_a1 + s
    return CheckVerdict(
        "cc_bound",
        inst,
        PASS if reading1 else COUNTEREXAMPLE,
        {
            "d_A": int(m),
            "d_quotient": int(s),
            "d_A1": int(d_a1),
            "bound_on_submodule_holds": bool(reading1),
            "bound_on_ambient_holds": bool(reading2),
        },
    )


@register("ut_embed", "socle-prescribed embedding into the free module", _gen_modules)
def check_ut_embed(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
    if fixed_points(mod).dim < 1:
        return CheckVerdict("ut_embed", inst, SKIPPED, {"reason": "no fixed points"})
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
    return CheckVerdict(
        "ut_embed",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"injective": emb.injective, "socle_prescribed": bool(socle_ok), "equivariant": bool(equiv_ok)},
    )


@register("free_iff_h1zero", "vanishing H^1 forces an explicit free decomposition", _gen_modules)
def check_free_iff_h1zero(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    if carrier.dim == 0:
        return CheckVerdict("free_iff_h1zero", inst, SKIPPED, {"reason": "zero module"})
    mod = _restricted(fb, carrier)
    h1 = _h1_of_module(g, mod)
    if h1 != 0:
        return CheckVerdict("free_iff_h1zero", inst, SKIPPED, {"reason": f"H1 = {h1}"})
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
    return CheckVerdict(
        "free_iff_h1zero",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"h1": int(h1), "rank": int(nfree), "dim_matches": bool(dim_ok), "bijective": bool(iso_ok)},
    )


@register("dual_fixed", "fixed points of the dual count module generators", _gen_modules)
def check_dual_fixed(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
    lhs = fixed_points(dual_module(mod)).dim
    rhs = d_G(mod)
    return CheckVerdict(
        "dual_fixed",
        inst,
        PASS if lhs == rhs else COUNTEREXAMPLE,
        {"dual_fixed_dim": int(lhs), "d_G": int(rhs)},
    )


@register("dual_gens", "generator count of the dual equals the fixed-point dim", _gen_modules)
def check_dual_gens(inst):
    g = _group(inst)
    fb, carrier = _carrier(g, int(inst["n"]), int(inst["seed"]))
    mod = _restricted(fb, carrier)
    lhs = d_G(dual_module(mod))
    rhs = fixed_points(mod).dim
    return CheckVerdict(
        "dual_gens",
        inst,
        PASS if lhs == rhs else COUNTEREXAMPLE,
        {"d_of_dual": int(lhs), "fixed_dim": int(rhs)},
    )


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
    return CheckVerdict(
        "l00_duality",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {
            "dim_Q": int(q.dim),
            "dim_L": int(left.dim),
            "ambient": int(fb.dim),
            "roundtrip": bool(inv_ok),
            "pairing_equals_products": bool(prod_ok),
        },
    )


@register("ww_bridge", "H^1 dimension equals annihilator generator count", _gen_duality)
def check_ww(inst):
    g = _group(inst)
    n = int(inst["n"])
    fb, carrier = _carrier(g, n, int(inst["seed"]))
    fixed = submodule_fixed_points(fb, carrier, "right")
    if fixed.dim != n:
        return CheckVerdict("ww_bridge", inst, SKIPPED, {"reason": "socle not full"})
    m = _submodule_h1(fb, carrier)
    left = annihilator(fb, carrier, "left_of_right")
    if left.dim == 0:
        d_left = 0
    else:
        lmod, _ = restrict_action(fb.as_gmodule("left"), left)
        d_left = d_G(lmod)
    return CheckVerdict(
        "ww_bridge",
        inst,
        PASS if m == d_left else COUNTEREXAMPLE,
        {"h1": int(m), "d_of_annihilator": int(d_left)},
    )


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
    return CheckVerdict(
        "xo_unique",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {
            "kernel_dim": int(kd.dim),
            "left_basis_rank": int(rank_left),
            "right_basis_rank": int(rank_right),
            "reconstruction": bool(recon),
        },
    )


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
    return CheckVerdict(
        "to_iso",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"injective": bool(inj), "kernel_acts_trivially": bool(trivial_action), "equivariant": bool(equivariant)},
    )


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
    ok = down_img == lg
    return CheckVerdict(
        "thm2e_image",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"dim_down_image": int(down_img.dim), "dim_base_annihilator": int(lg.dim)},
    )


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
    return CheckVerdict("tp_products", inst, PASS if ok else COUNTEREXAMPLE, {"dims": dims})


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
    return CheckVerdict(
        "dd_layers",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {
            "layer_dim": int(layer),
            "expected": int(want),
            "kernel_matches": bool(i1 == kd),
            "kernel_acts_trivially_on_layers": bool(kernel_trivial),
        },
    )


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
        return CheckVerdict("xp_layers", inst, SKIPPED, {"reason": "t != 2"})
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
    return CheckVerdict("xp_layers", inst, PASS if ok else COUNTEREXAMPLE, {"layers": layers})


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
        h1 = _submodule_h1(fb, carrier)
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
        return CheckVerdict("gg_growth", inst, SKIPPED, {"reason": f"fixed={fixed_dim}, m={m}"})
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        return CheckVerdict("gg_growth", inst, SKIPPED, {"reason": "H^2 trivial"})
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    ok = h1_ext >= m + (n - m)
    return CheckVerdict(
        "gg_growth",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "m": int(m), "h1_extension": int(h1_ext), "lower_bound": int(n)},
    )


@register("yy_upper", "H^1 grows by at most n*t under any kernel extension", _gen_growth)
def check_yy(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m > n:
        return CheckVerdict("yy_upper", inst, SKIPPED, {"reason": f"fixed={fixed_dim}, m={m}"})
    t = 1 + int(inst["seed"]) % 2
    pmod = trivial_module(g, t)
    sp = cohomology(g, pmod, 2)
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim] if sp.h_dim else zero_two_cocycle(g, pmod)
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    ok = h1_ext <= m + n * t
    return CheckVerdict(
        "yy_upper",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "m": int(m), "t": t, "h1_extension": int(h1_ext), "upper_bound": int(m + n * t)},
    )


def _up_carrier(tp, carrier):
    rows = (carrier.basis @ tp.up) % tp.ext.total.p
    return FpSubspace.from_rows(rows, tp.ext.total.p, tp.free_total.dim)


@register("jj_lower", "annihilator of a lifted module needs at least n generators", _gen_growth_strict)
def check_jj(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        return CheckVerdict("jj_lower", inst, SKIPPED, {"reason": f"fixed={fixed_dim}, m={m}"})
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        return CheckVerdict("jj_lower", inst, SKIPPED, {"reason": "H^2 trivial"})
    ext = build_extension(g, cp, f)
    tp = transfer_maps(ext, n)
    q_up = _up_carrier(tp, carrier)
    lt = annihilator(tp.free_total, q_up, "left_of_right")
    lmod, _ = restrict_action(tp.free_total.as_gmodule("left"), lt)
    s = d_G(lmod)
    ok = s >= n
    return CheckVerdict(
        "jj_lower",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "m": int(m), "annihilator_generators": int(s)},
    )


@register("cor8_0", "stable H^1 under central extension forces the maximum", _gen_growth)
def check_cor8(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m < 0 or m > n:
        return CheckVerdict("cor8_0", inst, SKIPPED, {"reason": f"fixed={fixed_dim}"})
    cp = trivial_module(g, 1)
    sp = cohomology(g, cp, 2)
    if sp.h_dim == 0:
        return CheckVerdict("cor8_0", inst, SKIPPED, {"reason": "H^2 trivial"})
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    if h1_ext != m:
        return CheckVerdict(
            "cor8_0", inst, SKIPPED, {"reason": f"H1 changed ({m} -> {h1_ext})"}
        )
    ok = m == n
    return CheckVerdict(
        "cor8_0",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "m": int(m), "h1_extension": int(h1_ext)},
    )


@register("aa_cases", "rank-t kernel growth laws", _gen_growth_strict)
def check_aa(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or not (0 <= m < n):
        return CheckVerdict("aa_cases", inst, SKIPPED, {"reason": f"fixed={fixed_dim}, m={m}"})
    t = 2
    pmod = trivial_module(g, t)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        return CheckVerdict("aa_cases", inst, SKIPPED, {"reason": "H^2 trivial"})
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
    return CheckVerdict(
        "aa_cases",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "m": int(m), "t": t, "h1_extension": int(h1_ext), "bound": bound},
    )


@register("qq_cases", "rank-2 kernel growth laws with an intermediate quotient", _gen_growth)
def check_qq(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n:
        return CheckVerdict("qq_cases", inst, SKIPPED, {"reason": f"fixed={fixed_dim}"})
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        return CheckVerdict("qq_cases", inst, SKIPPED, {"reason": "H^2 trivial"})
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)  # P1 = second coordinate
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    h1_mid = _h1_of_module(ext1.total, _inflated_to_extension(ext1, qmod))
    details = {"n": n, "m": int(m), "h1_extension": int(h1_ext), "h1_mid": int(h1_mid)}
    if m < n:
        if m == 0:
            ok = h1_ext == 2 * n
            details["branch"] = "m=0"
        elif m >= 2:
            ok = h1_ext >= m + 2 * n - 2 * m + 1
            details["branch"] = "m>=2"
        else:
            return CheckVerdict(
                "qq_cases", inst, SKIPPED, dict(details, reason="m=1 not covered by the claim")
            )
    else:
        if h1_mid != m:
            return CheckVerdict(
                "qq_cases", inst, SKIPPED, dict(details, reason="intermediate H1 moved")
            )
        ok = h1_ext == 2 * n
        details["branch"] = "m=n"
    return CheckVerdict("qq_cases", inst, PASS if ok else COUNTEREXAMPLE, details)


@register("ggg_exact", "exactly-n modules gain exactly n under a stable layer", _gen_growth_exact)
def check_ggg(inst):
    g, fb, carrier, fixed_dim, m = _growth_instance(inst)
    n = int(inst["n"])
    if fixed_dim != n or m != n:
        return CheckVerdict("ggg_exact", inst, SKIPPED, {"reason": f"fixed={fixed_dim}, m={m} != n"})
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        return CheckVerdict("ggg_exact", inst, SKIPPED, {"reason": "H^2 trivial"})
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    qmod = _restricted(fb, carrier)
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    h1_mid = _h1_of_module(ext1.total, _inflated_to_extension(ext1, qmod))
    if h1_mid != m:
        return CheckVerdict("ggg_exact", inst, SKIPPED, {"reason": "quotient layer moved H1"})
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    ok = h1_ext == h1_mid + n
    return CheckVerdict(
        "ggg_exact",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"n": n, "h1_mid": int(h1_mid), "h1_extension": int(h1_ext)},
    )


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
        return CheckVerdict("kj_h2", inst, SKIPPED, {"reason": "not a 1-module"})
    cp = trivial_module(g, 1)
    f = _nontrivial_2cocycle(g, cp, int(inst["seed"]))
    if f is None:
        return CheckVerdict("kj_h2", inst, SKIPPED, {"reason": "H^2 trivial"})
    ext = build_extension(g, cp, f)
    qmod = _restricted(fb, carrier)
    h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, qmod))
    if h1_ext != m:
        return CheckVerdict("kj_h2", inst, SKIPPED, {"reason": "H1 moved"})
    if ext.total.order > 16 or qmod.dim > 6:
        return CheckVerdict("kj_h2", inst, UNSUPPORTED, {"reason": "H^2 instance too large"})
    h2 = cohomology(ext.total, _inflated_to_extension(ext, qmod), 2, want_reps=False).h_dim
    cyclic = d_G(qmod) == 1
    ok = h2 == 1 and cyclic
    return CheckVerdict(
        "kj_h2",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"h2_extension": int(h2), "d_G": int(d_G(qmod))},
    )


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
        return CheckVerdict("dp_dim", inst, SKIPPED, {"reason": "not a 1-module over the extension"})
    # fixed points under the kernel subgroup
    stack = []
    for a in ext.kernel_generators():
        stack.append((fbT.right_element_action(a) - np.eye(fbT.dim, dtype=np.int64)) % T.p)
    rows = fl.left_kernel_array(np.hstack(stack), T.p)
    qn = FpSubspace.from_rows(rows, T.p, fbT.dim).intersect(carrier)
    ok = carrier.dim >= T.p * qn.dim
    return CheckVerdict(
        "dp_dim",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"dim_Q": int(carrier.dim), "dim_Q_fixed_by_kernel": int(qn.dim), "p": T.p},
    )


@register("rty_eq", "stable 1-modules meet the kernel bound with equality and cyclic fixed part", _gen_dp)
def check_rty(inst):
    g = _group(inst)
    pmod = trivial_module(g, 2)
    sp = cohomology(g, pmod, 2)
    if sp.h_dim == 0:
        return CheckVerdict("rty_eq", inst, SKIPPED, {"reason": "H^2 trivial"})
    f = sp.h_reps[int(inst["seed"]) % sp.h_dim]
    ext = build_extension(g, pmod, f)
    sub = FpSubspace.from_rows(np.array([[0, 1]]), g.p, 2)
    qkern, fbar = _quotient_mod_cocycle(g, pmod, f, sub)
    ext1 = build_extension(g, qkern, fbar)
    T1 = ext1.total
    fb1, carrier, fixed_dim, m = _sampled_nG(T1, 1, int(inst["seed"]))
    if fixed_dim != 1 or m > 1:
        return CheckVerdict("rty_eq", inst, SKIPPED, {"reason": "not a 1-module"})
    qmod1 = _restricted(fb1, carrier)
    # View the module over the bigger extension through the collapse map.
    collapse = _collapse_map(ext, ext1)
    qmod_T = inflate_module(qmod1, collapse)
    h1_T1 = _h1_of_module(T1, qmod1)
    h1_T = _h1_of_module(ext.total, qmod_T)
    if h1_T1 != h1_T:
        return CheckVerdict("rty_eq", inst, SKIPPED, {"reason": "H1 differs across the collapse"})
    # fixed points of the kernel of ext acting through collapse
    acts = []
    for a in ext.kernel_generators():
        h = int(collapse.image_of[a])
        acts.append((qmod1.act[h] - np.eye(qmod1.dim, dtype=np.int64)) % g.p)
    rows = fl.left_kernel_array(np.hstack(acts), g.p) if acts else np.eye(qmod1.dim, dtype=np.int64)
    qn = FpSubspace.from_rows(rows, g.p, qmod1.dim)
    eq = qmod1.dim == g.p * qn.dim
    if qn.dim == 0:
        return CheckVerdict("rty_eq", inst, SKIPPED, {"reason": "kernel-fixed part trivial"})
    sub_carrier = qn
    d_fixed = d_G(qmod1, sub_carrier)
    ok = eq and d_fixed == 1
    return CheckVerdict(
        "rty_eq",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"dim_Q": int(qmod1.dim), "dim_fixed": int(qn.dim), "d_of_fixed": int(d_fixed)},
    )


def _collapse_map(ext: ExtensionResult, ext1: ExtensionResult) -> GroupMap:
    """Projection from the rank-2 extension onto the rank-1 quotient extension
    that kills the second kernel coordinate."""
    g = ext.base
    p = g.p
    image = np.zeros(ext.total.order, dtype=np.int64)
    for x in range(ext.total.order):
        a = x % (p * p)
        gg = x // (p * p)
        a0 = a % p  # first coordinate survives
        image[x] = a0 + p * gg
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
        return CheckVerdict("xu_free", inst, SKIPPED, {"reason": "no minimal normal subgroup"})
    nsub = mins[int(inst["seed"]) % len(mins)]
    fb, carrier = _carrier(g, 1, int(inst["seed"]), socle=True, extra=2)
    mod = _restricted(fb, carrier)
    sub_table, members = _subgroup_table(g, nsub)
    mod_n = GModule(sub_table, mod.act[members], check=False)
    qn = fixed_points(mod_n)
    if (qn.dim * g.p) != mod.dim:
        return CheckVerdict(
            "xu_free", inst, SKIPPED, {"reason": f"|Q^N|^p != |Q| ({qn.dim} vs {mod.dim})"}
        )
    nrank = qn.dim
    free_dims = mod.dim == nrank * sub_table.order
    d_over_n = d_G(mod_n)
    h1_n = _h1_of_module(sub_table, mod_n)
    ok = free_dims and d_over_n == nrank and h1_n == 0
    return CheckVerdict(
        "xu_free",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"rank": int(nrank), "d_over_N": int(d_over_n), "h1_over_N": int(h1_n)},
    )


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
    from .noninner import _elementary_abelian_normals

    el_ab = _elementary_abelian_normals(g)
    details["normal_elementary_abelian_count"] = len(el_ab)
    if g.is_abelian():
        return CheckVerdict("io_rank", inst, SKIPPED, dict(details, reason="abelian input"))
    if len(el_ab) != 1:
        return CheckVerdict(
            "io_rank", inst, SKIPPED, dict(details, reason="no unique normal elementary abelian")
        )
    cat = builtin_catalog()
    dq = [e for e in cat if e.matches("dihedral") or e.matches("quaternion")]
    matches = any(e.order == g.order and is_isomorphic(e.group(), g) for e in dq)
    details["structure_claim_dihedral_or_quaternion"] = bool(matches)
    if not matches:
        return CheckVerdict("io_rank", inst, COUNTEREXAMPLE, details)
    # Generator-count claim on a small stable instance: a 1-module over G/N
    # whose H^1 does not move under inflation gives d(ext) = d(G) + 1.
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
        m = _submodule_h1(fbq, carrier)
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
        d_g = subgroup_rank(g, Subgroup(g, np.arange(g.order), check=False)) if g.is_abelian() else _d_of_group(g)
        for f in taus:
            ext = build_extension(g, qmod, f)
            rank_results.append(int(_d_of_group(ext.total)))
        details["d_base"] = int(_d_of_group(g))
        details["d_extensions"] = rank_results
        if any(r != _d_of_group(g) + 1 for r in rank_results):
            return CheckVerdict("io_rank", inst, COUNTEREXAMPLE, details)
    return CheckVerdict("io_rank", inst, PASS, details)


def _d_of_group(g: GroupTable) -> int:
    phi = frattini(g)
    quot = g.order // phi.order
    k = 0
    while g.p**k < quot:
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
        return CheckVerdict("jx_rank", inst, SKIPPED, {"reason": "non-abelian base"})
    if g.order > 16:
        return CheckVerdict("jx_rank", inst, UNSUPPORTED, {"reason": "H^2 instance too large"})
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
    tested = 0
    for carrier in carriers:
        if submodule_fixed_points(fb, carrier, "right").dim != 1:
            continue
        m_dim = _submodule_h1(fb, carrier)
        if m_dim > 1:
            continue
        qmod = _restricted(fb, carrier)
        if qmod.dim > 4 or g.order * (g.p**qmod.dim) > 256:
            continue
        for nsub in cyclic_subs:
            qt, qm = quotient(g, nsub)
            stack = [
                (qmod.act[int(a)] - np.eye(qmod.dim, dtype=np.int64)) % g.p
                for a in nsub.members[1:]
            ]
            rows = fl.left_kernel_array(np.hstack(stack), g.p)
            qn_carrier = FpSubspace.from_rows(rows, g.p, qmod.dim)
            try:
                qn_mod, _ = restrict_action(qmod, qn_carrier)
            except ModuleError:
                continue
            qn_over_quot = GModule(qt, qn_mod.act[qm.section], check=False)
            if _h1_of_module(g, qn_mod) != _h1_of_module(qt, qn_over_quot):
                continue
            tested += 1
            sp = cohomology(g, qmod, 2)
            d_g = _d_of_group(g)
            taus = (sp.h_reps[:2] if sp.h_dim else []) + [zero_two_cocycle(g, qmod)]
            results = []
            for f in taus:
                ext = build_extension(g, qmod, f)
                results.append(int(_d_of_group(ext.total)))
            if any(r != d_g + 1 for r in results):
                return CheckVerdict(
                    "jx_rank",
                    inst,
                    COUNTEREXAMPLE,
                    {"d_base": int(d_g), "d_extensions": results, "n_order": int(nsub.order)},
                )
    if tested == 0:
        return CheckVerdict("jx_rank", inst, SKIPPED, {"reason": "gates never met"})
    return CheckVerdict("jx_rank", inst, PASS, {"instances": tested})


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
        return CheckVerdict("px_iff", inst, SKIPPED, {"reason": "needs two minimal normals"})
    seed = int(inst["seed"])
    n1 = mins[seed % len(mins)]
    n2 = mins[(seed + 1) % len(mins)]
    if n1 == n2:
        return CheckVerdict("px_iff", inst, SKIPPED, {"reason": "same subgroup"})
    qt, qm = quotient(g, n1)
    fbq, carrier, fixed_dim, m = _sampled_nG(qt, 1, seed)
    if fixed_dim != 1 or m > 1:
        return CheckVerdict("px_iff", inst, SKIPPED, {"reason": "not a 1-module"})
    qmod_quot = _restricted(fbq, carrier)
    pi = GroupMap(g, qt, qm.image_of, check=False)
    qmod = inflate_module(qmod_quot, pi)
    both = set_product(g, n1, n2)
    stack = [
        (qmod.act[int(a)] - np.eye(qmod.dim, dtype=np.int64)) % g.p
        for a in both.members[1:]
    ]
    rows = fl.left_kernel_array(np.hstack(stack), g.p)
    cq = FpSubspace.from_rows(rows, g.p, qmod.dim)
    if qmod.dim != g.p * cq.dim or cq.dim == 0:
        return CheckVerdict("px_iff", inst, SKIPPED, {"reason": "dimension gate fails"})
    try:
        cq_mod, _ = restrict_action(qmod, cq)
    except ModuleError:
        return CheckVerdict("px_iff", inst, SKIPPED, {"reason": "fixed part unstable"})
    cq_over_quot_act = cq_mod.act[qm.section]
    cq_quot = GModule(qt, cq_over_quot_act, check=False)
    lhs = _h1_of_module(g, cq_mod) == _h1_of_module(qt, cq_quot)
    rhs = _h1_of_module(g, qmod) == _h1_of_module(qt, qmod_quot)
    return CheckVerdict(
        "px_iff",
        inst,
        PASS if lhs == rhs else COUNTEREXAMPLE,
        {"fixed_part_stable": bool(lhs), "module_stable": bool(rhs)},
    )


@register("du_growth", "radical cohomology grows by one under module extensions", _gen_jx)
def check_du(inst):
    g = _group(inst)
    cyclics = [s for s in normal_subgroups(g) if s.order == g.p]
    if not cyclics:
        return CheckVerdict("du_growth", inst, SKIPPED, {"reason": "no cyclic normal"})
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
    tested = 0
    for carrier in carriers:
        if submodule_fixed_points(fbq, carrier, "right").dim != 1:
            continue
        if _submodule_h1(fbq, carrier) > 1:
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
            tested += 1
            h1_ext = _h1_of_module(ext.total, _inflated_to_extension(ext, rad_mod))
            if h1_ext != h1_base + 1:
                return CheckVerdict(
                    "du_growth",
                    inst,
                    COUNTEREXAMPLE,
                    {
                        "h1_base": int(h1_base),
                        "h1_extension": int(h1_ext),
                        "cocycle_nonzero": bool(not f_full.is_zero()),
                    },
                )
    if tested == 0:
        return CheckVerdict("du_growth", inst, SKIPPED, {"reason": "gates never met"})
    return CheckVerdict("du_growth", inst, PASS, {"instances": tested})


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
    tested = 0
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
            try:
                cm = module_from_conjugation(g, n1, w)
            except ModuleError:
                continue
            sp = cohomology(cm.module.group, cm.module, 1)
            for rep in sp.h_reps[:2]:
                if rep.is_zero():
                    continue
                try:
                    psi = derivation_to_automorphism(g, cm, rep)
                except GroupError:
                    return CheckVerdict(
                        "lp_order", inst, COUNTEREXAMPLE, {"reason": "induced map not an automorphism"}
                    )
                tested += 1
                if map_order(psi) != g.p:
                    return CheckVerdict(
                        "lp_order",
                        inst,
                        COUNTEREXAMPLE,
                        {"order": int(map_order(psi)), "p": g.p},
                    )
    if tested == 0:
        return CheckVerdict("lp_order", inst, SKIPPED, {"reason": "no usable configuration"})
    return CheckVerdict("lp_order", inst, PASS, {"maps_tested": tested})


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
    tested = 0
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
        tested += 1
        if ratio > g.p**n_val:
            return CheckVerdict(
                "ij_bound",
                inst,
                COUNTEREXAMPLE,
                {
                    "iset_size": int(isn.size),
                    "base_size": int(zval.order),
                    "bound": int(g.p**n_val),
                    "iset_closed": bool(isn.is_subgroup),
                    "p": g.p,
                },
            )
    if tested == 0:
        return CheckVerdict("ij_bound", inst, SKIPPED, {"reason": "no qualifying N"})
    return CheckVerdict("ij_bound", inst, PASS, {"instances": tested, "p": g.p})


@register("ddd_iso", "inner derivation classes match the p-th power set", _gen_special)
def check_ddd(inst):
    g = _group(inst)
    tested = 0
    for n in normal_subgroups(g):
        ok, reason, data = probe_hypotheses(g, n)
        if not ok:
            continue
        a = Subgroup(g, data["a_members"])
        w = Subgroup(g, data["w_members"])
        if w.order == 1:
            continue
        try:
            cm = module_from_conjugation(g, a, w)
        except ModuleError:
            continue
        sp = cohomology(cm.module.group, cm.module, 1)
        from .cohomology import derivation_span_noninner_probe

        res = derivation_span_noninner_probe(g, cm, sp)
        if res.found:
            continue  # gate: all induced maps inner
        tested += 1
        c = centralizer(g, n)
        isc = iset(g, c)
        zw = set_product(g, center(g), omega1(g, n))
        lhs = sp.h_dim
        rhs_size = isc.size // zw.order
        k = 0
        while g.p**k < rhs_size:
            k += 1
        isn = iset(g, n)
        rhs_n_size = isn.size // zw.order
        if g.p**k != rhs_size or lhs != k:
            return CheckVerdict(
                "ddd_iso",
                inst,
                COUNTEREXAMPLE,
                {
                    "h1_dim": int(lhs),
                    "iset_centralizer_ratio": int(rhs_size),
                    "iset_n_ratio": int(rhs_n_size),
                },
            )
    if tested == 0:
        return CheckVerdict("ddd_iso", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("ddd_iso", inst, PASS, {"instances": tested})


@register("thm5_5", "excess H^1 forces a certified non-inner automorphism", _gen_special)
def check_thm55(inst):
    g = _group(inst)
    outcomes = []
    for n in normal_subgroups(g):
        out = excess_h1_probe(g, n)
        if out.status == "certificate":
            ok, _ = verify_certificate(g, out.certificate)
            outcomes.append(("certificate", ok))
            if not ok:
                return CheckVerdict("thm5_5", inst, COUNTEREXAMPLE, {"reason": "certificate failed"})
        elif out.status == "diagnostic":
            return CheckVerdict("thm5_5", inst, COUNTEREXAMPLE, dict(out.diagnostic.details))
    if not outcomes:
        return CheckVerdict("thm5_5", inst, SKIPPED, {"reason": "H1 bound never met"})
    return CheckVerdict("thm5_5", inst, PASS, {"certificates": len(outcomes)})


# -- section-5 statements -----------------------------------------------------------


def _special_instances(g: GroupTable):
    try:
        reports = find_special_subgroups(g)
    except NoninnerError:
        return []
    return [r for r in reports if r.special]


@register("ty", "splitting derivations across the centralizer product", _gen_special)
def check_ty(inst):
    g = _group(inst)
    specials = _special_instances(g)
    tested = 0
    for rep in specials:
        n = rep.subgroup
        c = rep.centralizer
        a = set_product(g, n, c)
        if a.order == n.order:
            continue
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        cert, evidence = _try_config(
            g, n, w, "paper", "ty", {"n_members": [int(x) for x in n.members]},
            complement_of=a,
        )
        if evidence is None or (evidence["h1_dim"] == 0):
            continue
        tested += 1
        if cert is None:
            return CheckVerdict("ty", inst, COUNTEREXAMPLE, {"evidence": evidence})
    if tested == 0:
        return CheckVerdict("ty", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("ty", inst, PASS, {"instances": tested})


@register("j", "one-step extensions with stable H^1 stay inside Frattini", _gen_special)
def check_j(inst):
    g = _group(inst)
    phi = frattini(g)
    normals = normal_subgroups(g)
    tested = 0
    for a in normals:
        c = centralizer(g, a)
        isc = iset(g, c)
        if not bool(a.bitmap[isc.members].all()):
            continue
        if not phi.contains_subgroup(a):
            continue
        for a1 in normals:
            if a1.order != a.order * g.p or not a1.contains_subgroup(a):
                continue
            za1 = subgroup_center(g, a1)
            if not za1.contains_subgroup(center(g)):
                continue
            w = omega1(g, za1)
            if w.order == 1:
                continue
            try:
                cm1 = module_from_conjugation(g, a1, w)
                cm0 = module_from_conjugation(g, a, w)
            except ModuleError:
                continue
            h1_a1 = cohomology(cm1.module.group, cm1.module, 1, want_reps=False).h_dim
            h1_a = cohomology(cm0.module.group, cm0.module, 1, want_reps=False).h_dim
            if h1_a1 != h1_a:
                continue
            tested += 1
            if not phi.contains_subgroup(a1):
                return CheckVerdict(
                    "j",
                    inst,
                    COUNTEREXAMPLE,
                    {"a_order": int(a.order), "a1_order": int(a1.order)},
                )
    if tested == 0:
        return CheckVerdict("j", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("j", inst, PASS, {"instances": tested})


@register("l3_2", "vanishing H^1 forces the socle to be proper", _gen_special)
def check_l32(inst):
    g = _group(inst)
    phi = frattini(g)
    tested = 0
    for n in normal_subgroups(g, within=phi):
        if n.order == 1:
            continue
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        try:
            cm = module_from_conjugation(g, n, w)
        except ModuleError:
            continue
        h1 = cohomology(cm.module.group, cm.module, 1, want_reps=False).h_dim
        if h1 != 0:
            continue
        tested += 1
        if w.order == n.order:
            return CheckVerdict(
                "l3_2", inst, COUNTEREXAMPLE, {"n_order": int(n.order), "w_order": int(w.order)}
            )
    if tested == 0:
        return CheckVerdict("l3_2", inst, SKIPPED, {"reason": "H1 never vanishes"})
    return CheckVerdict("l3_2", inst, PASS, {"instances": tested})


def _all_inner_gate(g, n, w):
    try:
        cm = module_from_conjugation(g, n, w)
    except ModuleError:
        return None, None
    sp = cohomology(cm.module.group, cm.module, 1)
    from .cohomology import derivation_span_noninner_probe

    res = derivation_span_noninner_probe(g, cm, sp)
    return (not res.found), sp


@register("xi", "fixed parts over larger subgroups stay n-bounded", _gen_special)
def check_xi(inst):
    g = _group(inst)
    specials = _special_instances(g)
    n_val = subgroup_rank(g, center(g))
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, _ = _all_inner_gate(g, n, w)
        if not gate:
            continue
        for a in normal_subgroups(g):
            if not a.contains_subgroup(n) or a.order == g.order:
                continue
            cw = Subgroup(
                g, [x for x in w.members if centralizer(g, a).contains(int(x))]
            )
            if cw.order == 1:
                continue
            try:
                cm = module_from_conjugation(g, a, cw)
            except ModuleError:
                continue
            sp = cohomology(cm.module.group, cm.module, 1, want_reps=False)
            fixed_dim = fixed_points(cm.module).dim
            tested += 1
            if sp.h_dim > n_val or fixed_dim != n_val:
                return CheckVerdict(
                    "xi",
                    inst,
                    COUNTEREXAMPLE,
                    {"h1": int(sp.h_dim), "n": int(n_val), "fixed_dim": int(fixed_dim)},
                )
    if tested == 0:
        return CheckVerdict("xi", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("xi", inst, PASS, {"instances": tested})


@register("yu", "excess derivations shrink the fixed part strictly", _gen_special)
def check_yu(inst):
    g = _group(inst)
    specials = _special_instances(g)
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, sp_n = _all_inner_gate(g, n, w)
        if not gate:
            continue
        h1_n = sp_n.h_dim
        normals = [a for a in normal_subgroups(g) if a.contains_subgroup(n)]
        for a2 in normals:
            for a1 in normals:
                if a1.order <= a2.order:
                    continue
                cw1 = Subgroup(
                    g, [x for x in w.members if centralizer(g, a1).contains(int(x))]
                )
                if cw1.order == 1:
                    continue
                try:
                    cm = module_from_conjugation(g, a2, cw1)
                except ModuleError:
                    continue
                h1 = cohomology(cm.module.group, cm.module, 1, want_reps=False).h_dim
                if h1 < h1_n + 1:
                    continue
                tested += 1
                cw2 = Subgroup(
                    g, [x for x in w.members if centralizer(g, a2).contains(int(x))]
                )
                if not (cw1.order < cw2.order):
                    return CheckVerdict(
                        "yu",
                        inst,
                        COUNTEREXAMPLE,
                        {"cw1": int(cw1.order), "cw2": int(cw2.order), "h1": int(h1)},
                    )
    if tested == 0:
        return CheckVerdict("yu", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("yu", inst, PASS, {"instances": tested})


@register("hh", "self-centralizing layers: a certificate or a smaller layer", _gen_special)
def check_hh(inst):
    g = _group(inst)
    phi = frattini(g)
    n_val = subgroup_rank(g, center(g))
    tested = 0
    for n in normal_subgroups(g, within=phi):
        c = centralizer(g, n)
        if not n.contains_subgroup(c):
            continue
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        try:
            cm = module_from_conjugation(g, n, w)
        except ModuleError:
            continue
        m = cohomology(cm.module.group, cm.module, 1, want_reps=False).h_dim
        if m >= n_val:
            continue
        tested += 1
        cert = engine_sweep(g)
        smaller = any(
            centralizer(g, n1).order <= n1.order and n1.order < n.order
            for n1 in normal_subgroups(g)
            if n.contains_subgroup(n1)
        )
        if cert is None and not smaller:
            return CheckVerdict(
                "hh", inst, COUNTEREXAMPLE, {"m": int(m), "n": int(n_val)}
            )
    if tested == 0:
        return CheckVerdict("hh", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("hh", inst, PASS, {"instances": tested})


@register("ll", "layer centralizers stay cyclic modulo the layer", _gen_special)
def check_ll(inst):
    g = _group(inst)
    specials = _special_instances(g)
    n_val = subgroup_rank(g, center(g))
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, sp = _all_inner_gate(g, n, w)
        if not gate or sp.h_dim != n_val:
            continue
        wz = set_product(g, w, center(g))
        for n1 in normal_subgroups(g):
            if not n1.contains_subgroup(wz):
                continue
            tested += 1
            cn1 = centralizer(g, n1)
            top = set_product(g, cn1, n)
            if not _is_cyclic_quotient(g, top, n):
                return CheckVerdict(
                    "ll",
                    inst,
                    COUNTEREXAMPLE,
                    {"n1_order": int(n1.order), "top_order": int(top.order)},
                )
    if tested == 0:
        return CheckVerdict("ll", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("ll", inst, PASS, {"instances": tested})


@register("qp", "a centralizer escaping Frattini yields a non-inner map", _gen_special)
def check_qp(inst):
    g = _group(inst)
    phi = frattini(g)
    tested = 0
    for n in normal_subgroups(g):
        if not phi.contains_subgroup(n):
            continue
        c = centralizer(g, n)
        isc = iset(g, c)
        if not bool(n.bitmap[isc.members].all()):
            continue
        nc = set_product(g, n, c)
        if phi.contains_subgroup(nc):
            continue
        tested += 1
        cert = engine_sweep(g)
        if cert is None:
            return CheckVerdict("qp", inst, COUNTEREXAMPLE, {"n_order": int(n.order)})
    if tested == 0:
        return CheckVerdict("qp", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("qp", inst, PASS, {"instances": tested})


@register("kl", "a layer below the special subgroup exists", _gen_special)
def check_kl(inst):
    g = _group(inst)
    specials = _special_instances(g)
    n_val = subgroup_rank(g, center(g))
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, sp = _all_inner_gate(g, n, w)
        if not gate or sp.h_dim != n_val:
            continue
        tested += 1
        wz = set_product(g, w, center(g))
        layers = [
            n1
            for n1 in normal_subgroups(g)
            if n1.contains_subgroup(wz)
            and n.contains_subgroup(n1)
            and n1.order * g.p == n.order
        ]
        if not layers:
            return CheckVerdict("kl", inst, COUNTEREXAMPLE, {"n_order": int(n.order)})
    if tested == 0:
        return CheckVerdict("kl", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("kl", inst, PASS, {"instances": tested})


def _trichotomy(g: GroupTable, n: Subgroup, rep_iset_size: int) -> Tuple[bool, Dict[str, object]]:
    """(1) certificate, (2) smaller special, (3) same order, larger I."""
    cert = engine_sweep(g)
    specials = _special_instances(g)
    smaller = any(r.subgroup.order < n.order for r in specials)
    bigger_i = any(
        r.subgroup.order == n.order and iset(g, r.centralizer).size > rep_iset_size
        for r in specials
    )
    details = {
        "certificate": cert is not None,
        "smaller_special": smaller,
        "same_order_bigger_iset": bigger_i,
    }
    return (cert is not None) or smaller or bigger_i, details


def _run_trichotomy_check(check_id, inst, extra_gate=None):
    g = _group(inst)
    specials = _special_instances(g)
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, sp = _all_inner_gate(g, n, w)
        if not gate:
            continue
        if extra_gate is not None and not extra_gate(g, rep, sp):
            continue
        tested += 1
        ok, details = _trichotomy(g, n, iset(g, rep.centralizer).size)
        if not ok:
            return CheckVerdict(check_id, inst, COUNTEREXAMPLE, details)
    if tested == 0:
        return CheckVerdict(check_id, inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict(check_id, inst, PASS, {"instances": tested})


@register("xx", "trichotomy for non-cyclic layers", _gen_special)
def check_xx(inst):
    def gate(g, rep, sp):
        n_val = subgroup_rank(g, center(g))
        if sp.h_dim != n_val:
            return False
        w = omega1(g, subgroup_center(g, rep.subgroup))
        wz = set_product(g, w, center(g))
        return not _is_cyclic_quotient(g, rep.subgroup, wz)

    return _run_trichotomy_check("xx", inst, gate)


@register("xy", "two extra derivation classes force a non-inner map", _gen_special)
def check_xy(inst):
    g = _group(inst)
    specials = _special_instances(g)
    tested = 0
    for rep in specials:
        n = rep.subgroup
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        gate, sp_n = _all_inner_gate(g, n, w)
        if not gate:
            continue
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
            cert, ev = _try_config(g, n1, w, "paper", "xy", None, complement_of=n)
            if ev is None or ev["h1_dim"] < sp_n.h_dim + 2:
                continue
            tested += 1
            if cert is None:
                return CheckVerdict("xy", inst, COUNTEREXAMPLE, {"evidence": ev})
    if tested == 0:
        return CheckVerdict("xy", inst, SKIPPED, {"reason": "hypotheses never met"})
    return CheckVerdict("xy", inst, PASS, {"instances": tested})


@register("t9_2", "layer trichotomy with growing p-th power sets", _gen_special)
def check_t92(inst):
    def gate(g, rep, sp):
        n_val = subgroup_rank(g, center(g))
        if sp.h_dim != n_val:
            return False
        c = rep.centralizer
        return set_product(g, rep.subgroup, c).order == rep.subgroup.order

    return _run_trichotomy_check("t9_2", inst, gate)


@register("tt", "trichotomy with trivial outer centralizer part", _gen_special)
def check_tt(inst):
    return _run_trichotomy_check("tt", inst)


@register("xpl", "trichotomy for cyclic layers", _gen_special)
def check_xpl(inst):
    def gate(g, rep, sp):
        w = omega1(g, subgroup_center(g, rep.subgroup))
        wz = set_product(g, w, center(g))
        return _is_cyclic_quotient(g, rep.subgroup, wz)

    return _run_trichotomy_check("xpl", inst, gate)


@register("qk", "non-cyclic double layers force a non-inner map", _gen_special)
def check_qk(inst):
    return _run_trichotomy_check("qk", inst)


@register("ui", "the full special-subgroup trichotomy", _gen_special)
def check_ui(inst):
    g = _group(inst)
    specials = _special_instances(g)
    if not specials:
        return CheckVerdict("ui", inst, SKIPPED, {"reason": "no special subgroup"})
    tested = 0
    for rep in specials:
        tested += 1
        ok, details = _trichotomy(g, rep.subgroup, iset(g, rep.centralizer).size)
        if not ok:
            return CheckVerdict("ui", inst, COUNTEREXAMPLE, details)
    return CheckVerdict("ui", inst, PASS, {"instances": tested})


def _gen_cor18(cat, seed, limit):
    out = []
    for e in _small_nonabelian(cat, 64):
        out.append({"group": e.name, "seed": seed})
    return out[:limit]


@register("cor18", "every non-abelian p-group here has a certified non-inner map", _gen_cor18)
def check_cor18(inst):
    g = _group(inst)
    cert = engine_sweep(g)
    details: Dict[str, object] = {"found": cert is not None}
    if cert is not None:
        ok, _ = verify_certificate(g, cert)
        details["verified"] = ok
        if not ok:
            return CheckVerdict("cor18", inst, COUNTEREXAMPLE, details)
    bf = brute_force_order_p_noninner(g)
    if bf.supported:
        details["brute_force_found"] = bf.automorphism is not None
        if (bf.automorphism is not None) != (cert is not None):
            return CheckVerdict("cor18", inst, COUNTEREXAMPLE, details)
    if cert is None:
        return CheckVerdict("cor18", inst, COUNTEREXAMPLE, details)
    return CheckVerdict("cor18", inst, PASS, details)


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
        return CheckVerdict("tu_coker", inst, SKIPPED, {"reason": "zero module"})
    lmod, _ = restrict_action(fbt.as_gmodule("left"), q)
    d_t = d_G(lmod)
    down_img = FpSubspace.from_rows((q.basis @ tp.down) % p, p, tp.free_base.dim)
    try:
        bmod, _ = restrict_action(tp.free_base.as_gmodule("left"), down_img)
        d_g_img = d_G(bmod)
    except ModuleError:
        return CheckVerdict("tu_coker", inst, SKIPPED, {"reason": "image not a base submodule"})
    if d_t != d_g_img or d_t > n:
        return CheckVerdict(
            "tu_coker",
            inst,
            SKIPPED,
            {"reason": f"generator gate fails (d_T={d_t}, d_img={d_g_img}, n={n})"},
        )
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
    ok = coker_log >= bound_log
    return CheckVerdict(
        "tu_coker",
        inst,
        PASS if ok else COUNTEREXAMPLE,
        {"coker_log": int(coker_log), "bound_log": int(bound_log), "m": mlen},
    )
