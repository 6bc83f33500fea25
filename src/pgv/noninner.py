"""Construction and certification of non-inner automorphisms of order p.

Two modes:

* ``search`` (engine_sweep): exhaustive sweep over derivation configurations
  (W, N1) with W an elementary abelian normal subgroup acted on through a
  quotient G/N1; every induced automorphism is tested for innerness and the
  first non-inner one is packaged as a Certificate.
* ``paper`` (descent): the special-subgroup route; it follows the staged
  constructions (excess-H1 probe, centralizer splits, layer descent) and may
  emit a Diagnostic instead of a certificate, which is a finding, not a bug.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fp_linalg as fl
from .cohomology import (
    CohomologySpace,
    CohomologyError,
    Derivation,
    cohomology,
    derivation_to_automorphism,
    inflated_z1_rows,
    quotient_refinement_map,
)
from .group_core import (
    GroupError,
    GroupMap,
    GroupTable,
    Subgroup,
    center,
    centralizer,
    frattini,
    is_inner,
    iset,
    iter_isomorphisms,
    map_order,
    maximal_subgroups,
    normal_subgroups,
    omega1,
    set_product,
    subgroup_center,
    subgroup_closure,
)
from .gmodule import ConjugationModule, ModuleError, module_from_conjugation


class NoninnerError(ValueError):
    pass


def subgroup_rank(g: GroupTable, a: Subgroup) -> int:
    """Minimal generator count of an abelian subgroup: log_p |A / A^p|."""
    pw = g.pow_p_table
    powers = np.unique(pw[a.members])
    sub = subgroup_closure(g, powers)
    quot = a.order // sub.order
    k = 0
    while g.p**k < quot:
        k += 1
    if g.p**k != quot:
        raise NoninnerError("rank computation on a non-p-subgroup")
    return k


# -- special subgroups ----------------------------------------------------------


@dataclass
class SpecialReport:
    subgroup: Subgroup
    centralizer: Subgroup
    checks: Dict[str, bool]
    witness: Dict[str, object]

    @property
    def special(self) -> bool:
        return all(self.checks.values())


def _is_cyclic_quotient(g: GroupTable, top: Subgroup, bottom: Subgroup) -> bool:
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


def find_special_subgroups(g: GroupTable) -> List[SpecialReport]:
    """Evaluate the special-subgroup conditions on every normal subgroup of
    the Frattini subgroup; reports cover near-misses too."""
    if g.is_abelian():
        raise NoninnerError("abelian: outside the special-subgroup machinery")
    phi = frattini(g)
    reports = []
    for n in normal_subgroups(g, within=phi):
        c = centralizer(g, n)
        zn = subgroup_center(g, n)
        cyc = _is_cyclic_quotient(g, c, zn)
        isc = iset(g, c)
        iset_in_n = bool(n.bitmap[isc.members].all())
        nc = set_product(g, n, c)
        chain = phi.contains_subgroup(nc)
        reports.append(
            SpecialReport(
                n,
                c,
                {
                    "centralizer_mod_center_cyclic": cyc,
                    "iset_inside": iset_in_n,
                    "product_inside_frattini": chain,
                },
                {
                    "centralizer_order": c.order,
                    "center_of_n_order": zn.order,
                    "iset_size": isc.size,
                    "product_order": nc.order,
                    "frattini_order": phi.order,
                },
            )
        )
    reports.sort(key=lambda r: (r.subgroup.order, r.subgroup.key()))
    return reports


# -- certificates ----------------------------------------------------------------


@dataclass
class Certificate:
    fingerprint: str
    p: int
    order: int
    map: List[int]
    provenance: Dict[str, object]
    transcript: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "fingerprint": self.fingerprint,
            "p": self.p,
            "order": self.order,
            "map": [int(x) for x in self.map],
            "provenance": self.provenance,
            "transcript": self.transcript,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        d = json.loads(text)
        return cls(
            d["fingerprint"], d["p"], d["order"], d["map"], d["provenance"], d["transcript"]
        )


@dataclass
class Diagnostic:
    step: str
    details: Dict[str, object]

    def to_json(self) -> str:
        return json.dumps(
            {"step": self.step, "details": self.details}, sort_keys=True, separators=(",", ":")
        ) + "\n"


def _members(sub: Subgroup) -> List[int]:
    return [int(x) for x in sub.members]


def _certificate_from_derivation(
    g: GroupTable,
    cm: ConjugationModule,
    tau: Derivation,
    psi: GroupMap,
    mode: str,
    tag: str,
    extra: Optional[Dict[str, object]] = None,
) -> Certificate:
    prov: Dict[str, object] = {
        "mode": mode,
        "lemma_tag": tag,
        "n1_members": _members(cm.quotient_map.kernel),
        "w_members": [int(x) for x in cm.w_members],
        "w_basis": [int(x) for x in cm.basis_elements],
        "tau_table": [[int(v) for v in row] for row in tau.table],
    }
    if extra:
        prov.update(extra)
    transcript = [
        f"automorphism verified on all {g.order}x{g.order} pairs",
        f"map order = {map_order(psi)}",
        "innerness rejected against one representative per center coset",
    ]
    return Certificate(
        g.fingerprint(), g.p, g.order, [int(x) for x in psi.image_of], prov, transcript
    )


def verify_certificate(g: GroupTable, cert: Certificate) -> Tuple[bool, List[str]]:
    """Re-check everything a certificate claims; returns (ok, transcript)."""
    lines: List[str] = []
    if cert.fingerprint != g.fingerprint():
        raise NoninnerError("fingerprint mismatch")
    defect = _map_defect(cert.map, g.order)
    if defect is not None:
        lines.append(f"FAIL map {defect}")
        return False, lines
    image = np.asarray(cert.map, dtype=np.int64)
    f = GroupMap(g, g, image, check=False)
    if not f.is_homomorphism():
        bad = _first_bad_pair(g, image)
        lines.append(f"FAIL homomorphism at pair {bad}")
        return False, lines
    lines.append("homomorphism verified on all pairs")
    if not f.is_bijective():
        lines.append("FAIL not bijective")
        return False, lines
    lines.append("bijective")
    o = map_order(f)
    if o != g.p:
        lines.append(f"FAIL order {o} != {g.p}")
        return False, lines
    lines.append(f"order = {g.p}")
    w = is_inner(g, f)
    if w is not None:
        lines.append(f"FAIL inner with witness {w}")
        return False, lines
    lines.append("non-inner (all center-coset representatives excluded)")
    prov = cert.provenance
    if "tau_table" in prov:
        try:
            n1 = Subgroup(g, prov["n1_members"])
            wsub = Subgroup(g, prov["w_members"])
            cm = module_from_conjugation(g, n1, wsub)
            if cm.basis_elements != list(prov["w_basis"]):
                lines.append("FAIL basis correspondence drifted")
                return False, lines
            tau = Derivation(
                cm.module.group, cm.module, np.asarray(prov["tau_table"], dtype=np.int64)
            )
            psi = derivation_to_automorphism(g, cm, tau)
            if not np.array_equal(psi.image_of, image):
                lines.append("FAIL provenance replay mismatch")
                return False, lines
            lines.append("provenance derivation replayed exactly")
        except (GroupError, ModuleError, CohomologyError, ValueError) as e:
            lines.append(f"FAIL provenance replay error: {e}")
            return False, lines
    return True, lines


def _map_defect(image, order: int) -> Optional[str]:
    """Why ``image`` is not a list of ``order`` element indices, or None."""
    if not isinstance(image, list):
        return f"is a {type(image).__name__}, not a list"
    if len(image) != order:
        return f"length {len(image)} != {order}"
    for i, x in enumerate(image):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < order:
            return f"entry {i} = {x!r} is not an element index in 0..{order - 1}"
    return None


def _first_bad_pair(g: GroupTable, image: np.ndarray) -> Tuple[int, int]:
    lhs = image[g.mul]
    rhs = g.mul[np.ix_(image, image)]
    bad = np.argwhere(lhs != rhs)
    return (int(bad[0][0]), int(bad[0][1])) if bad.size else (-1, -1)


# -- the engine -------------------------------------------------------------------


def _try_config(
    g: GroupTable,
    n1: Subgroup,
    w: Subgroup,
    mode: str,
    tag: str,
    extra: Optional[Dict[str, object]] = None,
    complement_of: Optional[Subgroup] = None,
    require_all_h: bool = False,
) -> Tuple[Optional[Certificate], Optional[Dict[str, object]]]:
    """Test the induced automorphism of every H^1 representative derivation
    over the configuration (G/N1, W); returns (certificate, evidence)."""
    try:
        cm = module_from_conjugation(g, n1, w)
    except ModuleError:
        return None, None
    space = cohomology(cm.module.group, cm.module, 1)
    reps: List[Derivation] = list(space.h_reps)
    if complement_of is not None:
        # Narrow to representatives outside the inflation from G/complement_of.
        reps = _reps_outside_inflation(g, cm, space, complement_of)
    evidence: Dict[str, object] = {
        "h1_dim": space.h_dim,
        "z_dim": space.z_dim,
        "b_dim": space.b_dim,
        "tested": 0,
        "all_inner": True,
        "inner_witnesses": [],
    }
    candidates: List[Derivation] = list(reps)
    if require_all_h and reps and g.p**space.h_dim <= 64:
        # Every nonzero combination, coefficient tuples in lexicographic order.
        coeffs = fl.vector_codes(len(reps), g.p)[1:, ::-1]
        tables = np.tensordot(coeffs, np.stack([r.table for r in reps]), axes=1)
        candidates = [Derivation(cm.module.group, cm.module, tab) for tab in tables]
    for tau in candidates:
        if tau.is_zero():
            continue
        try:
            psi = derivation_to_automorphism(g, cm, tau)
        except GroupError:
            evidence.setdefault("automorphism_failures", 0)
            evidence["automorphism_failures"] += 1
            continue
        if map_order(psi) != g.p:
            continue
        evidence["tested"] += 1
        witness = is_inner(g, psi)
        if witness is None:
            cert = _certificate_from_derivation(g, cm, tau, psi, mode, tag, extra)
            return cert, evidence
        evidence["inner_witnesses"].append(int(witness))
    evidence["all_inner"] = True
    return None, evidence


def _reps_outside_inflation(
    g: GroupTable,
    cm: ConjugationModule,
    space: CohomologySpace,
    coarse_kernel: Subgroup,
) -> List[Derivation]:
    """H^1 representatives extended so derivations outside the inflated
    Z^1(G/coarse, W) appear; falls back to the plain representatives."""
    try:
        cm_coarse = module_from_conjugation(g, coarse_kernel, Subgroup(g, cm.w_members))
    except ModuleError:
        return list(space.h_reps)
    pi = quotient_refinement_map(cm.quotient_map, cm_coarse.quotient_map)
    coarse_space = cohomology(cm_coarse.module.group, cm_coarse.module, 1)
    inflated = inflated_z1_rows(coarse_space, pi)
    reps_rows = fl.complement_reps(inflated, space.z_basis, g.p)
    d = cm.module.dim
    return [
        Derivation(cm.module.group, cm.module, row.reshape(-1, d)) for row in reps_rows
    ]


def _elementary_abelian_normals(g: GroupTable) -> List[Subgroup]:
    orders = g.element_orders()
    out = []
    for n in normal_subgroups(g):
        if n.order > 1 and bool((orders[n.members] <= g.p).all()) and _is_abelian_subset(g, n):
            out.append(n)
    return out


def _is_abelian_subset(g: GroupTable, s: Subgroup) -> bool:
    sub = g.mul[np.ix_(s.members, s.members)]
    return bool(np.array_equal(sub, sub.T))


def _centralizes(g: GroupTable, bitmaps: np.ndarray, w: Subgroup) -> np.ndarray:
    """Which rows of the stacked subgroup bitmaps lie inside C_G(W)."""
    outside = ~centralizer(g, w).bitmap
    return ~(bitmaps & outside).any(axis=1)


Config = Tuple[Subgroup, Subgroup, str, Optional[Dict[str, object]], bool]


def _sweep_configs(g: GroupTable) -> List[Config]:
    """The (N1, W, tag, extra, all_h) configurations of the sweep, in order.

    Stage A follows the narrow schedule (N inside the Frattini subgroup with
    W the socle of its center); stages B and C widen W to every elementary
    abelian normal subgroup and to central homomorphism targets.  A pair
    (N1, W) is kept only the first time it comes up.

    Subgroups are rows of the normal-subgroup lattice: every W here is
    characteristic in a normal subgroup, so it is a row too, and
    holds[i, j] says row j lies inside row i.
    """
    normals = normal_subgroups(g)
    bitmaps = np.stack([n.bitmap for n in normals])
    orders = np.array([n.order for n in normals])
    # |N_i ∩ N_j| for every pair by one product; the counts are exact.
    counts = bitmaps.astype(np.float64)
    holds = (counts @ counts.T) == orders
    row = {n.bitmap.tobytes(): i for i, n in enumerate(normals)}

    def index(s: Subgroup) -> int:
        return row[s.bitmap.tobytes()]

    phi = index(frattini(g))
    seen: set = set()
    configs: List[Config] = []

    def push(n1: int, w: int, tag: str, extra=None, all_h=False):
        if (n1, w) in seen:
            return
        seen.add((n1, w))
        configs.append((normals[n1], normals[w], tag, extra, all_h))

    # Stage A: N <= Phi(G) ascending, W = socle of Z(N), N1 between W and N.
    for i, n in enumerate(normals):
        if not holds[phi, i] or n.order == 1:
            continue
        socle = omega1(g, subgroup_center(g, n))
        if socle.order == 1:
            continue
        w = index(socle)
        for n1 in np.flatnonzero((orders < n.order) & holds[i] & holds[:, w]):
            push(int(n1), w, "lp", {"n_members": _members(n)})
        push(i, w, "lp", {"n_members": _members(n)})

    # Stage B: W any elementary abelian normal, N1 any normal supergroup
    # centralizing it.
    for wsub in _elementary_abelian_normals(g):
        w = index(wsub)
        for n1 in np.flatnonzero(holds[:, w] & _centralizes(g, bitmaps, wsub)):
            push(int(n1), w, "engine_wide")

    # Stage C: central homomorphism targets: W = socle of the center, N1 any
    # normal subgroup containing the Frattini subgroup (W need not sit in N1).
    socle = omega1(g, center(g))
    if socle.order > 1:
        w = index(socle)
        for n1 in np.flatnonzero(holds[:, phi]):
            push(int(n1), w, "central_hom", None, True)
    return configs


def engine_sweep(g: GroupTable) -> Optional[Certificate]:
    """Derivation sweep; returns the first certificate in a fixed config order.

    The configurations come from ``_sweep_configs``; the widening stages B
    and C are what make the sweep complete on the small-order catalog.
    """
    if g.is_abelian():
        return None
    for n1, w, tag, extra, all_h in _sweep_configs(g):
        cert, _ = _try_config(g, n1, w, "search", tag, extra, require_all_h=all_h)
        if cert is not None:
            return cert

    # Derivations valued in elementary abelian subgroups cannot reach every
    # group (the bottom extraspecial cases need cyclic value groups), so the
    # sweep closes with the exhaustive oracle where it is affordable.
    if g.order <= BRUTE_FORCE_LIMIT:
        bf = brute_force_order_p_noninner(g)
        if bf.automorphism is not None:
            f = bf.automorphism
            return Certificate(
                g.fingerprint(),
                g.p,
                g.order,
                [int(x) for x in f.image_of],
                {"mode": "search", "lemma_tag": "brute_force"},
                [
                    f"exhaustive automorphism enumeration ({bf.aut_order} maps)",
                    "first non-inner automorphism of order p selected",
                ],
            )
    return None


# -- brute force oracle -----------------------------------------------------------


BRUTE_FORCE_LIMIT = 16


@dataclass
class BruteForceResult:
    supported: bool
    automorphism: Optional[GroupMap]
    aut_order: Optional[int] = None


def all_automorphisms(g: GroupTable) -> List[np.ndarray]:
    """Every automorphism, in the order the isomorphism search yields them."""
    return list(iter_isomorphisms(g, g))


def brute_force_order_p_noninner(g: GroupTable) -> BruteForceResult:
    """Exhaustive automorphism search for a non-inner map of order p."""
    if g.order > BRUTE_FORCE_LIMIT:
        return BruteForceResult(False, None)
    autos = all_automorphisms(g)
    found = None
    for phi in autos:
        f = GroupMap(g, g, phi, check=False)
        if map_order(f) != g.p:
            continue
        if is_inner(g, f) is None:
            found = f
            break
    return BruteForceResult(True, found, aut_order=len(autos))


# -- the excess-H1 probe ----------------------------------------------------------


@dataclass
class ProbeOutcome:
    status: str  # "certificate" | "diagnostic" | "skipped"
    certificate: Optional[Certificate] = None
    diagnostic: Optional[Diagnostic] = None
    reason: str = ""
    data: Dict[str, object] = field(default_factory=dict)


def probe_hypotheses(g: GroupTable, n: Subgroup) -> Tuple[bool, str, Dict[str, object]]:
    c = centralizer(g, n)
    zn = subgroup_center(g, n)
    if not _is_cyclic_quotient(g, c, zn):
        return False, "centralizer mod center not cyclic", {}
    isc = iset(g, c)
    if not bool(n.bitmap[isc.members].all()):
        return False, "iset escapes N", {}
    a = set_product(g, n, c)
    phi = frattini(g)
    if not phi.contains_subgroup(a):
        return False, "N*C_G(N) not inside Frattini", {}
    w = omega1(g, subgroup_center(g, a))
    data = {
        "a_members": _members(a),
        "w_members": _members(w),
        "w_inside_n": bool(n.bitmap[w.members].all()),
        "w_equals_socle_of_zn": w.key() == omega1(g, zn).key(),
    }
    return True, "", data


def excess_h1_probe(g: GroupTable, n: Subgroup) -> ProbeOutcome:
    """If H^1(G/NC_G(N), W) has dimension > d(Z(G)), hunt the promised
    non-inner automorphism; report a Diagnostic when the bound holds but
    every induced map is inner."""
    ok, reason, data = probe_hypotheses(g, n)
    if not ok:
        return ProbeOutcome("skipped", reason=reason)
    a = Subgroup(g, data["a_members"])
    w = Subgroup(g, data["w_members"])
    n_val = subgroup_rank(g, center(g))
    cert, evidence = _try_config(
        g, a, w, "paper", "thm5_5", {"n_members": _members(n)}
    )
    data["n_val"] = n_val
    if evidence is not None:
        data.update(evidence)
    if cert is not None:
        return ProbeOutcome("certificate", certificate=cert, data=data)
    h1 = evidence["h1_dim"] if evidence else 0
    if h1 >= n_val + 1:
        diag = Diagnostic(
            "thm5_5:bound met but all induced maps inner",
            {
                "group": g.fingerprint(),
                "n_members": _members(n),
                "h1_dim": int(h1),
                "d_center": int(n_val),
                "evidence": evidence,
            },
        )
        return ProbeOutcome("diagnostic", diagnostic=diag, data=data)
    return ProbeOutcome("skipped", reason=f"H1 bound unmet (dim {h1} < {n_val + 1})", data=data)


# -- paper-mode descent ------------------------------------------------------------


def _entry_route(g: GroupTable) -> Tuple[Optional[Certificate], List[Dict[str, object]]]:
    """Maximal-subgroup construction for the non-reduced case
    C_G(Phi) not inside Phi: derivations on G/M valued in the socle of Z(M)
    or of Z(G), for maximal subgroups M avoiding a witness element."""
    phi = frattini(g)
    cphi = centralizer(g, phi)
    attempts: List[Dict[str, object]] = []
    outside = [int(x) for x in cphi.members if not phi.contains(int(x))]
    if not outside:
        return None, attempts
    wc = omega1(g, center(g))
    for m in maximal_subgroups(g):
        if all(m.contains(h) for h in outside):
            continue
        zm = subgroup_center(g, m)
        for w, tag in ((omega1(g, zm), "qp_entry"), (wc, "qp_entry_central")):
            if w.order == 1:
                continue
            cert, evidence = _try_config(
                g, m, w, "paper", tag, {"maximal_members": _members(m)},
                require_all_h=(tag == "qp_entry_central"),
            )
            attempts.append(
                {"maximal": _members(m), "w": _members(w), "tag": tag, "evidence": evidence}
            )
            if cert is not None:
                return cert, attempts
    return None, attempts


def descent(g: GroupTable) -> "Certificate | Diagnostic":
    """Special-subgroup route; certificates carry the construction trail and
    a Diagnostic names the step on which the route got stuck."""
    if g.is_abelian():
        raise NoninnerError("abelian: outside the special-subgroup machinery")
    phi = frattini(g)
    cphi = centralizer(g, phi)
    if not phi.contains_subgroup(cphi):
        cert, attempts = _entry_route(g)
        if cert is not None:
            return cert
        return Diagnostic(
            "entry:maximal-subgroup construction exhausted",
            {"group": g.fingerprint(), "attempts": len(attempts)},
        )

    reports = [r for r in find_special_subgroups(g) if r.special]
    if not reports:
        return Diagnostic("descent stuck at entry", {"group": g.fingerprint()})

    def selection_key(r: SpecialReport):
        return (r.subgroup.order, -iset(g, r.centralizer).size, r.subgroup.key())

    reports.sort(key=selection_key)
    normals = normal_subgroups(g)
    n_val = subgroup_rank(g, center(g))
    trail: List[Dict[str, object]] = []
    for rep in reports:
        n = rep.subgroup
        c = rep.centralizer
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            trail.append({"n": _members(n), "step": "socle trivial"})
            continue
        # (a) excess-H1 probe on the composite subgroup.
        outcome = excess_h1_probe(g, n)
        if outcome.status == "certificate":
            return outcome.certificate
        if outcome.status == "diagnostic":
            return outcome.diagnostic
        # (b)/(c)/(d): compare H^1 over G/N with the layers below.
        cert, evidence = _try_config(g, n, w, "paper", "ty", {"n_members": _members(n)})
        if cert is not None:
            return cert
        m_dim = evidence["h1_dim"] if evidence else 0
        step_note = {
            "n": _members(n),
            "h1_over_n": int(m_dim),
            "d_center": int(n_val),
            "layers": [],
        }
        # Layer descent: normal N1 < N with W Z(G) <= N1 and |N/N1| = p, then
        # one layer deeper (|N/N2| = p^2).
        wz = set_product(g, w, center(g))
        for target_index in (g.p, g.p * g.p):
            for n1 in normals:
                if n1.order * target_index != n.order:
                    continue
                if not n.contains_subgroup(n1):
                    continue
                if target_index == g.p and not n1.contains_subgroup(wz):
                    continue
                if target_index != g.p and not n1.contains_subgroup(w):
                    continue
                cert, ev = _try_config(
                    g,
                    n1,
                    w,
                    "paper",
                    "xx" if target_index == g.p else "qk",
                    {"n_members": _members(n)},
                    complement_of=n,
                )
                step_note["layers"].append(
                    {"n1": _members(n1), "evidence": ev}
                )
                if cert is not None:
                    return cert
        trail.append(step_note)
    return Diagnostic(
        "descent:all special subgroups exhausted",
        {"group": g.fingerprint(), "trail_length": len(trail)},
    )


def find_noninner(g: GroupTable, mode: str = "search") -> "Certificate | Diagnostic | None":
    """Front door used by the CLI: 'search' or 'paper' mode."""
    if mode == "search":
        if g.is_abelian():
            bf = brute_force_order_p_noninner(g)
            if bf.supported and bf.automorphism is not None:
                f = bf.automorphism
                return Certificate(
                    g.fingerprint(),
                    g.p,
                    g.order,
                    [int(x) for x in f.image_of],
                    {"mode": "search", "lemma_tag": "brute_force_abelian"},
                    ["found by exhaustive automorphism enumeration"],
                )
            return None
        return engine_sweep(g)
    if mode == "paper":
        return descent(g)
    raise NoninnerError(f"unknown mode {mode!r}")
