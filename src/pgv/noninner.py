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
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import fp_linalg as fl
from .cohomology import (
    Cochain,
    CohomologySpace,
    CohomologyError,
    conjugation_h1,
    derivation_to_automorphism,
    inflated_z1_rows,
    quotient_refinement_map,
)
from .group_core import (
    GroupError,
    GroupMap,
    GroupTable,
    Subgroup,
    _p_power_exponent,
    center,
    centralizer,
    distinct_elements,
    elementary_abelian_normals,
    frattini,
    is_cyclic_quotient,
    is_inner,
    iset,
    memo,
    iter_isomorphisms,
    map_order,
    maximal_subgroups,
    normal_subgroups,
    normals_between,
    omega1,
    phi_layers,
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
    sub = subgroup_closure(g, distinct_elements(g, pw[a.members]))
    return _p_power_exponent(a.order // sub.order, g.p)


# -- special subgroups ----------------------------------------------------------


@dataclass
class SpecialReport:
    """The special-subgroup conditions on N (``subgroup``), with the
    subgroups Section 5 builds on it: C_G(N), the product A = N C_G(N) and
    the layer W = Omega_1(Z(N))."""

    subgroup: Subgroup
    centralizer: Subgroup
    product: Subgroup
    layer: Subgroup
    checks: Dict[str, bool]
    witness: Dict[str, object]

    @property
    def special(self) -> bool:
        return all(self.checks.values())


@memo
def find_special_subgroups(g: GroupTable) -> Tuple[SpecialReport, ...]:
    """Evaluate the special-subgroup conditions on every normal subgroup of
    the Frattini subgroup; reports cover near-misses too.  This is the one
    place the three conditions are evaluated; reports come in (order, key())
    order, the order of ``normal_subgroups``, and are cached on the table."""
    if g.is_abelian():
        raise NoninnerError("abelian: outside the special-subgroup machinery")
    phi = frattini(g)
    reports = []
    for n in normal_subgroups(g, within=phi):
        c = centralizer(g, n)
        zn = subgroup_center(g, n)
        cyc = is_cyclic_quotient(g, c, zn)
        isc = iset(g, c)
        iset_in_n = bool(n.bitmap[isc.members].all())
        nc = set_product(g, n, c)
        chain = phi.contains_subgroup(nc)
        reports.append(
            SpecialReport(
                n,
                c,
                nc,
                omega1(g, zn),
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
    return tuple(reports)


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
    tau: Cochain,
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
    # derivation_to_automorphism tests the generator pairs only, an exact
    # test of the property on all pairs.
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
    for key, value, want in (("p", cert.p, g.p), ("order", cert.order, g.order)):
        if isinstance(value, bool) or not isinstance(value, int) or value != want:
            lines.append(f"FAIL {key} {value!r} != {want}")
            return False, lines
    defect = _index_defect(cert.map, g.order, length=g.order)
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
    defect = _provenance_defect(prov, g.order)
    if defect is not None:
        lines.append(f"FAIL provenance {defect}")
        return False, lines
    if "tau_table" in prov:
        try:
            n1 = Subgroup(g, prov["n1_members"])
            wsub = Subgroup(g, prov["w_members"])
            cm = module_from_conjugation(g, n1, wsub)
            if cm.basis_elements != list(prov["w_basis"]):
                lines.append("FAIL basis correspondence drifted")
                return False, lines
            tau = Cochain(cm.module, np.asarray(prov["tau_table"], dtype=np.int64))
            psi = derivation_to_automorphism(g, cm, tau)
            if not np.array_equal(psi.image_of, image):
                lines.append("FAIL provenance replay mismatch")
                return False, lines
            lines.append("provenance derivation replayed exactly")
        except (GroupError, ModuleError, CohomologyError, TypeError, ValueError, OverflowError) as e:
            lines.append(f"FAIL provenance replay error: {e}")
            return False, lines
    return True, lines


def _index_defect(values, order: int, length: Optional[int] = None) -> Optional[str]:
    """Why ``values`` is not a list of element indices (``length`` of them
    when given), or None."""
    if not isinstance(values, list):
        return f"is a {type(values).__name__}, not a list"
    if length is not None and len(values) != length:
        return f"length {len(values)} != {length}"
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < order:
            return f"entry {i} = {x!r} is not an element index in 0..{order - 1}"
    return None


def _provenance_defect(prov, order: int) -> Optional[str]:
    """Why a provenance is not an object whose derivation can be replayed
    (the subgroup members and W basis element lists), or None."""
    if not isinstance(prov, dict):
        return f"is a {type(prov).__name__}, not an object"
    if "tau_table" not in prov:
        return None
    for key in ("n1_members", "w_members", "w_basis"):
        if key not in prov:
            return f"{key} missing"
        defect = _index_defect(prov[key], order)
        if defect is not None:
            return f"{key} {defect}"
    return None


def _first_bad_pair(g: GroupTable, image: np.ndarray) -> Tuple[int, int]:
    lhs = image[g.mul]
    rhs = g.mul[np.ix_(image, image)]
    bad = np.argwhere(lhs != rhs)
    return (int(bad[0][0]), int(bad[0][1])) if bad.size else (-1, -1)


# -- the engine -------------------------------------------------------------------


def try_config(
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
    over the configuration (G/N1, W); returns (certificate, evidence), with
    evidence None when W is no G/N1-module and ``evidence["all_inner"]``
    false exactly when a certificate is returned.

    Every induced automorphism of order p is tested for innerness; this is
    the one loop that does so.  Testing the representatives alone is
    complete: tau -> psi_tau turns addition into composition when the values
    lie in the abelian W, so the inner-inducing derivations form a subgroup
    of Z^1 containing B^1.
    """
    got = conjugation_h1(g, n1, w)
    if got is None:
        return None, None
    cm, space = got
    if complement_of is None:
        reps = list(space.h_reps)
    else:
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
    candidates = reps
    if require_all_h and reps and g.p**space.h_dim <= 64:
        # Every nonzero combination, coefficient tuples in lexicographic order.
        coeffs = fl.vector_codes(len(reps), g.p)[1:, ::-1]
        tables = np.tensordot(coeffs, np.stack([r.table for r in reps]), axes=1)
        candidates = [Cochain(cm.module, tab) for tab in tables]
    for tau in candidates:
        if tau.is_zero():
            continue
        try:
            psi = derivation_to_automorphism(g, cm, tau)
        except GroupError:
            evidence["automorphism_failures"] = evidence.get("automorphism_failures", 0) + 1
            continue
        if map_order(psi) != g.p:
            continue
        evidence["tested"] += 1
        witness = is_inner(g, psi)
        if witness is None:
            evidence["all_inner"] = False
            return _certificate_from_derivation(g, cm, tau, psi, mode, tag, extra), evidence
        evidence["inner_witnesses"].append(int(witness))
    return None, evidence


def _reps_outside_inflation(
    g: GroupTable,
    cm: ConjugationModule,
    space: CohomologySpace,
    coarse_kernel: Subgroup,
) -> List[Cochain]:
    """H^1 representatives extended so derivations outside the inflated
    Z^1(G/coarse, W) appear; falls back to the plain representatives."""
    got = conjugation_h1(g, coarse_kernel, Subgroup(g, cm.w_members))
    if got is None:
        return list(space.h_reps)
    cm_coarse, coarse_space = got
    pi = quotient_refinement_map(cm.quotient_map, cm_coarse.quotient_map)
    inflated = inflated_z1_rows(coarse_space, pi)
    reps_rows = fl.complement_reps(inflated, space.z_basis, g.p)
    d = cm.module.dim
    return [Cochain(cm.module, row.reshape(-1, d)) for row in reps_rows]


def _centralizes(g: GroupTable, bitmaps: np.ndarray, w: Subgroup) -> np.ndarray:
    """Which rows of the stacked subgroup bitmaps lie inside C_G(W)."""
    outside = ~centralizer(g, w).bitmap
    return ~(bitmaps & outside).any(axis=1)


Config = Tuple[Subgroup, Subgroup, str, Optional[Dict[str, object]], bool]


def _sweep_configs(g: GroupTable) -> Iterator[Config]:
    """The (N1, W, tag, extra, all_h) configurations of the sweep, in order.

    Stage A follows the narrow schedule (N inside the Frattini subgroup with
    W the socle of its center); stages B and C widen W to every elementary
    abelian normal subgroup and to central homomorphism targets.  A pair
    (N1, W) is kept only the first time it comes up.

    The configurations are yielded one at a time, so a sweep that certifies
    early builds nothing for the later stages.  Stage A reads only the
    normal subgroups inside Phi(G) (``phi_layers``, ``normals_between``):
    that list is the full lattice, in its order, filtered to N <= Phi, and
    every N1 and W of stage A lies in it.  The full lattice is built when
    stage B is reached.  Stage B stacks it as bitmap rows and tests
    containment one column set at a time: row i contains S when
    ``bitmaps[i, S.members]`` all hold.
    """
    seen: set = set()

    def fresh(n1: Subgroup, w: Subgroup) -> bool:
        key = (n1.bitmap.tobytes(), w.bitmap.tobytes())
        if key in seen:
            return False
        seen.add(key)
        return True

    # Stage A: N <= Phi(G) ascending, W = socle of Z(N), N1 between W and N
    # (N itself last).
    phi = frattini(g)
    for n, w in phi_layers(g):
        extra = {"n_members": _members(n)}
        for n1 in normals_between(g, lower=w, upper=n, within=phi):
            if fresh(n1, w):
                yield n1, w, "lp", extra, False

    # Stage B: W any elementary abelian normal, N1 any normal supergroup
    # centralizing it.
    normals = normal_subgroups(g)
    bitmaps = np.stack([n.bitmap for n in normals])
    for w in elementary_abelian_normals(g):
        for i in np.flatnonzero(bitmaps[:, w.members].all(axis=1) & _centralizes(g, bitmaps, w)):
            if fresh(normals[i], w):
                yield normals[i], w, "engine_wide", None, False

    # Stage C: central homomorphism targets: W = socle of the center, N1 any
    # normal subgroup containing the Frattini subgroup (W need not sit in N1).
    w = omega1(g, center(g))
    if w.order > 1:
        for n1 in normals_between(g, lower=phi):
            if fresh(n1, w):
                yield n1, w, "central_hom", None, True


@memo
def engine_sweep(g: GroupTable) -> Optional[Certificate]:
    """Derivation sweep; returns the first certificate in a fixed config order.

    The configurations come from ``_sweep_configs``; the widening stages B
    and C are what make the sweep complete on the small-order catalog.  The
    result, a certificate or None, is cached on the table.
    """
    if g.is_abelian():
        return None
    for n1, w, tag, extra, all_h in _sweep_configs(g):
        cert, _ = try_config(g, n1, w, "search", tag, extra, require_all_h=all_h)
        if cert is not None:
            return cert

    # Derivations valued in elementary abelian subgroups cannot reach every
    # group (the bottom extraspecial cases need cyclic value groups), so the
    # sweep closes with the exhaustive oracle where it is affordable.
    return _exhaustive_certificate(g)


# -- exhaustive oracle ------------------------------------------------------------


BRUTE_FORCE_LIMIT = 16


def exhaustive_noninner(g: GroupTable) -> Optional[GroupMap]:
    """The first non-inner automorphism of order p in the order
    ``iter_isomorphisms(g, g)`` yields them, or None.  The walk is lazy and
    stops at the first hit; None proves that no such map exists only when
    ``g.order <= BRUTE_FORCE_LIMIT``, since larger groups are not searched."""
    if g.order > BRUTE_FORCE_LIMIT:
        return None
    for phi in iter_isomorphisms(g, g):
        f = GroupMap(g, g, phi, check=False)
        if map_order(f) == g.p and is_inner(g, f) is None:
            return f
    return None


def _exhaustive_certificate(g: GroupTable) -> Optional[Certificate]:
    """The certificate of ``exhaustive_noninner``'s map, or None without one.
    Its tag is ``brute_force_abelian`` on an abelian group, which the
    derivation sweep skips, and ``brute_force`` on a group the sweep missed,
    whose transcript also counts every automorphism of the group."""
    f = exhaustive_noninner(g)
    if f is None:
        return None
    if g.is_abelian():
        tag, transcript = "brute_force_abelian", ["found by exhaustive automorphism enumeration"]
    else:
        maps = sum(1 for _ in iter_isomorphisms(g, g))
        tag = "brute_force"
        transcript = [
            f"exhaustive automorphism enumeration ({maps} maps)",
            "first non-inner automorphism of order p selected",
        ]
    prov = {"mode": "search", "lemma_tag": tag}
    return Certificate(g.fingerprint(), g.p, g.order, [int(x) for x in f.image_of], prov, transcript)


# -- the excess-H1 probe ----------------------------------------------------------


def excess_h1_probe(g: GroupTable, rep: SpecialReport) -> "Certificate | Diagnostic | None":
    """For a special N with A = N C_G(N) and W = Omega_1(Z(A)): if
    H^1(G/A, W) has dimension > d(Z(G)), hunt the promised non-inner
    automorphism; report a Diagnostic when the bound holds but every induced
    map is inner, and None when N is not special or the bound fails."""
    if not rep.special:
        return None
    a = rep.product
    n_val = subgroup_rank(g, center(g))
    extra = {"n_members": _members(rep.subgroup)}
    cert, evidence = try_config(g, a, omega1(g, subgroup_center(g, a)), "paper", "thm5_5", extra)
    if cert is not None:
        return cert
    h1 = evidence["h1_dim"] if evidence else 0
    if h1 < n_val + 1:
        return None
    return Diagnostic(
        "thm5_5:bound met but all induced maps inner",
        {
            "group": g.fingerprint(),
            "n_members": extra["n_members"],
            "h1_dim": int(h1),
            "d_center": int(n_val),
            "evidence": evidence,
        },
    )


# -- paper-mode descent ------------------------------------------------------------


def _entry_route(g: GroupTable, outside: List[int]) -> Tuple[Optional[Certificate], int]:
    """Maximal-subgroup construction for the non-reduced case
    C_G(Phi) not inside Phi: derivations on G/M valued in the socle of Z(M)
    or of Z(G), for maximal subgroups M avoiding one of the ``outside``
    elements, those of C_G(Phi) outside Phi.  Returns the certificate (or
    None) and the number of configurations tried."""
    attempts = 0
    wc = omega1(g, center(g))
    for m in maximal_subgroups(g):
        if all(m.contains(h) for h in outside):
            continue
        zm = subgroup_center(g, m)
        for w, tag in ((omega1(g, zm), "qp_entry"), (wc, "qp_entry_central")):
            if w.order == 1:
                continue
            cert, _ = try_config(
                g, m, w, "paper", tag, {"maximal_members": _members(m)},
                require_all_h=(tag == "qp_entry_central"),
            )
            attempts += 1
            if cert is not None:
                return cert, attempts
    return None, attempts


def descent(g: GroupTable) -> "Certificate | Diagnostic":
    """Special-subgroup route; certificates carry the construction trail and
    a Diagnostic names the step on which the route got stuck."""
    if g.is_abelian():
        raise NoninnerError("abelian: outside the special-subgroup machinery")
    phi = frattini(g)
    outside = [int(x) for x in centralizer(g, phi).members if not phi.contains(int(x))]
    if outside:
        cert, attempts = _entry_route(g, outside)
        if cert is not None:
            return cert
        return Diagnostic(
            "entry:maximal-subgroup construction exhausted",
            {"group": g.fingerprint(), "attempts": attempts},
        )

    reports = [r for r in find_special_subgroups(g) if r.special]
    if not reports:
        return Diagnostic("descent stuck at entry", {"group": g.fingerprint()})
    reports.sort(key=lambda r: (r.subgroup.order, -r.witness["iset_size"], r.subgroup.key()))
    for rep in reports:
        n, w = rep.subgroup, rep.layer
        if w.order == 1:
            continue
        # (a) excess-H1 probe on the composite subgroup.
        outcome = excess_h1_probe(g, rep)
        if outcome is not None:
            return outcome
        # (b)/(c)/(d): compare H^1 over G/N with the layers below.
        extra = {"n_members": _members(n)}
        cert, _ = try_config(g, n, w, "paper", "ty", extra)
        if cert is not None:
            return cert
        # Layer descent: normal N1 < N with W Z(G) <= N1 and |N/N1| = p, then
        # one layer deeper: W <= N2 and |N/N2| = p^2.
        wz = set_product(g, w, center(g))
        for index, floor, tag in ((g.p, wz, "xx"), (g.p * g.p, w, "qk")):
            for n1 in normals_between(g, lower=floor, upper=n, order=n.order // index, within=phi):
                cert, _ = try_config(g, n1, w, "paper", tag, extra, complement_of=n)
                if cert is not None:
                    return cert
    # Every special subgroup was tried, so the trail is the whole list.
    return Diagnostic(
        "descent:all special subgroups exhausted",
        {"group": g.fingerprint(), "trail_length": len(reports)},
    )


def find_noninner(g: GroupTable, mode: str = "search") -> "Certificate | Diagnostic | None":
    """Front door used by the CLI: 'search' or 'paper' mode."""
    if mode == "search":
        return _exhaustive_certificate(g) if g.is_abelian() else engine_sweep(g)
    if mode == "paper":
        return descent(g)
    raise NoninnerError(f"unknown mode {mode!r}")
