"""Regenerate the presentation data files from central extensions.

src/pgv/data/order81.pres: every group of order 3^4 is a central extension
of a group of order 3^3 by C_3, so every second-cohomology class over the
five order-27 groups, deduplicated up to isomorphism, gives the complete
classification (15 groups).

tests/data/special32.pres: the three groups of order 32 with a special
subgroup are central extensions of K4sC4 by C_2, the classes with the H^2
coefficients COEFFS over the representatives of cohomology(K4sC4,
trivial:1, 2).  tests/test_special_fixture.py rebuilds them with
`extension` and checks each file entry against it up to isomorphism.

    python scripts/generate_data.py
"""

import itertools
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pgv.catalog import abelian_presentation, find_entry, order27_list, table_to_presentation
from pgv.cohomology import TwoCocycle, cohomology
from pgv.extensions import build_extension
from pgv.group_core import _group_invariants, abelian_cyclic_basis, find_isomorphism, from_pc_presentation
from pgv.gmodule import trivial_module
from pgv.presentations import render_presentation

BASE = "K4sC4"
COEFFS = ((0, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 1))


def extend(q, m, reps, coeffs):
    """The extension of q by m whose cocycle has these coefficients on the
    H^2 representatives reps."""
    table = sum(c * rep.table for c, rep in zip(coeffs, reps)) % q.p
    return build_extension(q, m, TwoCocycle(q, m, table)).total


def extension(coeffs):
    """The central extension of K4sC4 by C_2 with these H^2 coefficients."""
    q = find_entry(BASE).group()
    m = trivial_module(q, 1)
    return extend(q, m, cohomology(q, m, 2).h_reps, coeffs)


def name(coeffs) -> str:
    return f"{BASE}_e{''.join(map(str, coeffs))}"


def write(path, header, entries):
    """Write the header comment, then each (source, presentation) entry."""
    lines = [f"# {line}" for line in header] + [""]
    for source, pres in entries:
        lines += [f"# source: {source}", render_presentation(pres).rstrip(), ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {path} with {len(entries)} groups")


def order81_entries():
    found = []  # (invariants, table, source)
    for pres in order27_list():
        q = from_pc_presentation(pres)
        m = trivial_module(q, 1)
        reps = cohomology(q, m, 2, h2_order_cap=64).h_reps
        for coeffs in itertools.product(range(3), repeat=len(reps)):
            g = extend(q, m, reps, coeffs)
            inv = _group_invariants(g)
            if not any(inv == i2 and find_isomorphism(g2, g) is not None for i2, g2, _ in found):
                found.append((inv, g, f"{pres.name}+{coeffs}"))
    assert len(found) == 15, f"expected 15 groups of order 81, got {len(found)}"
    # Abelian groups are named by their cyclic factors, the rest numbered.
    entries, counter = [], 0
    for _, g, source in found:
        if g.is_abelian():
            parts = [round(math.log(g.element_order(b), 3)) for b in abelian_cyclic_basis(g)]
            label = abelian_presentation(3, parts).name
        else:
            counter += 1
            label = f"G81n{counter}"
        pres = table_to_presentation(g, label)
        assert find_isomorphism(from_pc_presentation(pres), g) is not None, label
        entries.append((source, pres))
    return entries


def main():
    write(
        ROOT / "src" / "pgv" / "data" / "order81.pres",
        [
            "The 15 groups of order 81, generated as central extensions of the",
            "order-27 groups and deduplicated up to isomorphism.",
        ],
        order81_entries(),
    )
    write(
        ROOT / "tests" / "data" / "special32.pres",
        [
            "The order-32 groups with a special subgroup N (C_G(N)/Z(N) cyclic,",
            "I(C_G(N)) inside N, N C_G(N) inside Phi(G)): central extensions of",
            f"{BASE} by C_2, regenerated by scripts/generate_data.py.",
        ],
        [
            (f"{BASE}+trivial:1, H^2 coefficients {c}", table_to_presentation(extension(c), name(c)))
            for c in COEFFS
        ],
    )


if __name__ == "__main__":
    main()
