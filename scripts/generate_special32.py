"""Regenerate tests/data/special32.pres.

The three groups of order 32 with a special subgroup are central extensions
of K4sC4 by C_2: the classes with H^2 coefficients (0,1,0,0), (1,1,0,0) and
(1,1,0,1) over the representatives of cohomology(K4sC4, trivial:1, 2).
tests/test_special_fixture.py rebuilds them the same way and checks each
file entry against its extension up to isomorphism.

    python scripts/generate_special32.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pgv.catalog import find_entry, table_to_presentation
from pgv.cohomology import TwoCocycle, cohomology
from pgv.extensions import build_extension
from pgv.gmodule import trivial_module
from pgv.presentations import render_presentation

BASE = "K4sC4"
COEFFS = ((0, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 1))


def extension(coeffs):
    """The central extension of K4sC4 by C_2 with these H^2 coefficients."""
    q = find_entry(BASE).group()
    m = trivial_module(q, 1)
    sp = cohomology(q, m, 2)
    table = sum(c * rep.table for c, rep in zip(coeffs, sp.h_reps)) % q.p
    return build_extension(q, m, TwoCocycle(q, m, table)).total


def name(coeffs) -> str:
    return f"{BASE}_e{''.join(map(str, coeffs))}"


def main():
    lines = [
        "# The order-32 groups with a special subgroup N (C_G(N)/Z(N) cyclic,",
        "# I(C_G(N)) inside N, N C_G(N) inside Phi(G)): central extensions of",
        f"# {BASE} by C_2, regenerated by scripts/generate_special32.py.",
        "",
    ]
    for coeffs in COEFFS:
        pres = table_to_presentation(extension(coeffs), name(coeffs))
        lines.append(f"# source: {BASE}+trivial:1, H^2 coefficients {coeffs}")
        lines.append(render_presentation(pres).rstrip())
        lines.append("")
    out = Path(__file__).resolve().parents[1] / "tests" / "data" / "special32.pres"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} with {len(COEFFS)} groups")


if __name__ == "__main__":
    main()
