"""Power-commutator presentations and their line-oriented text grammar.

Grammar (UTF-8, '#' starts a comment):

    group <name>
    p <prime>
    gens <n>
    pow <i> : <word>
    comm <i> <j> : <word>
    end

    word := "1" | term ("*" term)*
    term := g<k> | g<k>^<e>   with 1 <= e < p

Every word on the right of `pow i` or `comm i j` may reference only
generators with index strictly greater than i, and `comm` requires i > j.
Omitted pow/comm relations default to the trivial word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .fp_linalg import check_prime


class PresentationError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass
class PcPresentation:
    """p-group presentation: g_i^p and [g_i, g_j] as words in higher generators.

    Words are stored flattened as lists of 1-based generator indices
    (an exponent e appears as e repeated letters).
    """

    p: int
    ngens: int
    name: str = ""
    pow_words: Dict[int, List[int]] = field(default_factory=dict)
    comm_words: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)

    def __post_init__(self):
        check_prime(self.p)
        if self.ngens < 1:
            raise PresentationError("at least one generator required")
        for i, w in self.pow_words.items():
            self._check_word(w, i, f"pow {i}")
        for (i, j), w in self.comm_words.items():
            if not (1 <= j < i <= self.ngens):
                raise PresentationError(f"comm {i} {j}: need ngens >= i > j >= 1")
            self._check_word(w, i, f"comm {i} {j}")

    def _check_word(self, word: List[int], i: int, what: str):
        if not (1 <= i <= self.ngens):
            raise PresentationError(f"{what}: generator index out of range")
        for k in word:
            if not (i < k <= self.ngens):
                raise PresentationError(
                    f"bad word: {what} references g{k}, which is not higher than g{i}"
                )

    def pow_word(self, i: int) -> List[int]:
        return self.pow_words.get(i, [])

    def comm_word(self, i: int, j: int) -> List[int]:
        return self.comm_words.get((i, j), [])

    def order(self) -> int:
        return self.p**self.ngens


_TERM_RE = re.compile(r"^g(\d+)(?:\^(\d+))?$")


def _parse_word(text: str, p: int, line_no: int, col0: int) -> List[int]:
    text = text.strip()
    if text == "1":
        return []
    letters: List[int] = []
    col = col0
    for term in text.split("*"):
        t = term.strip()
        m = _TERM_RE.match(t)
        if not m:
            raise PresentationError(f"bad word: cannot parse term {t!r}", line_no, col)
        k = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if not (1 <= e < p):
            raise PresentationError(
                f"bad word: exponent {e} out of range [1, {p})", line_no, col
            )
        letters.extend([k] * e)
        col += len(term) + 1
    return letters


def parse_presentations(text: str) -> List[PcPresentation]:
    """Parse a presentation file into a list of presentations."""
    out: List[PcPresentation] = []
    cur: dict | None = None

    def fail(msg, line_no, col=None):
        raise PresentationError(msg, line_no, col)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "group":
            if cur is not None:
                fail("nested 'group' (missing 'end')", line_no)
            if len(parts) != 2:
                fail("usage: group <name>", line_no)
            cur = {"name": parts[1], "p": None, "ngens": None, "pow": {}, "comm": {}}
        elif cur is None:
            fail(f"{kw!r} outside of a group block", line_no)
        elif kw == "p":
            if len(parts) != 2 or not parts[1].isdigit():
                fail("usage: p <prime>", line_no)
            cur["p"] = int(parts[1])
        elif kw == "gens":
            if len(parts) != 2 or not parts[1].isdigit():
                fail("usage: gens <n>", line_no)
            cur["ngens"] = int(parts[1])
        elif kw in ("pow", "comm"):
            if cur["p"] is None or cur["ngens"] is None:
                fail("'p' and 'gens' must precede relations", line_no)
            if ":" not in line:
                fail(f"usage: {kw} ... : <word>", line_no)
            head, word_text = line.split(":", 1)
            head_parts = head.split()
            idx = [s for s in head_parts[1:]]
            if kw == "pow":
                if len(idx) != 1 or not idx[0].isdigit():
                    fail("usage: pow <i> : <word>", line_no)
                i = int(idx[0])
                word = _parse_word(word_text, cur["p"], line_no, line.index(":") + 2)
                if i in cur["pow"]:
                    fail(f"duplicate pow relation for g{i}", line_no)
                cur["pow"][i] = word
            else:
                if len(idx) != 2 or not all(s.isdigit() for s in idx):
                    fail("usage: comm <i> <j> : <word>", line_no)
                i, j = int(idx[0]), int(idx[1])
                word = _parse_word(word_text, cur["p"], line_no, line.index(":") + 2)
                if (i, j) in cur["comm"]:
                    fail(f"duplicate comm relation for ({i},{j})", line_no)
                cur["comm"][(i, j)] = word
        elif kw == "end":
            try:
                pres = PcPresentation(
                    cur["p"], cur["ngens"], cur["name"], cur["pow"], cur["comm"]
                )
            except PresentationError as e:
                fail(str(e), line_no)
            out.append(pres)
            cur = None
        else:
            fail(f"unknown keyword {kw!r}", line_no)
    if cur is not None:
        raise PresentationError(f"group {cur['name']!r} not closed with 'end'")
    return out


def _word_to_text(word: List[int]) -> str:
    if not word:
        return "1"
    terms: List[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        e = j - i
        terms.append(f"g{word[i]}" + (f"^{e}" if e > 1 else ""))
        i = j
    return "*".join(terms)


def render_presentation(pres: PcPresentation) -> str:
    lines = [f"group {pres.name}", f"p {pres.p}", f"gens {pres.ngens}"]
    for i in range(1, pres.ngens + 1):
        lines.append(f"pow {i} : {_word_to_text(pres.pow_word(i))}")
    for i in range(2, pres.ngens + 1):
        for j in range(1, i):
            w = pres.comm_word(i, j)
            if w:
                lines.append(f"comm {i} {j} : {_word_to_text(w)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
