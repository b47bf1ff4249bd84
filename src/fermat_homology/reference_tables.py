"""Checked-in reference tables for the exponent-3 computation.

The JSON file under data/ is a one-time manual transcription of the
published matrices, B values and basis lists that the reproduction suite
compares against.  Basis vectors are stored as monomial expressions in
e = e_0 and f = e_1 (or as combinations of the affine homology basis
v1..v4) so the transcription stays reviewable next to the source tables.

Every list holds its entries as printed.  Four printed entries are not
cocycles of the computed complex, one of them a misprint in the source;
each is recorded once, under ``findings``, with the printed blocks, a
reading where one can be derived (null otherwise) and a one-line reason.
`findings` returns the readings as parsed vectors and `read_vectors`
substitutes them.
"""

from __future__ import annotations

import functools
import json
import re

from ._value import frozen
from .fp_linalg import FpMatrix
from .group_ring import GroupRingElement
from .homology import RelativeClass

# A sum splits before each sign; a term is a sign, a coefficient, then
# symbols: e/f factors such as e^2 or f2, or one of v1..v4.
_TERM_RE = re.compile(r"([+-]?)(\d*)([^+-]*)")
_MONOMIAL_RE = re.compile(r"(?:[ef]\^?\d*)*")
_VAR_RE = re.compile(r"([ef])\^?(\d*)")
_V_RE = re.compile(r"v[1-4]")


def _terms(expr: str, symbols_re: re.Pattern, error: str):
    """(coefficient, symbols) for each term of the sum `expr`, none for '0'.
    Raises ValueError when a sign has nothing after it, and `error` with
    the whole term when its symbols do not match `symbols_re`."""
    compact = expr.replace(" ", "").replace("*", "")
    if compact in ("", "0"):
        return
    # only a leading sign leaves an empty piece
    for term in filter(None, re.split(r"(?=[+-])", compact)):
        sign, digits, symbols = _TERM_RE.fullmatch(term).groups()
        if not (digits or symbols):
            raise ValueError(f"sign with no term after it in: {expr}")
        if not symbols_re.fullmatch(symbols):
            raise ValueError(f"{error}: {term}")
        yield (-1 if sign == "-" else 1) * (int(digits) if digits else 1), symbols


def parse_element(expr: str, n: int = 3) -> GroupRingElement:
    """Monomial expression in e, f (e.g. '1 - ef + e^2f^2') to Lambda_1."""
    coeffs: dict[tuple[int, int], int] = {}
    terms = _terms(expr, _MONOMIAL_RE, "unexpected symbol in monomial expression")
    for coeff, symbols in terms:
        exps = {"e": 0, "f": 0}
        for var, power in _VAR_RE.findall(symbols):
            exps[var] += int(power) if power else 1
        key = (exps["e"] % n, exps["f"] % n)
        coeffs[key] = coeffs.get(key, 0) + coeff
    return GroupRingElement.from_dict(n, 1, coeffs)


def parse_v_combination(expr: str) -> tuple[int, int, int, int]:
    """Linear combination of v1..v4 (e.g. 'v1 - v4') to coordinates."""
    out = [0, 0, 0, 0]
    for coeff, symbols in _terms(expr, _V_RE, "cannot parse v-combination term"):
        k = int(symbols[1]) - 1
        out[k] = (out[k] + coeff) % 3
    return tuple(out)


def _parse_blocks(key: str, blocks) -> tuple[int, ...]:
    """Blocks of a listed vector; lists over the group ring end in
    '_lambda1', lists over affine homology in '_h1u'."""
    if key.endswith("_lambda1"):
        return sum((parse_element(block).coeffs for block in blocks), ())
    if key.endswith("_h1u"):
        return sum(map(parse_v_combination, blocks), ())
    raise ValueError(f"unknown basis list: {key}")


@frozen
class TableFinding:
    """A printed list entry that fails its check against the computed
    complex; `index` is 0-based and `reading` is None when no reading can
    be derived."""

    key: str
    index: int
    printed: tuple[str, ...]
    reading: tuple[int, ...] | None
    reason: str


class ReferenceTables:
    """Typed access to the transcribed tables."""

    def __init__(self, raw: dict) -> None:
        self.raw = raw
        self.p = raw["p"]

    def s_matrix(self) -> FpMatrix:
        return FpMatrix.from_rows(self.p, self.raw["S"])

    def t_matrix(self) -> FpMatrix:
        return FpMatrix.from_rows(self.p, self.raw["T"])

    def s1_matrix(self) -> FpMatrix:
        return FpMatrix.from_rows(self.p, self.raw["S1"])

    def b_sigma(self) -> GroupRingElement:
        return parse_element(self.raw["B_sigma"])

    def b_tau(self) -> GroupRingElement:
        return parse_element(self.raw["B_tau"])

    def v_classes(self) -> list[RelativeClass]:
        return [
            RelativeClass(GroupRingElement.from_grid(3, grid))
            for grid in self.raw["v_grids"]
        ]

    def vectors(self, key: str) -> list[tuple[int, ...]]:
        """The printed list `key` as coordinate vectors."""
        return [_parse_blocks(key, blocks) for blocks in self.raw[key]]

    def findings(self, key: str | None = None) -> list[TableFinding]:
        """Recorded findings, all of them or those on the list `key`.

        Raises ValueError if a finding's printed blocks are not the entry
        at its index, so a finding cannot drift from the list it describes.
        """
        out = []
        for entry in self.raw["findings"]:
            if key is not None and entry["list"] != key:
                continue
            printed = tuple(entry["printed"])
            if tuple(self.raw[entry["list"]][entry["index"]]) != printed:
                raise ValueError(
                    f"finding on {entry['list']} entry {entry['index']} does not "
                    "match the printed entry"
                )
            reading = entry["reading"]
            out.append(
                TableFinding(
                    key=entry["list"],
                    index=entry["index"],
                    printed=printed,
                    reading=None if reading is None else _parse_blocks(entry["list"], reading),
                    reason=entry["reason"],
                )
            )
        return out

    def read_vectors(self, key: str) -> list[tuple[int, ...]]:
        """The printed list `key` with every recorded reading substituted;
        entries whose finding has no reading stay as printed."""
        vectors = self.vectors(key)
        for finding in self.findings(key):
            if finding.reading is not None:
                vectors[finding.index] = finding.reading
        return vectors


@functools.lru_cache(maxsize=1)
def load_tables() -> ReferenceTables:
    # Imported here: it pulls in pathlib, zipfile and tempfile at import.
    from importlib import resources

    text = resources.files("fermat_homology").joinpath("data/reference_tables.json").read_text()
    return ReferenceTables(json.loads(text))
