"""SMILES parsing into molecule graphs.

Supported subset:

* organic-subset atoms written bare (``B C N O P S F Cl Br I``) and their
  aromatic lowercase forms (``b c n o p s``),
* bracket atoms with optional isotope (parsed and discarded), tetrahedral
  chirality (``@`` / ``@@`` only), explicit hydrogen count, formal charge,
  and an optional atom class (parsed and discarded),
* branches, dot-separated fragments, and ring closures including the
  two-digit ``%nn`` form,
* bond symbols ``- = # :`` plus the directional single bonds ``/`` and
  ``\\``, which are stored as edge direction markers.

Digits (isotopes, hydrogen counts, charges, atom classes, ring closures)
are the ASCII ``0``-``9``; digits of other scripts are not read as
digits.

Implicit hydrogens are never materialized as nodes; explicit ``[H]`` atoms
are kept.  Aromatic rings are kept as aromatic bonds, never kekulized.
Extended stereochemistry tags (``@TH1`` and friends) are rejected with a
diagnostic.

Hard errors raise :class:`SmilesParseError` carrying a
:class:`ParseDiagnostic`.  Only :func:`parse_with_diagnostics` checks
valence, on the finished graph; problems are soft and surface as
``VALENCE_WARNING`` diagnostics.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from pathlib import Path
from typing import NoReturn

from .errors import DataError
from .graph import (
    AtomNode,
    BondDirection,
    BondEdge,
    BondType,
    Chirality,
    MoleculeGraph,
    flip_direction,
)

__all__ = [
    "DiagnosticKind",
    "ParseDiagnostic",
    "SmilesParseError",
    "parse_smiles",
    "parse_with_diagnostics",
    "parse_corpus",
    "CorpusRow",
    "CorpusFailure",
    "CorpusParseResult",
]


class DiagnosticKind(Enum):
    UNCLOSED_RING = "unclosed_ring"
    UNCLOSED_BRANCH = "unclosed_branch"
    UNKNOWN_ATOM = "unknown_atom"
    BAD_BOND = "bad_bond"
    BAD_CHARGE = "bad_charge"
    VALENCE_WARNING = "valence_warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    """A problem found while parsing, located by character offset."""

    kind: DiagnosticKind
    position: int
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.position}: {self.message}"


class SmilesParseError(DataError):
    """Raised on the first hard parse error; carries the diagnostic."""

    def __init__(self, diagnostic: ParseDiagnostic, text: str):
        super().__init__(f"{diagnostic} in {text!r}")
        self.diagnostic = diagnostic
        self.text = text


_ELEMENTS: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}


@cache
def _atom_node(atomic_number: int, chirality: Chirality, charge: int) -> AtomNode:
    """The one shared node with these fields: equal atoms of every parsed
    graph are the same frozen object.  The vocabulary bounds the cache at
    118 elements x 4 chirality tags x 31 charges (-15..+15)."""
    return AtomNode(atomic_number, chirality, charge)


#: Most bond edges :func:`_bond_edge` keeps; the least recently used goes.
_BOND_EDGE_CACHE = 4096


@lru_cache(maxsize=_BOND_EDGE_CACHE)
def _bond_edge(
    a: int, b: int, bond_type: BondType, direction: BondDirection
) -> BondEdge:
    """The shared edge ``BondEdge.between(a, b, bond_type, direction)``:
    equal bonds of recently parsed graphs are the same frozen object, and
    a repeated bond costs one lookup instead of a validated construction.
    Endpoints are unbounded, so the cache is bounded by size instead: at
    most :data:`_BOND_EDGE_CACHE` entries of about 300 bytes (argument
    tuple, edge, list link and two endpoint ints), about 1.2 MB."""
    return BondEdge.between(a, b, bond_type, direction)


# Bare (unbracketed) atoms of the organic subset and their aromatic
# lowercase forms: (node, aromatic).  ``Cl`` and ``Br`` are the only
# two-letter symbols.
_ORGANIC: dict[str, tuple[AtomNode, bool]] = {
    sym: (_atom_node(_ELEMENTS[sym.capitalize()], Chirality.UNSPECIFIED, 0), sym.islower())
    for sym in ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", *"bcnops")
}
# Aromatic symbols allowed inside brackets.
_AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as", "te"})
# SMILES digits are ASCII only; ``str.isdigit`` also accepts other scripts.
_DIGITS = frozenset("0123456789")
# Two-letter extended stereo tags we reject (``@TH1`` etc.).
_EXTENDED_STEREO = ("TH", "AL", "SP", "TB", "OH", "EB")

# Accepted valence lists per atomic number; the maximum entry bounds the
# ValenceWarning check.  Elements absent here are never warned about.
_VALENCES: dict[int, tuple[int, ...]] = {
    1: (1,), 5: (3,), 6: (4,), 7: (3, 5), 8: (2,), 9: (1,),
    15: (3, 5), 16: (2, 4, 6), 17: (1,), 35: (1,), 53: (1,),
}
_MAX_VALENCE = {z: max(valences) for z, valences in _VALENCES.items()}

_BOND_SYMBOLS: dict[str, tuple[BondType, BondDirection]] = {
    "-": (BondType.SINGLE, BondDirection.NONE),
    "=": (BondType.DOUBLE, BondDirection.NONE),
    "#": (BondType.TRIPLE, BondDirection.NONE),
    ":": (BondType.AROMATIC, BondDirection.NONE),
    "/": (BondType.SINGLE, BondDirection.END_UP_RIGHT),
    "\\": (BondType.SINGLE, BondDirection.END_DOWN_RIGHT),
}

_BOND_ORDER = {
    BondType.SINGLE: 1.0,
    BondType.DOUBLE: 2.0,
    BondType.TRIPLE: 3.0,
    BondType.AROMATIC: 1.5,
}


@dataclass
class _Pending:
    """A bond symbol waiting for its right-hand atom or ring digit."""

    bond_type: BondType
    direction: BondDirection
    position: int


@dataclass
class _RingOpen:
    atom: int
    bond: _Pending | None
    position: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nodes: list[AtomNode] = []
        # Per node: (aromatic, explicit hydrogen count, position, chain parent).
        self.atoms: list[tuple[bool, int, int, int | None]] = []
        self.edges: list[BondEdge] = []
        self.ring_pairs: set[tuple[int, int]] = set()
        self.prev: int | None = None
        self.pending: _Pending | None = None
        self.branches: list[tuple[int, int]] = []
        self.rings: dict[int, _RingOpen] = {}

    def fail(self, kind: DiagnosticKind, position: int, message: str) -> NoReturn:
        raise SmilesParseError(ParseDiagnostic(kind, position, message), self.text)

    def _no_pending(self, message: str) -> None:
        """Fail at the pending bond symbol, if there is one."""
        if self.pending is not None:
            self.fail(DiagnosticKind.BAD_BOND, self.pending.position, message)

    def _digits(self, i: int) -> tuple[str, int]:
        """The run of digits starting at ``i``, and the index after it."""
        s, end = self.text, i
        while end < len(s) and s[end] in _DIGITS:
            end += 1
        return s[i:end], end

    # -- atom scanning -------------------------------------------------

    # Bare organic-subset atoms are scanned in :meth:`run`'s loop.

    def _scan_bracket(self) -> tuple[AtomNode, bool, int, int]:
        """(node, aromatic, explicit hydrogen count, position) of the
        bracket atom at ``pos``; moves ``pos`` past it."""
        s, start = self.text, self.pos
        _, i = self._digits(start + 1)  # isotope, discarded
        atomic_number, aromatic, i = self._bracket_symbol(i, start)
        chirality, i = self._bracket_chirality(i)
        explicit_h = 0
        if i < len(s) and s[i] == "H":
            digits, i = self._digits(i + 1)
            explicit_h = int(digits) if digits else 1
        charge, i = self._bracket_charge(i)
        if i < len(s) and s[i] == ":":  # atom class, discarded
            digits, end = self._digits(i + 1)
            if not digits:
                self.fail(DiagnosticKind.UNKNOWN_ATOM, i + 1, "malformed atom class")
            i = end
        if i >= len(s) or s[i] != "]":
            self.fail(DiagnosticKind.UNKNOWN_ATOM, start, "unterminated bracket atom")
        self.pos = i + 1
        return _atom_node(atomic_number, chirality, charge), aromatic, explicit_h, start

    def _bracket_symbol(self, i: int, start: int) -> tuple[int, bool, int]:
        s = self.text
        if i >= len(s):
            self.fail(DiagnosticKind.UNKNOWN_ATOM, start, "unterminated bracket atom")
        ch = s[i]
        if ch.islower():
            two = s[i : i + 2]
            if two in _AROMATIC_BRACKET:
                return _ELEMENTS[two.capitalize()], True, i + 2
            if ch in _AROMATIC_BRACKET:
                return _ELEMENTS[ch.upper()], True, i + 1
            self.fail(
                DiagnosticKind.UNKNOWN_ATOM, i, f"unknown aromatic symbol {ch!r}"
            )
        if ch.isupper():
            two = s[i : i + 2]
            if len(two) == 2 and two[1].islower() and two in _ELEMENTS:
                return _ELEMENTS[two], False, i + 2
            if ch in _ELEMENTS:
                return _ELEMENTS[ch], False, i + 1
            self.fail(DiagnosticKind.UNKNOWN_ATOM, i, f"unknown element {two!r}")
        self.fail(DiagnosticKind.UNKNOWN_ATOM, i, f"expected element symbol, got {ch!r}")

    def _bracket_chirality(self, i: int) -> tuple[Chirality, int]:
        s = self.text
        if i >= len(s) or s[i] != "@":
            return Chirality.UNSPECIFIED, i
        if s.startswith("@@", i):
            return Chirality.TETRAHEDRAL_CW, i + 2
        tag = s[i + 1 : i + 3]
        if tag in _EXTENDED_STEREO:
            self.fail(
                DiagnosticKind.UNKNOWN_ATOM,
                i,
                f"extended stereochemistry @{tag} is not supported",
            )
        return Chirality.TETRAHEDRAL_CCW, i + 1

    def _bracket_charge(self, i: int) -> tuple[int, int]:
        s = self.text
        if i >= len(s) or s[i] not in "+-":
            return 0, i
        symbol, start = s[i], i
        sign = 1 if symbol == "+" else -1
        digits, i = self._digits(i + 1)
        if digits:
            magnitude = int(digits)
        else:
            magnitude = 1
            while i < len(s) and s[i] in "+-":
                if s[i] != symbol:
                    self.fail(
                        DiagnosticKind.BAD_CHARGE, start, "mixed charge symbols"
                    )
                magnitude += 1
                i += 1
        if magnitude > 15:
            self.fail(
                DiagnosticKind.BAD_CHARGE, start, f"implausible charge {sign * magnitude:+d}"
            )
        return sign * magnitude, i

    # -- graph assembly ------------------------------------------------

    def _add_edge(self, a: int, b: int, bond: _Pending | None) -> None:
        if bond is None:
            aromatic = self.atoms[a][0] and self.atoms[b][0]
            bond_type = BondType.AROMATIC if aromatic else BondType.SINGLE
            direction = BondDirection.NONE
        else:
            bond_type, direction = bond.bond_type, bond.direction
        self.edges.append(_bond_edge(a, b, bond_type, direction))

    def _ring_digit(self, digit: int, position: int) -> None:
        if self.prev is None:
            self.fail(
                DiagnosticKind.UNCLOSED_RING, position, "ring closure before any atom"
            )
        open_ = self.rings.pop(digit, None)
        if open_ is None:
            self.rings[digit] = _RingOpen(self.prev, self.pending, position)
            self.pending = None
            return
        self._close_ring(open_, position)

    def _close_ring(self, open_: _RingOpen, position: int) -> None:
        a, b = open_.atom, self.prev
        assert b is not None
        ring_bond: _Pending | None = None
        # Direction markers are normalized to the open -> close orientation;
        # the closing-side symbol reads close -> open and must be flipped.
        if open_.bond is not None and self.pending is not None:
            if open_.bond.bond_type != self.pending.bond_type:
                self.fail(
                    DiagnosticKind.BAD_BOND,
                    position,
                    "ring closure bond type disagrees with its opening",
                )
            direction = open_.bond.direction
            closing = flip_direction(self.pending.direction)
            if (
                direction != BondDirection.NONE
                and closing != BondDirection.NONE
                and direction != closing
            ):
                self.fail(
                    DiagnosticKind.BAD_BOND,
                    position,
                    "ring closure direction disagrees with its opening",
                )
            if direction == BondDirection.NONE:
                direction = closing
            ring_bond = _Pending(open_.bond.bond_type, direction, open_.position)
        elif open_.bond is not None:
            ring_bond = open_.bond
        elif self.pending is not None:
            ring_bond = _Pending(
                self.pending.bond_type,
                flip_direction(self.pending.direction),
                self.pending.position,
            )
        self.pending = None
        if a == b:
            self.fail(DiagnosticKind.BAD_BOND, position, "bond from an atom to itself")
        lo, hi = (a, b) if a < b else (b, a)
        # An earlier bond of the pair is hi's chain bond or a ring closure.
        if self.atoms[hi][3] == lo or (lo, hi) in self.ring_pairs:
            self.fail(
                DiagnosticKind.BAD_BOND,
                position,
                f"duplicate bond between atoms {lo} and {hi}",
            )
        self.ring_pairs.add((lo, hi))
        self._add_edge(a, b, ring_bond)

    # -- main loop -----------------------------------------------------

    def run(self) -> MoleculeGraph:
        s = self.text
        if not s:
            self.fail(DiagnosticKind.UNKNOWN_ATOM, 0, "empty SMILES string")
        while self.pos < len(s):
            ch = s[self.pos]
            if ch == "[" or ch.isalpha():
                if ch == "[":
                    node, aromatic, explicit_h, position = self._scan_bracket()
                else:
                    position, explicit_h = self.pos, 0
                    # A two-letter symbol (Cl, Br) wins.
                    sym = s[position : position + 2]
                    if sym not in _ORGANIC:
                        sym = ch
                        if sym not in _ORGANIC:
                            self.fail(
                                DiagnosticKind.UNKNOWN_ATOM,
                                position,
                                f"unknown atom symbol {sym!r}",
                            )
                    self.pos = position + len(sym)
                    node, aromatic = _ORGANIC[sym]
                # The atom, and its bond to the previous one.
                idx = len(self.nodes)
                self.nodes.append(node)
                self.atoms.append((aromatic, explicit_h, position, self.prev))
                if self.prev is not None:
                    # The new atom has no bonds yet, so this one is no duplicate.
                    self._add_edge(self.prev, idx, self.pending)
                else:
                    self._no_pending("bond symbol with no preceding atom")
                self.pending = None
                self.prev = idx
            elif ch in _BOND_SYMBOLS:
                if self.pending is not None:
                    self.fail(
                        DiagnosticKind.BAD_BOND, self.pos, "two bond symbols in a row"
                    )
                bond_type, direction = _BOND_SYMBOLS[ch]
                self.pending = _Pending(bond_type, direction, self.pos)
                self.pos += 1
            elif ch in _DIGITS:
                self._ring_digit(int(ch), self.pos)
                self.pos += 1
            elif ch == "%":
                digits, _ = self._digits(self.pos + 1)
                if len(digits) < 2:
                    self.fail(
                        DiagnosticKind.UNCLOSED_RING,
                        self.pos,
                        "'%' ring closure needs two digits",
                    )
                self._ring_digit(int(digits[:2]), self.pos)
                self.pos += 3
            elif ch == "(":
                if self.prev is None:
                    self.fail(
                        DiagnosticKind.UNCLOSED_BRANCH,
                        self.pos,
                        "branch opened before any atom",
                    )
                self._no_pending("bond symbol before a branch opening")
                self.branches.append((self.prev, self.pos))
                self.pos += 1
            elif ch == ")":
                if not self.branches:
                    self.fail(
                        DiagnosticKind.UNCLOSED_BRANCH,
                        self.pos,
                        "branch closed but never opened",
                    )
                self._no_pending("dangling bond symbol before ')'")
                self.prev = self.branches.pop()[0]
                self.pos += 1
            elif ch == ".":
                self._no_pending("dangling bond symbol before '.'")
                self.prev = None
                self.pos += 1
            else:
                self.fail(
                    DiagnosticKind.UNKNOWN_ATOM, self.pos, f"unexpected character {ch!r}"
                )
        self._no_pending("dangling bond symbol at end of input")
        if self.rings:
            digit, first = min(self.rings.items(), key=lambda kv: kv[1].position)
            self.fail(
                DiagnosticKind.UNCLOSED_RING,
                first.position,
                f"ring closure {digit} never closed",
            )
        if self.branches:
            self.fail(
                DiagnosticKind.UNCLOSED_BRANCH,
                self.branches[-1][1],
                "branch never closed",
            )
        if not self.nodes:  # only '.' separators: nothing to encode
            self.fail(DiagnosticKind.UNKNOWN_ATOM, 0, "no atoms in SMILES string")
        return MoleculeGraph(tuple(self.nodes), tuple(self.edges))


def _valence_warnings(graph: MoleculeGraph, atoms: list[tuple]) -> list[ParseDiagnostic]:
    """A ``VALENCE_WARNING`` per atom whose bonds and explicit H exceed its allowance."""
    orders = [0.0] * graph.num_nodes
    for e in graph.edges:
        orders[e.u] += _BOND_ORDER[e.bond_type]
        orders[e.v] += _BOND_ORDER[e.bond_type]
    warnings = []
    for node, (aromatic, explicit_h, position, _), order in zip(graph.nodes, atoms, orders):
        z = node.atomic_number
        valence = _MAX_VALENCE.get(z)
        if valence is None:
            continue
        usage = order + explicit_h
        # Aromatic atoms get one unit of slack so delocalized systems
        # (pyrrole-type N-H) do not warn without kekulization.
        allowed = valence + abs(node.formal_charge) + (1.0 if aromatic else 0.0)
        if usage > allowed + 1e-9:
            message = f"bond order total {usage:g} exceeds {allowed:g} for element {z}"
            warnings.append(ParseDiagnostic(DiagnosticKind.VALENCE_WARNING, position, message))
    return warnings


def parse_with_diagnostics(text: str) -> tuple[MoleculeGraph, list[ParseDiagnostic]]:
    """Parse a SMILES string, returning the graph and soft warnings.

    Args:
        text: the SMILES string; surrounding whitespace is ignored and
            diagnostic positions refer to the stripped string.

    Returns:
        ``(graph, warnings)`` where warnings are all ``VALENCE_WARNING``
        diagnostics.  Node order follows atom appearance order.

    Raises:
        SmilesParseError: on the first hard error (unknown atom, bad bond or
            charge, unclosed ring or branch).
    """
    parser = _Parser(text.strip())
    graph = parser.run()
    return graph, _valence_warnings(graph, parser.atoms)


def parse_smiles(text: str) -> MoleculeGraph:
    """Parse a SMILES string into a :class:`MoleculeGraph`.

    Same contract as :func:`parse_with_diagnostics` without the valence check.
    """
    return _Parser(text.strip()).run()


@dataclass(frozen=True)
class CorpusRow:
    index: int
    smiles: str
    graph: MoleculeGraph


@dataclass(frozen=True)
class CorpusFailure:
    index: int
    smiles: str
    diagnostic: ParseDiagnostic


@dataclass
class CorpusParseResult:
    rows: list[CorpusRow]
    failures: list[CorpusFailure]

    @property
    def graphs(self) -> list[MoleculeGraph]:
        return [r.graph for r in self.rows]


def _column_positions(fields: list[str]) -> dict[str, int]:
    """Each header name's position; a repeated name keeps its last, as the
    key of a ``csv.DictReader`` record does."""
    return {name: j for j, name in enumerate(fields)}


def _read_smiles_csv(
    path: str | Path
) -> tuple[list[str], list[tuple[CorpusRow, list[str]]], list[CorpusFailure]]:
    """Read a CSV file and parse its (stripped) ``smiles`` column.

    Returns the header, each parsed row with its raw CSV cells, and the rows
    that failed to parse, both in input order.  Row indices are 0-based over
    data rows (the header is not counted).  Cells are read as
    ``csv.DictReader`` reads them, without a dict per row: an empty line is
    no row, and a column name stands for its last position in the header,
    whose cell a short row lacks.
    """
    path = Path(path)
    # Unlike Path.exists, False for a name too long or holding a NUL byte.
    if not os.path.exists(path):
        raise DataError(f"corpus file not found: {path}")
    parsed: list[tuple[CorpusRow, list[str]]] = []
    failures: list[CorpusFailure] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            fields = next(reader, [])
            if "smiles" not in fields:
                raise DataError(
                    f"column 'smiles' not found in {path} (have: {', '.join(fields)})"
                )
            col = _column_positions(fields)["smiles"]
            index = -1
            for row in reader:
                if not row:
                    continue
                index += 1
                text = row[col].strip() if col < len(row) else ""
                try:
                    graph = parse_smiles(text)
                except SmilesParseError as exc:
                    failures.append(CorpusFailure(index, text, exc.diagnostic))
                else:
                    parsed.append((CorpusRow(index, text, graph), row))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return fields, parsed, failures


def parse_corpus(path: str | Path) -> CorpusParseResult:
    """Parse the ``smiles`` column of a CSV file, keeping row indices.

    Rows that fail to parse are collected as :class:`CorpusFailure` and
    skipped; everything else is returned in input order.  Row indices are
    0-based over data rows (the header is not counted).
    """
    _, parsed, failures = _read_smiles_csv(path)
    return CorpusParseResult([row for row, _ in parsed], failures)
