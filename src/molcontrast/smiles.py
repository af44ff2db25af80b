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
from typing import Callable, NoReturn

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


def _bare_node(sym: str) -> AtomNode:
    return _atom_node(_ELEMENTS[sym.capitalize()], Chirality.UNSPECIFIED, 0)


# Bare (unbracketed) atoms of the organic subset and their aromatic
# lowercase forms, by first letter: (node, aromatic, two-letter form).
# ``Cl`` and ``Br`` are the only two-letter symbols; their form is (second
# letter, node), and it wins over the one-letter atom.
_ORGANIC: dict[str, tuple[AtomNode, bool, tuple[str, AtomNode] | None]] = {
    sym: (_bare_node(sym), sym.islower(), None) for sym in "BCNOPSFIbcnops"
}
_ORGANIC["C"] = (_bare_node("C"), False, ("l", _bare_node("Cl")))
_ORGANIC["B"] = (_bare_node("B"), False, ("r", _bare_node("Br")))
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

# The chain bond's fields, as globals that the loop reads without an
# attribute lookup on the enum class.
_SINGLE, _AROMATIC = BondType.SINGLE, BondType.AROMATIC
_NO_DIRECTION = BondDirection.NONE

_BOND_ORDER = {
    BondType.SINGLE: 1.0,
    BondType.DOUBLE: 2.0,
    BondType.TRIPLE: 3.0,
    BondType.AROMATIC: 1.5,
}


def _fail(text: str, kind: DiagnosticKind, position: int, message: str) -> NoReturn:
    raise SmilesParseError(ParseDiagnostic(kind, position, message), text)


def _digits(s: str, i: int) -> tuple[str, int]:
    """The run of digits starting at ``i``, and the index after it."""
    end = i
    while end < len(s) and s[end] in _DIGITS:
        end += 1
    return s[i:end], end


# -- bracket atoms ---------------------------------------------------------


def _bracket_atom(s: str, start: int) -> tuple[AtomNode, bool, int, int]:
    """(node, aromatic, explicit hydrogen count, index after it) of the
    bracket atom whose ``[`` is at ``start``."""
    _, i = _digits(s, start + 1)  # isotope, discarded
    atomic_number, aromatic, i = _bracket_symbol(s, i, start)
    chirality, i = _bracket_chirality(s, i)
    explicit_h = 0
    if i < len(s) and s[i] == "H":
        digits, i = _digits(s, i + 1)
        explicit_h = int(digits) if digits else 1
    charge, i = _bracket_charge(s, i)
    if i < len(s) and s[i] == ":":  # atom class, discarded
        digits, end = _digits(s, i + 1)
        if not digits:
            _fail(s, DiagnosticKind.UNKNOWN_ATOM, i + 1, "malformed atom class")
        i = end
    if i >= len(s) or s[i] != "]":
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, start, "unterminated bracket atom")
    return _atom_node(atomic_number, chirality, charge), aromatic, explicit_h, i + 1


def _bracket_symbol(s: str, i: int, start: int) -> tuple[int, bool, int]:
    if i >= len(s):
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, start, "unterminated bracket atom")
    ch = s[i]
    if ch.islower():
        two = s[i : i + 2]
        if two in _AROMATIC_BRACKET:
            return _ELEMENTS[two.capitalize()], True, i + 2
        if ch in _AROMATIC_BRACKET:
            return _ELEMENTS[ch.upper()], True, i + 1
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, i, f"unknown aromatic symbol {ch!r}")
    if ch.isupper():
        two = s[i : i + 2]
        if len(two) == 2 and two[1].islower() and two in _ELEMENTS:
            return _ELEMENTS[two], False, i + 2
        if ch in _ELEMENTS:
            return _ELEMENTS[ch], False, i + 1
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, i, f"unknown element {two!r}")
    _fail(s, DiagnosticKind.UNKNOWN_ATOM, i, f"expected element symbol, got {ch!r}")


def _bracket_chirality(s: str, i: int) -> tuple[Chirality, int]:
    if i >= len(s) or s[i] != "@":
        return Chirality.UNSPECIFIED, i
    if s.startswith("@@", i):
        return Chirality.TETRAHEDRAL_CW, i + 2
    tag = s[i + 1 : i + 3]
    if tag in _EXTENDED_STEREO:
        _fail(
            s,
            DiagnosticKind.UNKNOWN_ATOM,
            i,
            f"extended stereochemistry @{tag} is not supported",
        )
    return Chirality.TETRAHEDRAL_CCW, i + 1


def _bracket_charge(s: str, i: int) -> tuple[int, int]:
    if i >= len(s) or s[i] not in "+-":
        return 0, i
    symbol, start = s[i], i
    sign = 1 if symbol == "+" else -1
    digits, i = _digits(s, i + 1)
    if digits:
        magnitude = int(digits)
    else:
        magnitude = 1
        while i < len(s) and s[i] in "+-":
            if s[i] != symbol:
                _fail(s, DiagnosticKind.BAD_CHARGE, start, "mixed charge symbols")
            magnitude += 1
            i += 1
    if magnitude > 15:
        _fail(s, DiagnosticKind.BAD_CHARGE, start, f"implausible charge {sign * magnitude:+d}")
    return sign * magnitude, i


# -- ring closures ---------------------------------------------------------


def _ring_closure(
    s: str,
    opened: tuple[int, tuple[BondType, BondDirection] | None, int],
    b: int,
    pending: tuple[BondType, BondDirection] | None,
    position: int,
    atoms: list[tuple[bool, int, int, int | None]],
    ring_pairs: set[tuple[int, int]],
) -> BondEdge:
    """The bond that the ring digit at ``position``, read after atom ``b``
    with the bond symbol ``pending``, closes to its opening ``opened``
    (atom, bond symbol, position); adds the pair to ``ring_pairs``."""
    a, bond, _ = opened
    # Direction markers are normalized to the open -> close orientation;
    # the closing-side symbol reads close -> open and must be flipped.
    if bond is not None and pending is not None:
        bond_type, direction = bond
        if bond_type != pending[0]:
            _fail(
                s,
                DiagnosticKind.BAD_BOND,
                position,
                "ring closure bond type disagrees with its opening",
            )
        closing = flip_direction(pending[1])
        if (
            direction != BondDirection.NONE
            and closing != BondDirection.NONE
            and direction != closing
        ):
            _fail(
                s,
                DiagnosticKind.BAD_BOND,
                position,
                "ring closure direction disagrees with its opening",
            )
        if direction == BondDirection.NONE:
            direction = closing
    elif bond is not None:
        bond_type, direction = bond
    elif pending is not None:
        bond_type, direction = pending[0], flip_direction(pending[1])
    else:
        aromatic = atoms[a][0] and atoms[b][0]
        bond_type = BondType.AROMATIC if aromatic else BondType.SINGLE
        direction = BondDirection.NONE
    if a == b:
        _fail(s, DiagnosticKind.BAD_BOND, position, "bond from an atom to itself")
    lo, hi = (a, b) if a < b else (b, a)
    # An earlier bond of the pair is hi's chain bond or a ring closure.
    if atoms[hi][3] == lo or (lo, hi) in ring_pairs:
        _fail(s, DiagnosticKind.BAD_BOND, position, f"duplicate bond between atoms {lo} and {hi}")
    ring_pairs.add((lo, hi))
    return _bond_edge(a, b, bond_type, direction)


# -- main loop -------------------------------------------------------------


def _parse(s: str) -> tuple[MoleculeGraph, list[tuple[bool, int, int, int | None]]]:
    """The graph of the (stripped) SMILES ``s``, and per atom its aromatic
    flag, explicit hydrogen count, position and chain parent (the atom its
    chain bond comes from, or None), which the valence check reads.

    The parser's state lives in this frame's locals: the cursor ``i``, the
    previous atom and whether it is aromatic, and the pending bond symbol
    (type and direction, and its position), which a bond symbol sets and the
    next atom or ring digit consumes.  Branch and ring openings are tuples.
    Each character's branch runs its checks in a fixed order, because the
    first check that fails names the diagnostic: a ``(`` with no previous
    atom is an unclosed branch before its pending bond is looked at, and a
    bracket atom is scanned before a pending bond with no atom before it is.
    """
    if not s:
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, 0, "empty SMILES string")
    nodes: list[AtomNode] = []
    atoms: list[tuple[bool, int, int, int | None]] = []
    edges: list[BondEdge] = []
    ring_pairs: set[tuple[int, int]] = set()
    branches: list[tuple[int, bool, int]] = []  # (atom, aromatic, position)
    rings: dict[int, tuple[int, tuple[BondType, BondDirection] | None, int]] = {}
    prev: int | None = None
    prev_aromatic = False
    pending: tuple[BondType, BondDirection] | None = None
    pending_at = 0
    i, n = 0, len(s)
    idx = -1  # the last atom's index
    while i < n:
        ch = s[i]
        bare = _ORGANIC.get(ch)
        if bare is not None or ch == "[":
            position = i
            if bare is None:
                node, aromatic, explicit_h, i = _bracket_atom(s, i)
            else:
                node, aromatic, two = bare
                if two is not None and s[i + 1 : i + 2] == two[0]:
                    node = two[1]
                    i += 1
                explicit_h = 0
                i += 1
            idx += 1
            nodes.append(node)
            atoms.append((aromatic, explicit_h, position, prev))
            if prev is not None:
                # The new atom has no bonds yet, so this one is no duplicate.
                if pending is None:
                    bond_type = _AROMATIC if prev_aromatic and aromatic else _SINGLE
                    edges.append(_bond_edge(prev, idx, bond_type, _NO_DIRECTION))
                else:
                    edges.append(_bond_edge(prev, idx, pending[0], pending[1]))
                    pending = None
            elif pending is not None:
                message = "bond symbol with no preceding atom"
                _fail(s, DiagnosticKind.BAD_BOND, pending_at, message)
            prev, prev_aromatic = idx, aromatic
        elif ch == "(":
            if prev is None:
                _fail(s, DiagnosticKind.UNCLOSED_BRANCH, i, "branch opened before any atom")
            if pending is not None:
                _fail(s, DiagnosticKind.BAD_BOND, pending_at, "bond symbol before a branch opening")
            branches.append((prev, prev_aromatic, i))
            i += 1
        elif ch == ")":
            if not branches:
                _fail(s, DiagnosticKind.UNCLOSED_BRANCH, i, "branch closed but never opened")
            if pending is not None:
                _fail(s, DiagnosticKind.BAD_BOND, pending_at, "dangling bond symbol before ')'")
            prev, prev_aromatic, _ = branches.pop()
            i += 1
        elif ch in _DIGITS or ch == "%":
            if ch == "%":
                digits, _ = _digits(s, i + 1)
                if len(digits) < 2:
                    _fail(s, DiagnosticKind.UNCLOSED_RING, i, "'%' ring closure needs two digits")
                digit, end = int(digits[:2]), i + 3
            else:
                digit, end = int(ch), i + 1
            if prev is None:
                _fail(s, DiagnosticKind.UNCLOSED_RING, i, "ring closure before any atom")
            opened = rings.pop(digit, None)
            if opened is None:
                rings[digit] = (prev, pending, i)
            else:
                edges.append(_ring_closure(s, opened, prev, pending, i, atoms, ring_pairs))
            pending = None
            i = end
        elif ch in _BOND_SYMBOLS:
            if pending is not None:
                _fail(s, DiagnosticKind.BAD_BOND, i, "two bond symbols in a row")
            pending, pending_at = _BOND_SYMBOLS[ch], i
            i += 1
        elif ch == ".":
            if pending is not None:
                _fail(s, DiagnosticKind.BAD_BOND, pending_at, "dangling bond symbol before '.'")
            prev = None
            i += 1
        elif ch.isalpha():
            _fail(s, DiagnosticKind.UNKNOWN_ATOM, i, f"unknown atom symbol {ch!r}")
        else:
            _fail(s, DiagnosticKind.UNKNOWN_ATOM, i, f"unexpected character {ch!r}")
    if pending is not None:
        _fail(s, DiagnosticKind.BAD_BOND, pending_at, "dangling bond symbol at end of input")
    if rings:
        digit, (_, _, position) = min(rings.items(), key=lambda kv: kv[1][2])
        _fail(s, DiagnosticKind.UNCLOSED_RING, position, f"ring closure {digit} never closed")
    if branches:
        _fail(s, DiagnosticKind.UNCLOSED_BRANCH, branches[-1][2], "branch never closed")
    if not nodes:  # only '.' separators: nothing to encode
        _fail(s, DiagnosticKind.UNKNOWN_ATOM, 0, "no atoms in SMILES string")
    return MoleculeGraph(tuple(nodes), tuple(edges)), atoms


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
    graph, atoms = _parse(text.strip())
    return graph, _valence_warnings(graph, atoms)


def parse_smiles(text: str) -> MoleculeGraph:
    """Parse a SMILES string into a :class:`MoleculeGraph`.

    Same contract as :func:`parse_with_diagnostics` without the valence check.
    """
    return _parse(text.strip())[0]


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
    path: str | Path, cell_reader: Callable[[list[str]], Callable] | None = None
) -> tuple[list[str], list[CorpusRow], list[CorpusFailure]]:
    """Read a CSV file and parse its (stripped) ``smiles`` column.

    Returns the header, the parsed rows and the rows that failed to parse,
    both in input order.  Row indices are 0-based over data rows (the header
    is not counted).  Cells are read as ``csv.DictReader`` reads them,
    without a dict per row: an empty line is no row, and a column name
    stands for its last position in the header, whose cell a short row
    lacks.  ``cell_reader``, when given, is called with the header, and what
    it returns is called with each parsed row and its raw CSV cells as the
    row is read, so no more than one row's cells are held.
    """
    path = Path(path)
    # Unlike Path.exists, False for a name too long or holding a NUL byte.
    if not os.path.exists(path):
        raise DataError(f"corpus file not found: {path}")
    parsed: list[CorpusRow] = []
    failures: list[CorpusFailure] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            fields = next(reader, [])
            if "smiles" not in fields:
                raise DataError(
                    f"column 'smiles' not found in {path} (have: {', '.join(fields)})"
                )
            col = _column_positions(fields)["smiles"]
            read_cells = cell_reader(fields) if cell_reader else None
            index = -1
            for row in reader:
                if not row:
                    continue
                index += 1
                text = row[col].strip() if col < len(row) else ""
                try:
                    graph = _parse(text)[0]
                except SmilesParseError as exc:
                    failures.append(CorpusFailure(index, text, exc.diagnostic))
                else:
                    parsed.append(CorpusRow(index, text, graph))
                    if read_cells:
                        read_cells(parsed[-1], row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return fields, parsed, failures


def parse_corpus(path: str | Path) -> CorpusParseResult:
    """Parse the ``smiles`` column of a CSV file, keeping row indices.

    Rows that fail to parse are collected as :class:`CorpusFailure` and
    skipped; everything else is returned in input order.  Row indices are
    0-based over data rows (the header is not counted).
    """
    _, rows, failures = _read_smiles_csv(path)
    return CorpusParseResult(rows, failures)
