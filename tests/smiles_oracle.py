"""Reference SMILES parser: the ``_Parser`` class and its helpers as
``molcontrast.smiles`` had them before its character loop kept its state
in locals.

The library's parser must agree with this one on every string: the same
graph (every node field, every edge in order), or the same first hard
diagnostic (kind, position and message), and the same valence warnings.
Only the element table and the public diagnostic types come from the
library; the organic-subset, bond and valence tables are copied with the
parser, so that a change to them shows as a disagreement.  Nodes and edges
are built by their constructors, not taken from the library's caches of
shared nodes and edges, which hold equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from molcontrast.graph import (
    AtomNode,
    BondDirection,
    BondEdge,
    BondType,
    Chirality,
    MoleculeGraph,
    flip_direction,
)
from molcontrast.smiles import (
    _ELEMENTS,
    DiagnosticKind,
    ParseDiagnostic,
    SmilesParseError,
)


def _atom_node(atomic_number: int, chirality: Chirality, charge: int) -> AtomNode:
    return AtomNode(atomic_number, chirality, charge)


def _bond_edge(a: int, b: int, bond_type: BondType, direction: BondDirection) -> BondEdge:
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
    """The graph of ``text`` (stripped) and its valence warnings."""
    parser = _Parser(text.strip())
    graph = parser.run()
    return graph, _valence_warnings(graph, parser.atoms)
