"""Molecular graph data model.

Nodes carry the atomic number and a tetrahedral chirality tag; edges carry a
bond type and an optional single-bond direction marker.  These four categories
are exactly the features the encoder embeds, so their vocabulary sizes are
fixed here as module constants.  Formal charge is kept on the node as parsed
metadata but is not part of the embedded feature set.

Graphs are immutable and slotted, and store no neighbour lists.  Edges are
stored once per unordered pair with ``u < v``; whatever walks a molecule's
bonds (augmentation's subgraph walk, the fingerprints and the scaffolds)
walks the ``bonds_by_source()`` rows of a packed
:class:`~molcontrast.encoder.GraphBatch` instead.
:class:`AtomNode` and :class:`BondEdge` are slotted value objects compared by
value: the parser hands every equal atom the same shared node, and every
equal bond the same shared edge while a bounded cache holds it, so object
identity says nothing about a node's or an edge's place in a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Chirality(IntEnum):
    """Tetrahedral chirality tag attached to an atom.

    The integer values are embedding-table rows and must not be reordered.
    """

    UNSPECIFIED = 0
    TETRAHEDRAL_CW = 1
    TETRAHEDRAL_CCW = 2
    OTHER = 3


class BondType(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3
    # Reserved for encoder-internal self-loop edges; never present in a
    # parsed or augmented graph.
    SELF_LOOP = 4


class BondDirection(IntEnum):
    """Cis/trans marker written as ``/`` or ``\\`` on a single bond.

    The direction is stored relative to the edge's canonical ``u -> v``
    orientation; reversing the orientation swaps the two marked values.
    """

    NONE = 0
    END_UP_RIGHT = 1
    END_DOWN_RIGHT = 2


#: Atomic number reserved for the augmentation mask token; not a real element.
MASK_ATOMIC_NUMBER = 119
#: Embedding rows for atomic numbers: slot 0 is padding, 1..118 are elements,
#: 119 is the mask token.
NUM_ATOM_TYPES = 120
NUM_CHIRALITY_TYPES = 4
#: Four chemical bond types plus the reserved self-loop slot.
NUM_BOND_TYPES = 5
NUM_BOND_DIRECTIONS = 3


def flip_direction(direction: BondDirection) -> BondDirection:
    """Direction marker as seen from the opposite bond orientation."""
    if direction == BondDirection.END_UP_RIGHT:
        return BondDirection.END_DOWN_RIGHT
    if direction == BondDirection.END_DOWN_RIGHT:
        return BondDirection.END_UP_RIGHT
    return BondDirection.NONE


@dataclass(frozen=True, slots=True)
class AtomNode:
    atomic_number: int
    chirality: Chirality = Chirality.UNSPECIFIED
    formal_charge: int = 0

    def __post_init__(self) -> None:
        z = self.atomic_number
        if not isinstance(z, int) or isinstance(z, bool):
            raise ValueError(f"atomic_number must be int, got {z!r}")
        if not 1 <= z <= MASK_ATOMIC_NUMBER:
            raise ValueError(f"atomic_number {z} outside [1, {MASK_ATOMIC_NUMBER}]")
        # Only a non-member goes through the enum constructor, which raises
        # ValueError for a value outside the vocabulary.
        if type(self.chirality) is not Chirality:
            object.__setattr__(self, "chirality", Chirality(self.chirality))


def mask_token() -> AtomNode:
    """The node every masked atom is replaced with."""
    return AtomNode(MASK_ATOMIC_NUMBER, Chirality.UNSPECIFIED, 0)


@dataclass(frozen=True, slots=True)
class BondEdge:
    """Undirected bond between node indices ``u < v``."""

    u: int
    v: int
    bond_type: BondType = BondType.SINGLE
    direction: BondDirection = BondDirection.NONE

    def __post_init__(self) -> None:
        u, v = self.u, self.v
        if not 0 <= u < v:
            if u < 0 or v < 0:
                raise ValueError(f"negative node index in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop edge at node {u}")
            raise ValueError(f"edge ({u}, {v}) not normalized; use BondEdge.between")
        if type(self.bond_type) is not BondType:
            object.__setattr__(self, "bond_type", BondType(self.bond_type))
        if type(self.direction) is not BondDirection:
            object.__setattr__(self, "direction", BondDirection(self.direction))

    @classmethod
    def between(
        cls,
        a: int,
        b: int,
        bond_type: BondType = BondType.SINGLE,
        direction: BondDirection = BondDirection.NONE,
    ) -> "BondEdge":
        """Build an edge from endpoints in writing order.

        ``direction`` is interpreted for the ``a -> b`` orientation and is
        flipped if normalization swaps the endpoints.
        """
        if a == b:
            raise ValueError(f"self-loop edge at node {a}")
        if a < b:
            return cls(a, b, bond_type, direction)
        return cls(b, a, bond_type, flip_direction(direction))

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.u, self.v, int(self.bond_type), int(self.direction))


@dataclass(frozen=True, eq=False, slots=True, weakref_slot=True)
class MoleculeGraph:
    """Immutable molecule graph: its atoms and bonds, and no instance dict;
    a weak-reference slot lets ``fingerprints._memo`` watch it.

    Equality ignores edge-list order; two parses that list the same bonds in
    different order compare equal.
    """

    nodes: tuple[AtomNode, ...]
    edges: tuple[BondEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        # On CPython 3.11 this loop beats ``max(e.v for e in edges)``.
        n = len(self.nodes)
        for e in self.edges:
            if e.v >= n:
                raise ValueError(f"edge ({e.u}, {e.v}) references node beyond {n - 1}")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoleculeGraph):
            return NotImplemented
        return self.nodes == other.nodes and sorted(
            self.edges, key=BondEdge.sort_key
        ) == sorted(other.edges, key=BondEdge.sort_key)

    def __hash__(self) -> int:
        return hash((self.nodes, tuple(sorted(self.edges, key=BondEdge.sort_key))))


def format_graph(g: MoleculeGraph) -> str:
    """Deterministic plain-text listing used for goldens and inspection.

    One node per line (index, atomic number, chirality), then one edge per
    line sorted lexicographically (endpoints, bond type, direction).
    """
    lines = [f"nodes {g.num_nodes} edges {g.num_edges}"]
    for i, node in enumerate(g.nodes):
        lines.append(f"{i} {node.atomic_number} {node.chirality.name.lower()}")
    for e in sorted(g.edges, key=BondEdge.sort_key):
        lines.append(
            f"{e.u} {e.v} {e.bond_type.name.lower()} {e.direction.name.lower()}"
        )
    return "\n".join(lines)
