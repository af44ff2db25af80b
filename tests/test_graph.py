"""Graph data model: vocabularies, invariants, relabeling, debug listing."""

import weakref

import pytest
from hypothesis import given, strategies as st

from graph_oracle import adjacency, relabel, validate
from molcontrast.encoder import GraphBatch
from molcontrast.graph import (
    MASK_ATOMIC_NUMBER,
    NUM_ATOM_TYPES,
    NUM_BOND_DIRECTIONS,
    NUM_BOND_TYPES,
    NUM_CHIRALITY_TYPES,
    AtomNode,
    BondDirection,
    BondEdge,
    BondType,
    Chirality,
    MoleculeGraph,
    flip_direction,
    format_graph,
    mask_token,
)


def test_vocabulary_sizes():
    assert NUM_ATOM_TYPES == 120
    assert NUM_CHIRALITY_TYPES == 4
    assert NUM_BOND_TYPES == 5
    assert NUM_BOND_DIRECTIONS == 3
    assert len(list(Chirality)) == NUM_CHIRALITY_TYPES
    assert len(list(BondType)) == NUM_BOND_TYPES
    assert len(list(BondDirection)) == NUM_BOND_DIRECTIONS
    # every slot index is distinct and within range
    assert sorted(int(c) for c in Chirality) == [0, 1, 2, 3]
    assert sorted(int(b) for b in BondType) == [0, 1, 2, 3, 4]
    assert sorted(int(d) for d in BondDirection) == [0, 1, 2]


def test_mask_token():
    m = mask_token()
    assert m.atomic_number == MASK_ATOMIC_NUMBER == 119
    assert m.chirality == Chirality.UNSPECIFIED
    assert m.formal_charge == 0
    assert mask_token() == mask_token()
    for z in range(1, 119):
        assert m != AtomNode(z)


def test_atom_node_bounds():
    AtomNode(1)
    AtomNode(119)
    with pytest.raises(ValueError):
        AtomNode(0)
    with pytest.raises(ValueError):
        AtomNode(120)
    with pytest.raises(ValueError):
        AtomNode(-6)
    # bool is an int subclass, but True is no hydrogen
    with pytest.raises(ValueError):
        AtomNode(True)
    with pytest.raises(ValueError):
        AtomNode(False)


def test_enum_fields_coerce_ints_and_reject_non_members():
    assert AtomNode(6, 1).chirality is Chirality.TETRAHEDRAL_CW
    e = BondEdge(0, 1, 1, 2)
    assert e.bond_type is BondType.DOUBLE
    assert e.direction is BondDirection.END_DOWN_RIGHT
    with pytest.raises(ValueError):
        AtomNode(6, 4)
    with pytest.raises(ValueError):
        BondEdge(0, 1, 5)
    with pytest.raises(ValueError):
        BondEdge(0, 1, 0, 3)


def test_bond_edge_normalization():
    e = BondEdge.between(3, 1, BondType.DOUBLE)
    assert (e.u, e.v) == (1, 3)
    with pytest.raises(ValueError):
        BondEdge(2, 2)
    with pytest.raises(ValueError):
        BondEdge(3, 1)  # raw constructor insists on u < v


def test_between_flips_direction():
    # the marker is relative to writing order, so swapping endpoints flips it
    e = BondEdge.between(5, 2, BondType.SINGLE, BondDirection.END_UP_RIGHT)
    assert (e.u, e.v) == (2, 5)
    assert e.direction == BondDirection.END_DOWN_RIGHT
    kept = BondEdge.between(2, 5, BondType.SINGLE, BondDirection.END_UP_RIGHT)
    assert kept.direction == BondDirection.END_UP_RIGHT
    assert flip_direction(BondDirection.NONE) == BondDirection.NONE
    assert flip_direction(flip_direction(BondDirection.END_UP_RIGHT)) == (
        BondDirection.END_UP_RIGHT
    )


def _path_graph(n):
    nodes = tuple(AtomNode(6) for _ in range(n))
    edges = tuple(BondEdge(i, i + 1) for i in range(n - 1))
    return MoleculeGraph(nodes, edges)


def test_equality_ignores_edge_order():
    nodes = (AtomNode(6), AtomNode(6), AtomNode(8))
    a = MoleculeGraph(nodes, (BondEdge(0, 1), BondEdge(1, 2)))
    b = MoleculeGraph(nodes, (BondEdge(1, 2), BondEdge(0, 1)))
    assert a == b
    assert hash(a) == hash(b)
    c = MoleculeGraph(nodes, (BondEdge(0, 1), BondEdge(1, 2, BondType.DOUBLE)))
    assert a != c


def _pack_neighbours(g: MoleculeGraph) -> tuple[tuple[int, ...], ...]:
    """Each atom's destinations in the ``bonds_by_source()`` rows of ``g``'s
    one-graph pack, in row order."""
    _, dst, _, start = GraphBatch.from_graphs([g]).bonds_by_source()
    return tuple(tuple(dst[start[v] : start[v + 1]].tolist()) for v in range(g.num_nodes))


def test_neighbors_path():
    g = _path_graph(3)
    assert adjacency(g) == _pack_neighbours(g) == ((1,), (0, 2), (1,))


def test_neighbors_isolated():
    g = MoleculeGraph((AtomNode(11), AtomNode(17)))
    assert adjacency(g) == _pack_neighbours(g) == ((), ())


def test_graphs_keep_no_instance_dict_and_can_be_weakly_referenced():
    g = _path_graph(3)
    assert not hasattr(g, "__dict__")
    assert weakref.ref(g)() is g
    with pytest.raises(AttributeError):  # no slot, no dict: nothing can be cached on it
        object.__setattr__(g, "adjacency", ())


def test_edge_bounds_checked_on_construction():
    with pytest.raises(ValueError):
        MoleculeGraph((AtomNode(6),), (BondEdge(0, 1),))


def test_validate_clean_graph():
    assert validate(_path_graph(4)) == []


def test_validate_duplicate_edge():
    nodes = (AtomNode(6), AtomNode(6))
    g = MoleculeGraph(nodes, (BondEdge(0, 1), BondEdge(0, 1, BondType.DOUBLE)))
    problems = validate(g)
    assert len(problems) == 1
    assert "duplicate" in problems[0]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = tuple(
        AtomNode(draw(st.integers(min_value=1, max_value=119))) for _ in range(n)
    )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = tuple(
        BondEdge(u, v, draw(st.sampled_from(list(BondType)))) for u, v in chosen
    )
    return MoleculeGraph(nodes, edges)


@given(random_graphs())
def test_constructed_graphs_validate(g):
    assert validate(g) == []
    implied = [set() for _ in range(g.num_nodes)]
    for e in g.edges:
        implied[e.u].add(e.v)
        implied[e.v].add(e.u)
    neighbours = adjacency(g)
    assert neighbours == tuple(tuple(sorted(row)) for row in implied)
    assert _pack_neighbours(g) == neighbours  # no bond is listed twice
    for v in range(g.num_nodes):
        for u in neighbours[v]:
            assert v in neighbours[u]


@given(random_graphs(), st.randoms(use_true_random=False))
def test_relabel_roundtrip(g, rnd):
    perm = list(range(g.num_nodes))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert validate(h) == []
    assert h.num_nodes == g.num_nodes and h.num_edges == g.num_edges
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    assert relabel(h, inverse) == g


def test_relabel_rejects_non_permutation():
    g = _path_graph(3)
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])
    with pytest.raises(ValueError):
        relabel(g, [0, 1])


def test_format_graph_listing():
    nodes = (AtomNode(6), AtomNode(8, Chirality.TETRAHEDRAL_CW))
    g = MoleculeGraph(nodes, (BondEdge(0, 1, BondType.DOUBLE),))
    text = format_graph(g)
    lines = text.splitlines()
    assert lines[0] == "nodes 2 edges 1"
    assert lines[1] == "0 6 unspecified"
    assert lines[2] == "1 8 tetrahedral_cw"
    assert lines[3] == "0 1 double none"


def test_format_graph_sorts_edges():
    nodes = tuple(AtomNode(6) for _ in range(3))
    a = MoleculeGraph(nodes, (BondEdge(1, 2), BondEdge(0, 1)))
    b = MoleculeGraph(nodes, (BondEdge(0, 1), BondEdge(1, 2)))
    assert format_graph(a) == format_graph(b)
