"""Graph helpers that only the tests use.

:func:`adjacency` lists each atom's neighbours straight from a graph's
edges, the reference for the library's packed ``bonds_by_source()`` rows
and the neighbour lists the per-molecule oracles walk.
:func:`validate` audits a graph assembled by hand, :func:`relabel` permutes
a graph's atoms for the invariance tests, and :func:`ring_atoms`,
:func:`murcko_scaffold` and :func:`scaffold_key` are the one-molecule forms
of the library's walks over a whole chunk of molecules.  The library never
calls them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from molcontrast.datasets import _murcko_mask, scaffold_keys
from molcontrast.encoder import GraphBatch
from molcontrast.fingerprints import _ring_mask
from molcontrast.graph import AtomNode, BondEdge, MoleculeGraph


def adjacency(g: MoleculeGraph) -> tuple[tuple[int, ...], ...]:
    """Sorted, duplicate-free neighbours of every atom of ``g``."""
    nbrs: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for e in g.edges:
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    return tuple(tuple(sorted(set(n))) for n in nbrs)


def validate(g: MoleculeGraph) -> list[str]:
    """Audit graph invariants; returns one message per violation.

    Checks duplicate bonds only.  The constructors reject everything else:
    :class:`BondEdge` a negative, repeated or reversed endpoint pair, and
    :class:`MoleculeGraph` an endpoint beyond its nodes.  A graph keeps no
    neighbour lists, so none can disagree with its edges.
    """
    problems: list[str] = []
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        key = (e.u, e.v)
        if key in seen:
            problems.append(f"duplicate edge ({e.u}, {e.v})")
        seen.add(key)
    return problems


def relabel(g: MoleculeGraph, perm: Sequence[int]) -> MoleculeGraph:
    """Apply a node relabeling: old index ``i`` becomes ``perm[i]``.

    Edge direction markers are flipped whenever normalization reverses an
    edge's stored orientation, so the relabeled graph is isomorphic to the
    input including stereo annotations.
    """
    n = g.num_nodes
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of node indices")
    nodes: list[AtomNode | None] = [None] * n
    for i, node in enumerate(g.nodes):
        nodes[perm[i]] = node
    edges = tuple(
        BondEdge.between(perm[e.u], perm[e.v], e.bond_type, e.direction)
        for e in g.edges
    )
    return MoleculeGraph(tuple(nodes), edges)  # type: ignore[arg-type]


def scaffold_key(g: MoleculeGraph) -> int:
    """64-bit scaffold identity; relabeling-invariant, chirality-blind."""
    return scaffold_keys([g])[0]


def ring_atoms(g: MoleculeGraph) -> frozenset[int]:
    """Atoms lying on at least one cycle (incident to a non-bridge edge)."""
    rows = GraphBatch.from_graphs([g]).bonds_by_source()
    return frozenset(np.flatnonzero(_ring_mask(rows)).tolist())


def murcko_scaffold(g: MoleculeGraph) -> MoleculeGraph:
    """The Murcko core as a graph of its own: the atoms that iteratively
    deleting degree <= 1 atoms leaves, renumbered in their order, with
    their features, and the bonds between them."""
    alive = _murcko_mask(GraphBatch.from_graphs([g])).tolist()
    kept = [v for v in range(g.num_nodes) if alive[v]]
    index = {v: i for i, v in enumerate(kept)}
    return MoleculeGraph(
        tuple(g.nodes[v] for v in kept),
        tuple(
            BondEdge(index[e.u], index[e.v], e.bond_type, e.direction)
            for e in g.edges
            if alive[e.u] and alive[e.v]
        ),
    )
