"""Per-molecule reference fingerprints: one path, one atom, one hash at a time.

The library fingerprints a whole batch with array operations.  This module
keeps the plain loops it replaced, which the tests compare it against bit
for bit: the recursive simple-path walk, the per-path label and hash loop,
the per-atom neighbourhood refinement, and the retrieval analysis that
fingerprints one molecule at a time.  It finds ring atoms and Murcko cores
its own way too (a search per bond, leaves peeled in rounds), so a fault in
the library's walks shows in every comparison.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from molcontrast.datasets import _EMPTY_SCAFFOLD_KEY, _WL_ROUNDS
from molcontrast.encoder import embed_molecules
from molcontrast.fingerprints import (
    _MAX_PATH_BONDS,
    _NBITS,
    _RADIUS,
    BinStat,
    Fingerprint,
    NeighborHit,
    RetrievalReport,
    _cosine_distances,
    dice,
    fnv1a64,
)
from molcontrast.graph import BondEdge, MoleculeGraph

from graph_oracle import adjacency


def ring_atoms(g):
    """The ends of every bond whose two ends stay connected once that bond
    is removed: one breadth-first search per bond."""
    adj = adjacency(g)
    rings = set()
    for e in g.edges:
        seen = {e.u}
        queue = deque([e.u])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w not in seen and {x, w} != {e.u, e.v}:
                    seen.add(w)
                    queue.append(w)
        if e.v in seen:
            rings.update((e.u, e.v))
    return frozenset(rings)


def murcko_scaffold(g):
    """Delete every atom with at most one remaining neighbour, round after
    round, until none is left; the survivors keep their order."""
    adj = adjacency(g)
    alive = set(range(g.num_nodes))
    while True:
        leaves = {v for v in alive if sum(u in alive for u in adj[v]) <= 1}
        if not leaves:
            break
        alive -= leaves
    kept = sorted(alive)
    index = {v: i for i, v in enumerate(kept)}
    return MoleculeGraph(
        tuple(g.nodes[v] for v in kept),
        tuple(
            BondEdge(index[e.u], index[e.v], e.bond_type, e.direction)
            for e in g.edges
            if e.u in alive and e.v in alive
        ),
    )


def bond_types(g):
    """Bond type of every edge, keyed by both orientations."""
    bond_type = {}
    for e in g.edges:
        bond_type[(e.u, e.v)] = int(e.bond_type)
        bond_type[(e.v, e.u)] = int(e.bond_type)
    return bond_type


def refine(g, labels, bond_type):
    """One neighbourhood-hash round: each atom's label re-hashed with its
    sorted (bond type, neighbour label) pairs."""
    adj = adjacency(g)
    fresh = []
    for v in range(g.num_nodes):
        env = sorted((bond_type[(v, u)], labels[u]) for u in adj[v])
        text = f"{labels[v]}|" + ";".join(f"{b},{h}" for b, h in env)
        fresh.append(fnv1a64(text.encode()))
    return fresh


def circular_fp(g):
    rings = ring_atoms(g)
    bond_type = bond_types(g)
    adj = adjacency(g)
    inv = [
        fnv1a64(
            f"{node.atomic_number}|{len(adj[v])}|"
            f"{node.formal_charge}|{int(v in rings)}".encode()
        )
        for v, node in enumerate(g.nodes)
    ]
    bits = np.zeros(_NBITS, dtype=bool)
    bits[[h % _NBITS for h in inv]] = True
    for _ in range(_RADIUS):
        inv = refine(g, inv, bond_type)
        bits[[h % _NBITS for h in inv]] = True
    return Fingerprint("circular", bits)


def enumerate_simple_paths(g):
    """Simple paths with 1..7 bonds, each undirected path once.

    A path is kept when its node sequence is lexicographically <= its
    reverse, which dedupes the two traversal directions.
    """
    adj = adjacency(g)
    out = []
    path = []

    def walk(v, visited):
        path.append(v)
        visited.add(v)
        if len(path) >= 2:
            tup = tuple(path)
            if tup <= tup[::-1]:
                out.append(tup)
        if len(path) <= _MAX_PATH_BONDS:
            for u in adj[v]:
                if u not in visited:
                    walk(u, visited)
        visited.remove(v)
        path.pop()

    for start in range(g.num_nodes):
        walk(start, set())
    return out


def path_fp(g):
    bond_type = bond_types(g)
    bits = np.zeros(_NBITS, dtype=bool)
    for nodes in enumerate_simple_paths(g):
        seq = []
        for i, v in enumerate(nodes):
            if i:
                seq.append(bond_type[(nodes[i - 1], v)])
            seq.append(g.nodes[v].atomic_number)
        canonical = min(seq, seq[::-1])
        text = ",".join(map(str, canonical))
        bits[fnv1a64(text.encode()) % _NBITS] = True
    return Fingerprint("path", bits)


def scaffold_key(g):
    core = murcko_scaffold(g)
    if core.num_nodes == 0:
        return _EMPTY_SCAFFOLD_KEY
    labels = [fnv1a64(str(node.atomic_number).encode()) for node in core.nodes]
    bond_type = bond_types(core)
    for _ in range(_WL_ROUNDS):
        labels = refine(core, labels, bond_type)
    summary = f"{core.num_nodes}|{core.num_edges}|" + ",".join(map(str, sorted(labels)))
    return fnv1a64(summary.encode())


def retrieval_analysis(
    query, corpus, model, bins=20, samples_per_bin=None, seed=0, top_k=9
):
    """The retrieval report, fingerprinting each molecule when first scored."""
    reps = embed_molecules(model, list(corpus))
    q = embed_molecules(model, [query])[0]
    distances = _cosine_distances(q, reps)
    order = np.argsort(distances, kind="mergesort")

    query_fps = (circular_fp(query), path_fp(query))
    cache = {}

    def fps(idx):
        if idx not in cache:
            cache[idx] = (circular_fp(corpus[idx]), path_fp(corpus[idx]))
        return cache[idx]

    rng = np.random.default_rng(seed)
    stats = []
    for b, members in enumerate(np.array_split(order, bins)):
        chosen = members
        if samples_per_bin is not None and samples_per_bin < len(members):
            chosen = rng.choice(members, size=samples_per_bin, replace=False)
        dc = []
        dp = []
        for idx in chosen:
            fc, fp = fps(int(idx))
            dc.append(dice(query_fps[0], fc))
            dp.append(dice(query_fps[1], fp))
        for kind, values in (("circular", dc), ("path", dp)):
            mean, std = float(np.mean(values)), float(np.std(values))
            stats.append(BinStat(b, kind, mean, std, len(values)))
    neighbors = []
    for rank, idx in enumerate(order[:top_k]):
        fc, fp = fps(int(idx))
        neighbors.append(
            NeighborHit(
                rank,
                int(idx),
                float(distances[idx]),
                dice(query_fps[0], fc),
                dice(query_fps[1], fp),
            )
        )
    return RetrievalReport(len(corpus), bins, stats, neighbors)
