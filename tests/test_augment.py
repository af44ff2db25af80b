"""Augmentation strategies: rounding, induced-subgraph property, determinism."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import augment_oracle
from golden_corpus import GOLDEN
from graph_oracle import adjacency, validate
from molgen import unlabeled_corpus
from molcontrast import augment
from molcontrast.augment import (
    COMPOSE_ALL,
    MASK_DELETE,
    STRATEGIES,
    SUBGRAPH,
    SUBGRAPH_RANDOM,
    AugmentSpec,
    augment_pair,
    augment_view,
    derive_rng,
    draw_view,
)
from molcontrast.encoder import GraphBatch
from molcontrast.graph import (
    MASK_ATOMIC_NUMBER,
    AtomNode,
    BondEdge,
    BondType,
    MoleculeGraph,
    format_graph,
)
from molcontrast.smiles import parse_smiles


def rng_for(seed):
    return np.random.default_rng(seed)


def path_graph(n):
    return parse_smiles("C" * n)


# -- spec validation ---------------------------------------------------------


def test_spec_validation():
    AugmentSpec()
    with pytest.raises(ValueError):
        AugmentSpec(strategy="nope")
    with pytest.raises(ValueError):
        AugmentSpec(mask_ratio=1.5)
    with pytest.raises(ValueError):
        AugmentSpec(delete_ratio=-0.1)
    with pytest.raises(ValueError):
        AugmentSpec(subgraph_ratio=2.0)


def test_derive_rng_streams():
    a = derive_rng(7, 1, 2).random(4)
    b = derive_rng(7, 1, 2).random(4)
    c = derive_rng(7, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


WORD = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**80) | st.sampled_from((0, 2**32 - 1, 2**32))


@settings(max_examples=300, deadline=None)
@given(seed=WORD, key=st.lists(WORD, max_size=4))
def test_derive_rng_is_the_seed_sequence_of_its_ints(seed, key):
    want = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    assert derive_rng(seed, *key).random(3).tobytes() == want.random(3).tobytes()


# -- atom masking ------------------------------------------------------------


def test_mask_zero_is_identity():
    g = parse_smiles("CCO")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0.0, delete_ratio=0), rng_for(0))
    assert view.graph == g
    assert view.masked_nodes == frozenset()
    assert view.deleted_edges == frozenset()


def test_mask_all():
    g = parse_smiles("c1ccccc1")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=1.0, delete_ratio=0), rng_for(0))
    assert view.masked_nodes == frozenset(range(6))
    assert all(n.atomic_number == MASK_ATOMIC_NUMBER for n in view.graph.nodes)
    assert view.graph.edges == g.edges  # masking never touches bonds


def test_mask_count_exact_over_seeds():
    # 8 nodes at p=0.25 -> round(2.0) = 2, for every seed
    g = path_graph(8)
    spec = AugmentSpec(MASK_DELETE, mask_ratio=0.25, delete_ratio=0)
    for seed in range(200):
        view = augment_view(g, spec, rng_for(seed))
        assert len(view.masked_nodes) == 2
        assert view.graph.num_nodes == 8
        assert view.graph.edges == g.edges


def test_mask_minimum_one():
    g = parse_smiles("CC")  # round(0.05 * 2) = 0, bumped to 1
    spec = AugmentSpec(MASK_DELETE, mask_ratio=0.05, delete_ratio=0)
    for seed in range(20):
        assert len(augment_view(g, spec, rng_for(seed)).masked_nodes) == 1


def test_masked_nodes_carry_token_exactly():
    g = parse_smiles("c1ccncc1")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0.5, delete_ratio=0), rng_for(3))
    for i, node in enumerate(view.graph.nodes):
        if i in view.masked_nodes:
            assert node.atomic_number == MASK_ATOMIC_NUMBER
            assert node.formal_charge == 0
        else:
            assert node == g.nodes[i]


def test_mask_frequency_uniform():
    # 10,000 seeds, 10 nodes, p=0.3: each node masked 30% +/- 2%
    g = path_graph(10)
    hits = np.zeros(10)
    trials = 10_000
    spec = AugmentSpec(MASK_DELETE, mask_ratio=0.3, delete_ratio=0)
    for seed in range(trials):
        for v in augment_view(g, spec, rng_for(seed)).masked_nodes:
            hits[v] += 1
    freq = hits / trials
    assert (np.abs(freq - 0.3) <= 0.02).all(), freq


# -- bond deletion -----------------------------------------------------------


def test_delete_zero_is_identity():
    g = parse_smiles("CCO")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=0.0), rng_for(0))
    assert view.graph == g


def test_delete_all():
    g = parse_smiles("c1ccccc1")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=1.0), rng_for(1))
    assert view.graph.num_edges == 0
    assert view.graph.nodes == g.nodes
    assert len(view.deleted_edges) == 6


def test_delete_count_benzene():
    # |E| = 6, p = 0.25: round(1.5) = 2 for every seed
    g = parse_smiles("c1ccccc1")
    spec = AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=0.25)
    for seed in range(200):
        view = augment_view(g, spec, rng_for(seed))
        assert len(view.deleted_edges) == 2
        assert view.graph.num_edges == 4
        assert view.graph.nodes == g.nodes
        assert validate(view.graph) == []


def test_delete_on_edgeless_graph_is_identity():
    g = parse_smiles("[Na+].[Cl-]")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=0.5), rng_for(0))
    assert view.graph == g
    assert view.deleted_edges == frozenset()


def test_deleted_edges_absent_from_adjacency():
    g = parse_smiles("C1CCCCC1")
    view = augment_view(g, AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=0.5), rng_for(9))
    neighbours = adjacency(view.graph)
    for u, v in view.deleted_edges:
        assert v not in neighbours[u]
        assert u not in neighbours[v]


# -- subgraph removal --------------------------------------------------------


def test_subgraph_zero_is_identity():
    g = parse_smiles("CCO")
    view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=0.0), rng_for(0))
    assert view.graph == g


def test_subgraph_full_removal():
    g = parse_smiles("c1ccccc1")
    view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=1.0), rng_for(4))
    assert view.masked_nodes == frozenset(range(6))
    assert view.graph.num_edges == 0
    assert len(view.deleted_edges) == 6


def test_subgraph_path_half():
    # 4-node path at p=0.5: masked set is an adjacent pair, and exactly
    # the bond between them is deleted
    g = path_graph(4)
    seen = set()
    for seed in range(300):
        view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=0.5), rng_for(seed))
        masked = sorted(view.masked_nodes)
        assert len(masked) == 2
        assert masked[1] - masked[0] == 1  # adjacent on the path
        assert view.deleted_edges == frozenset({(masked[0], masked[1])})
        assert view.graph.num_edges == 2
        seen.add(tuple(masked))
    assert seen == {(0, 1), (1, 2), (2, 3)}


def test_subgraph_induced_property():
    # every deleted edge has both endpoints masked; every masked adjacent
    # pair has its edge deleted
    for smiles in ["c1ccc2ccccc2c1", "CC(C)Cc1ccc(cc1)C(C)C(=O)O", "C1CC12CC2"]:
        g = parse_smiles(smiles)
        for seed in range(100):
            view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=0.4), rng_for(seed))
            masked = view.masked_nodes
            for u, v in view.deleted_edges:
                assert u in masked and v in masked
            for e in g.edges:
                inside = e.u in masked and e.v in masked
                assert ((e.u, e.v) in view.deleted_edges) == inside
            assert validate(view.graph) == []


def test_subgraph_spans_components_when_needed():
    # two triangles; p = 5/6 forces growth past the first component
    g = parse_smiles("C1CC1C1CC1".replace("C1CC1C1CC1", "C1CC1.C1CC1"))
    for seed in range(50):
        view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=5 / 6), rng_for(seed))
        assert len(view.masked_nodes) == 5


def test_subgraph_connected_within_component():
    # grown region is connected whenever one component suffices
    g = parse_smiles("C1CCCCC1CCCC")  # 10 atoms, connected
    neighbours = adjacency(g)
    for seed in range(100):
        view = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=0.4), rng_for(seed))
        masked = set(view.masked_nodes)
        assert len(masked) == 4
        start = next(iter(masked))
        reached = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in neighbours[v]:
                if u in masked and u not in reached:
                    reached.add(u)
                    frontier.append(u)
        assert reached == masked


# -- strategies --------------------------------------------------------------


def test_all_ratios_zero_identity_pair():
    g = parse_smiles("CC(=O)O")
    spec = AugmentSpec(strategy=MASK_DELETE, mask_ratio=0, delete_ratio=0, subgraph_ratio=0)
    a, b = augment_pair(g, spec, rng_for(0))
    assert a.graph == g and b.graph == g


def test_fixed_subgraph_quarter_on_20_nodes():
    g = path_graph(20)
    spec = AugmentSpec(strategy=SUBGRAPH, subgraph_ratio=0.25)
    for seed in range(50):
        a, b = augment_pair(g, spec, rng_for(seed))
        assert len(a.masked_nodes) == 5
        assert len(b.masked_nodes) == 5


def test_random_subgraph_bounded():
    g = path_graph(20)
    spec = AugmentSpec(strategy=SUBGRAPH_RANDOM, subgraph_ratio=0.25)
    sizes = set()
    for seed in range(200):
        view = augment_view(g, spec, rng_for(seed))
        assert 1 <= len(view.masked_nodes) <= 5
        sizes.add(len(view.masked_nodes))
    assert len(sizes) > 1  # the ratio really is random


def test_random_subgraph_ratio_is_one_draw_and_none_at_zero():
    # Both random-ratio strategies draw the ratio as the stream's first
    # value, U[0, subgraph_ratio], and draw nothing when it is 0.
    g = path_graph(20)
    for strategy in (SUBGRAPH_RANDOM, COMPOSE_ALL):
        spec = AugmentSpec(strategy=strategy, subgraph_ratio=0.4, mask_ratio=0, delete_ratio=0)
        for seed in range(20):
            rng = rng_for(seed)
            ratio = float(rng.uniform(0.0, 0.4))
            want = augment_view(g, AugmentSpec(SUBGRAPH, subgraph_ratio=ratio), rng)
            assert augment_view(g, spec, rng_for(seed)).masked_nodes == want.masked_nodes
        zero = AugmentSpec(strategy=strategy, subgraph_ratio=0, mask_ratio=0, delete_ratio=0)
        rng = rng_for(3)
        assert augment_view(g, zero, rng).graph == g
        assert rng.random() == rng_for(3).random()


def test_mask_delete_strategy_composition():
    g = parse_smiles("c1ccccc1")
    spec = AugmentSpec(strategy=MASK_DELETE, mask_ratio=0.25, delete_ratio=0.25)
    for seed in range(50):
        view = augment_view(g, spec, rng_for(seed))
        assert len(view.masked_nodes) == 2  # round(0.25 * 6) = 2
        assert len(view.deleted_edges) == 2  # round(0.25 * 6) = 2
        assert view.graph.num_nodes == 6
        assert view.graph.num_edges == 4


def test_compose_all_reaches_quotas():
    g = path_graph(16)  # 16 nodes, 15 edges
    spec = AugmentSpec(
        strategy=COMPOSE_ALL, mask_ratio=0.25, delete_ratio=0.25, subgraph_ratio=0.25
    )
    for seed in range(50):
        view = augment_view(g, spec, rng_for(seed))
        assert len(view.masked_nodes) >= math.ceil(0.25 * 16)
        assert len(view.deleted_edges) >= math.ceil(0.25 * 15)
        assert view.graph.num_nodes == 16
        assert validate(view.graph) == []


def test_compose_view_counts_subgraph_deletions_toward_quota():
    g = path_graph(16)
    spec = AugmentSpec(
        strategy=COMPOSE_ALL, mask_ratio=0.25, delete_ratio=0.25, subgraph_ratio=0.25
    )
    for seed in range(50):
        view = augment_view(g, spec, rng_for(seed))
        # quota is a top-up: never more than target unless subgraph overshot
        assert len(view.deleted_edges) <= max(4, len(view.masked_nodes) - 1) + 4


# -- determinism -------------------------------------------------------------


def test_same_seed_identical_pair():
    g = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    spec = AugmentSpec(strategy=COMPOSE_ALL)
    a1, b1 = augment_pair(g, spec, derive_rng(42, 0))
    a2, b2 = augment_pair(g, spec, derive_rng(42, 0))
    assert a1.graph == a2.graph and b1.graph == b2.graph
    assert a1.masked_nodes == a2.masked_nodes
    assert b1.deleted_edges == b2.deleted_edges


def test_different_seeds_differ():
    g = path_graph(20)
    spec = AugmentSpec(strategy=SUBGRAPH, subgraph_ratio=0.25)
    masked_sets = {
        augment_view(g, spec, derive_rng(seed, 0)).masked_nodes
        for seed in range(10)
    }
    assert len(masked_sets) > 1


def test_pair_views_differ_in_general():
    g = path_graph(20)
    spec = AugmentSpec(strategy=SUBGRAPH, subgraph_ratio=0.25)
    differing = 0
    for seed in range(20):
        a, b = augment_pair(g, spec, derive_rng(seed, 0))
        if a.masked_nodes != b.masked_nodes:
            differing += 1
    assert differing >= 15  # overwhelmingly likely to differ


def test_source_index_propagates():
    g = parse_smiles("CCO")
    view = augment_view(g, AugmentSpec(), rng_for(0), source_index=17)
    assert view.source_index == 17


# -- node count preserved by every operator ----------------------------------


@pytest.mark.parametrize("smiles", ["CCO", "c1ccccc1", "C1CC12CC2", "[Na+].[Cl-]"])
@pytest.mark.parametrize("strategy", [MASK_DELETE, SUBGRAPH_RANDOM, SUBGRAPH, COMPOSE_ALL])
def test_node_count_preserved(smiles, strategy):
    g = parse_smiles(smiles)
    spec = AugmentSpec(strategy=strategy)
    for seed in range(10):
        view = augment_view(g, spec, rng_for(seed))
        assert view.graph.num_nodes == g.num_nodes
        assert validate(view.graph) == []


# -- views are built once, from the source graph ------------------------------

# Default ratios, plus heavier ones that make compose_all top up both quotas.
GOLDEN_SPECS = [
    AugmentSpec(strategy=s, mask_ratio=m, delete_ratio=d, subgraph_ratio=r)
    for s in STRATEGIES
    for m, d, r in ((0.25, 0.25, 0.25), (0.5, 0.4, 0.3))
]


def test_golden_corpus_views_are_pinned():
    # Every view's listing, masked atoms and deleted bonds, pinned byte for
    # byte: pre-training checkpoints are only reproducible if views are.
    digest = hashlib.sha256()
    for spec in GOLDEN_SPECS:
        for i, golden in enumerate(GOLDEN):
            g = parse_smiles(golden.smiles)
            for seed in range(3):
                for view in augment_pair(g, spec, derive_rng(seed, i), i):
                    digest.update(format_graph(view.graph).encode())
                    digest.update(repr(sorted(view.masked_nodes)).encode())
                    digest.update(repr(sorted(view.deleted_edges)).encode())
    assert digest.hexdigest() == (
        "da4b0e85a2cab085eb8453e7d9c1f1615c04f6f877f6a6812d26151928898731"
    )


@pytest.mark.parametrize("ratios", [(0.25, 0.25), (0.5, 0.4), (0.0, 0.3), (0.3, 0.0)])
def test_mask_delete_equals_mask_then_delete(ratios):
    mask_ratio, delete_ratio = ratios
    spec = AugmentSpec(strategy=MASK_DELETE, mask_ratio=mask_ratio, delete_ratio=delete_ratio)
    for golden in GOLDEN:
        g = parse_smiles(golden.smiles)
        for seed in range(4):
            rng, ref_rng = rng_for(seed), rng_for(seed)
            view = augment_view(g, spec, rng)
            masked = augment_view(
                g, AugmentSpec(MASK_DELETE, mask_ratio=mask_ratio, delete_ratio=0), ref_rng
            )
            dropped = augment_view(
                masked.graph,
                AugmentSpec(MASK_DELETE, mask_ratio=0, delete_ratio=delete_ratio),
                ref_rng,
            )
            assert view.graph.nodes == dropped.graph.nodes
            assert view.graph.edges == dropped.graph.edges  # same order too
            assert view.masked_nodes == masked.masked_nodes
            assert view.deleted_edges == dropped.deleted_edges
            assert rng.random() == ref_rng.random()  # same draws consumed


@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_each_view_is_one_unwalked_graph(spec, monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(MoleculeGraph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(augment, "MoleculeGraph", counting)
    for i, golden in enumerate(GOLDEN):
        g = parse_smiles(golden.smiles)
        for seed in range(3):
            built.clear()
            view = augment_view(g, spec, derive_rng(seed, i))
            if view.graph is g:
                assert built == []
            else:
                assert len(built) == 1 and built[0] is view.graph


# -- views gathered from a packed corpus -------------------------------------

PACKED = [parse_smiles(g.smiles) for g in GOLDEN] + unlabeled_corpus(30, seed=5)
PACK = GraphBatch.from_graphs(PACKED)
ROWS = augment._pack_rows(PACK)
BATCH_ARRAYS = (
    "node_atomic", "node_chirality", "edge_src", "edge_dst", "edge_type", "edge_dir",
    "node_graph",
)
_AT = {g.smiles: i for i, g in enumerate(GOLDEN)}
# Edgeless molecules and / and \ bonds, beside ordinary ones.
SPECIAL = [_AT["[NH4+]"], _AT["[Na+].[Cl-]"], _AT["C/C=C/C"], _AT["F/C=C\\F"], len(GOLDEN)]
RATIOS = st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)


@settings(max_examples=250, deadline=None)
@given(
    ids=st.lists(st.integers(0, len(PACKED) - 1), min_size=1, max_size=8),
    strategy=st.sampled_from(STRATEGIES),
    ratios=st.tuples(RATIOS, RATIOS, RATIOS),
    seed=st.integers(0, 2**32 - 1),
)
@example(ids=SPECIAL, strategy=MASK_DELETE, ratios=(0.0, 0.0, 0.0), seed=0)  # nothing changes
@example(ids=SPECIAL, strategy=COMPOSE_ALL, ratios=(0.5, 0.5, 1.0), seed=1)
@example(ids=SPECIAL, strategy=SUBGRAPH, ratios=(0.3, 0.3, 0.5), seed=2)
def test_gathered_views_equal_the_batched_view_graphs(ids, strategy, ratios, seed):
    spec = AugmentSpec(strategy, *ratios)
    graphs, masked, dropped = [], [], []
    for i in ids:
        pair = augment_pair(PACKED[i], spec, derive_rng(seed, i), i)
        rng = derive_rng(seed, i)
        for view in pair:
            atoms, bonds = draw_view(ROWS, i, spec, rng)
            assert atoms == view.masked_nodes
            edges = PACKED[i].edges
            assert {(edges[p].u, edges[p].v) for p in bonds} == view.deleted_edges
            graphs.append(view.graph)
            masked.append(atoms)
            dropped.append(bonds)
        ref = derive_rng(seed, i)
        augment_pair(PACKED[i], spec, ref)
        assert rng.random() == ref.random()  # the draws consume the same stream
    want = GraphBatch.from_graphs(graphs)
    got = PACK.gather(np.repeat(ids, 2), masked, dropped)
    assert got.num_graphs == want.num_graphs
    for name in BATCH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# -- the pack walk against the graph walk ------------------------------------


def _repeated(atoms, bonds):
    return MoleculeGraph(tuple(map(AtomNode, atoms)), tuple(BondEdge(*b) for b in bonds))


_S, _D = BondType.SINGLE, BondType.DOUBLE
# Golden and corpus molecules; fragments and ions, where the walk restarts
# from a fresh origin; bonds listed twice (the three repeated-bond graphs of
# the fingerprint tests), whose rows repeat a neighbour; and a 3,000-atom
# chain, whose walk runs thousands of levels and rows past index 255.
WALKED = (
    [parse_smiles(g.smiles) for g in GOLDEN]
    + unlabeled_corpus(20, seed=9)
    + [parse_smiles(s) for s in (
        "c1ccccc1.CCO.[Na+]", "[O-]C(=O)C.[Na+]", "C1CC1.C1CC1.C", "[Cl-].[NH4+].O", "C.C.C",
    )]
    + [
        _repeated([6, 6, 7], [(0, 1, _S), (0, 1, _S), (1, 2, _S)]),
        _repeated([6, 6, 8], [(0, 1, _S), (0, 1, _D), (1, 2, _S)]),
        _repeated([6, 6, 6, 6], [(0, 1, _S), (1, 2, _S), (2, 3, _S), (0, 3, _S), (1, 2, _D)]),
        parse_smiles("C" * 3000),
    ]
)
WALKED_ROWS = augment._pack_rows(GraphBatch.from_graphs(WALKED))
CHAIN = len(WALKED) - 1


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(0, len(WALKED) - 1),
    strategy=st.sampled_from(STRATEGIES),
    ratios=st.tuples(RATIOS, RATIOS, RATIOS),
    seed=st.integers(0, 2**32 - 1),
)
@example(i=CHAIN, strategy=SUBGRAPH, ratios=(0.0, 0.0, 1.0), seed=3)
@example(i=CHAIN, strategy=SUBGRAPH_RANDOM, ratios=(0.0, 0.0, 0.9), seed=4)
@example(i=CHAIN, strategy=COMPOSE_ALL, ratios=(0.6, 0.7, 0.5), seed=5)
@example(i=CHAIN, strategy=MASK_DELETE, ratios=(0.3, 0.3, 0.0), seed=6)
@example(i=CHAIN - 1, strategy=COMPOSE_ALL, ratios=(1.0, 1.0, 1.0), seed=7)
@example(i=CHAIN - 4, strategy=SUBGRAPH, ratios=(0.0, 0.0, 0.9), seed=8)  # C.C.C
def test_pack_walk_draws_what_the_graph_walk_drew(i, strategy, ratios, seed):
    spec = AugmentSpec(strategy, *ratios)
    rng, ref = derive_rng(seed, i), derive_rng(seed, i)
    for _ in range(2):  # a pair: the second view starts where the first stopped
        assert draw_view(WALKED_ROWS, i, spec, rng) == augment_oracle.draw_view(
            WALKED[i], spec, ref
        )
        assert rng.bit_generator.state == ref.bit_generator.state
