"""Encoders against dense-loop oracles, plus head and batching contracts."""

import gc
import weakref

import numpy as np
import pytest

import chain_ops
import molcontrast.encoder as encoder_module
from molcontrast import autodiff as ad
from graph_oracle import relabel
from molcontrast.autodiff import Tape, Tensor, backward, check_gradients, dropout, tensor
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.errors import ConfigError
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    embed_molecules,
    embed_nodes,
    gcn_layer,
    gin_layer,
    parameter_layout,
    predict,
    project,
    readout,
    represent,
)
from molcontrast.graph import (
    AtomNode,
    BondDirection,
    BondEdge,
    BondType,
    MoleculeGraph,
    NUM_BOND_DIRECTIONS,
    NUM_BOND_TYPES,
    flip_direction,
    mask_token,
)
from molcontrast.smiles import parse_smiles
from molgen import unlabeled_corpus


def small_config(backbone="gin", num_layers=3, hidden_dim=8, latent_dim=4):
    return EncoderConfig(
        backbone=backbone,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        latent_dim=latent_dim,
    )


def directed_edges(g, offset=0):
    """Mirror of the batching convention: both orientations, direction flipped."""
    out = []
    for e in g.edges:
        out.append((offset + e.u, offset + e.v, int(e.bond_type), int(e.direction)))
        out.append(
            (offset + e.v, offset + e.u, int(e.bond_type), int(flip_direction(e.direction)))
        )
    return out


def oracle_represent(model, graphs):
    """Dense per-node loop evaluation of the full encoder, in float64.

    Shares nothing with the tape implementation: explicit Python loops over
    directed edges, numpy only for the linear maps.
    """
    cfg = model.config
    p = {k: t.data.astype(np.float64) for k, t in model.params.items()}
    nodes = []
    edges = []
    member = []
    offset = 0
    for gi, g in enumerate(graphs):
        for node in g.nodes:
            nodes.append((node.atomic_number, int(node.chirality)))
            member.append(gi)
        edges.extend(directed_edges(g, offset))
        offset += g.num_nodes
    n = len(nodes)
    states = np.stack(
        [p["atom_embedding"][z] + p["chirality_embedding"][c] for z, c in nodes]
    )
    for k in range(cfg.num_layers):
        te = p[f"layers.{k}.bond_type_embedding"]
        de = p[f"layers.{k}.bond_direction_embedding"]
        if cfg.backbone == "gin":
            agg = np.zeros_like(states)
            for u, v, t, d in edges:
                agg[v] += states[u] + te[t] + de[d]
            combined = states + agg
            hidden = np.maximum(
                combined @ p[f"layers.{k}.mlp.weight1"] + p[f"layers.{k}.mlp.bias1"], 0.0
            )
            out = hidden @ p[f"layers.{k}.mlp.weight2"] + p[f"layers.{k}.mlp.bias2"]
        else:
            deg = np.ones(n)
            for _, v, _, _ in edges:
                deg[v] += 1.0
            agg = np.zeros_like(states)
            for u, v, t, d in edges:
                agg[v] += (states[u] + te[t] + de[d]) / np.sqrt(deg[u] * deg[v])
            for v in range(n):
                agg[v] += (
                    states[v] + te[int(BondType.SELF_LOOP)] + de[int(BondDirection.NONE)]
                ) / deg[v]
            out = agg @ p[f"layers.{k}.weight"] + p[f"layers.{k}.bias"]
        if k < cfg.num_layers - 1:
            out = np.maximum(out, 0.0)
        states = out
    reps = np.zeros((len(graphs), cfg.hidden_dim))
    counts = np.zeros(len(graphs))
    for i, gi in enumerate(member):
        reps[gi] += states[i]
        counts[gi] += 1
    return reps / counts[:, None]


# -- configs -----------------------------------------------------------------


def test_encoder_config_validation():
    EncoderConfig()
    with pytest.raises(ValueError):
        EncoderConfig(backbone="transformer")
    with pytest.raises(ValueError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ValueError):
        EncoderConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        EncoderConfig(dropout=1.0)


def test_head_spec_validation():
    HeadSpec("classification", 12)
    with pytest.raises(ValueError):
        HeadSpec("ranking", 1)
    with pytest.raises(ValueError):
        HeadSpec("regression", 0)
    with pytest.raises(ValueError):
        HeadSpec("regression", 1, hidden_layers=0)
    with pytest.raises(ValueError):
        HeadSpec("regression", 1, activation="tanh")
    assert HeadSpec("classification", 12).out_dim == 24
    assert HeadSpec("regression", 3).out_dim == 3


def test_default_dims_match_reference_setup():
    cfg = EncoderConfig()
    assert cfg.num_layers == 5
    assert cfg.hidden_dim == 512
    assert cfg.latent_dim == 256


# -- batching ----------------------------------------------------------------


def test_batch_membership_and_offsets():
    g1 = parse_smiles("CCO")
    g2 = parse_smiles("c1ccccc1")
    batch = GraphBatch.from_graphs([g1, g2])
    assert batch.num_graphs == 2
    assert batch.num_nodes == 9
    np.testing.assert_array_equal(batch.node_graph, [0] * 3 + [1] * 6)
    # both directions materialized: 2 + 6 undirected bonds -> 16 arcs
    assert batch.edge_src.shape == (16,)
    # second graph's arcs reference offset node ids
    assert batch.edge_src[4:].min() >= 3


def test_batch_direction_flip_on_reverse_arc():
    g = parse_smiles("C/C=C/C")
    batch = GraphBatch.from_graphs([g])
    for i in range(0, len(batch.edge_src), 2):
        fwd, rev = batch.edge_dir[i], batch.edge_dir[i + 1]
        assert int(flip_direction(BondDirection(fwd))) == rev
        assert batch.edge_src[i] == batch.edge_dst[i + 1]
        assert batch.edge_dst[i] == batch.edge_src[i + 1]


def test_batch_rejects_empty():
    with pytest.raises(ValueError):
        GraphBatch.from_graphs([])


def reference_batch_arrays(graphs):
    """The per-atom, per-bond loop ``GraphBatch.from_graphs`` once ran."""
    atomic, chir, src, dst, etype, edir, membership = ([] for _ in range(7))
    offset = 0
    for gi, g in enumerate(graphs):
        for node in g.nodes:
            atomic.append(node.atomic_number)
            chir.append(int(node.chirality))
            membership.append(gi)
        for e in g.edges:
            src.append(offset + e.u)
            dst.append(offset + e.v)
            etype.append(int(e.bond_type))
            edir.append(int(e.direction))
            src.append(offset + e.v)
            dst.append(offset + e.u)
            etype.append(int(e.bond_type))
            edir.append(int(flip_direction(e.direction)))
        offset += g.num_nodes
    columns = (atomic, chir, src, dst, etype, edir, membership)
    return [np.asarray(c, dtype=np.int64) for c in columns]


def test_batch_arrays_match_reference_loop_on_golden_corpus():
    from golden_corpus import GOLDEN

    from molcontrast.augment import AugmentSpec, augment_pair

    golden = [parse_smiles(g.smiles) for g in GOLDEN]
    assert any(g.num_edges == 0 for g in golden)  # [NH4+]: one atom, no bond
    assert any(
        e.direction != BondDirection.NONE for g in golden for e in g.edges
    )  # / and \ bonds
    views = [
        view.graph
        for i, g in enumerate(golden)
        for view in augment_pair(g, AugmentSpec(strategy="compose_all"), np.random.default_rng(i))
    ]
    edgeless = [parse_smiles("[Na+].[Cl-]"), parse_smiles("C")]
    for graphs in (golden, views, edgeless, golden[::-1] + edgeless, golden[:1]):
        batch = GraphBatch.from_graphs(graphs)
        got = [
            batch.node_atomic, batch.node_chirality, batch.edge_src,
            batch.edge_dst, batch.edge_type, batch.edge_dir, batch.node_graph,
        ]
        for have, want in zip(got, reference_batch_arrays(graphs)):
            assert have.dtype == np.int64 and have.shape == want.shape
            assert have.tobytes() == want.tobytes()
        assert batch.num_graphs == len(graphs)


def test_a_pack_stores_each_bond_once():
    # Two int64 columns per atom, four per bond (endpoints, type and
    # direction) and two offset arrays; no directed rows, no node_graph.
    graphs = unlabeled_corpus(2000, seed=7)
    pack = GraphBatch.from_graphs(graphs)
    atoms = sum(g.num_nodes for g in graphs)
    bonds = sum(g.num_edges for g in graphs)
    arrays = list(vars(pack).values())
    assert all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in arrays)
    assert sum(a.nbytes for a in arrays) == 8 * (2 * atoms + 4 * bonds + 2 * (len(graphs) + 1))


def test_gcn_arrays_add_self_loops():
    g = parse_smiles("CCO")
    batch = GraphBatch.from_graphs([g])
    edges = batch.gcn_edges
    assert edges.src.ids.shape == (4 + 3,)  # 4 arcs + 3 self-loops
    # middle atom: deg_hat 3; ends: deg_hat 2
    np.testing.assert_allclose(edges.coeff[-3:], [1 / 2, 1 / 3, 1 / 2])
    # Each atom's self-loop is its only SELF_LOOP edge.
    loops = edges.bond_counts[:, int(BondType.SELF_LOOP)]
    np.testing.assert_allclose(loops, [1 / 2, 1 / 3, 1 / 2], rtol=1e-7)


def oracle_bond_counts(graphs, gcn=False):
    """Each atom's summed edge weights per bond type, then per direction,
    by ``np.add.at`` over the directed edges of :func:`directed_edges`; GCN
    adds one SELF_LOOP edge (direction NONE) per atom and weighs every
    edge by ``1 / sqrt(deg_hat_u * deg_hat_v)``."""
    edges, offset = [], 0
    for g in graphs:
        edges += directed_edges(g, offset)
        offset += g.num_nodes
    src, dst, etype, edir = np.array(edges, dtype=np.int64).reshape(-1, 4).T
    weights = np.ones(len(edges))
    if gcn:
        loop = np.arange(offset)
        src, dst = np.concatenate([src, loop]), np.concatenate([dst, loop])
        etype = np.concatenate([etype, np.full(offset, int(BondType.SELF_LOOP))])
        edir = np.concatenate([edir, np.full(offset, int(BondDirection.NONE))])
        deg_hat = np.bincount(dst, minlength=offset).astype(np.float64)
        weights = 1.0 / np.sqrt(deg_hat[src] * deg_hat[dst])
    counts = np.zeros((offset, NUM_BOND_TYPES + NUM_BOND_DIRECTIONS))
    np.add.at(counts, (dst, etype), weights)
    np.add.at(counts, (dst, NUM_BOND_TYPES + edir), weights)
    return counts.astype(np.float32)


def _assert_bond_counts(batch, graphs):
    for edges, gcn in ((batch.bond_edges, False), (batch.gcn_edges, True)):
        want = oracle_bond_counts(graphs, gcn)
        got = edges.bond_counts
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # Atoms without bonds: zero rows, and in GCN only their self-loop.
    lonely = np.bincount(batch.edge_dst, minlength=batch.num_nodes) == 0
    assert not batch.bond_edges.bond_counts[lonely].any()
    loops = batch.gcn_edges.bond_counts[lonely]
    loop_cols = [int(BondType.SELF_LOOP), NUM_BOND_TYPES + int(BondDirection.NONE)]
    assert (loops[:, loop_cols] == 1).all() and np.count_nonzero(loops) == 2 * len(loops)


def test_bond_counts_match_per_edge_oracle_on_golden_corpus():
    from golden_corpus import GOLDEN

    golden = [parse_smiles(g.smiles) for g in GOLDEN]
    assert any(g.num_edges == 0 for g in golden)  # edgeless ions
    slashed = [g for g in golden if any(e.direction != BondDirection.NONE for e in g.edges)]
    assert slashed  # / and \ bonds: both direction columns in use
    for graphs in (golden, slashed, golden[::-1], [parse_smiles("[Na+].[Cl-]")]):
        _assert_bond_counts(GraphBatch.from_graphs(graphs), graphs)
    counts = GraphBatch.from_graphs(slashed).bond_edges.bond_counts
    assert counts[:, NUM_BOND_TYPES + int(BondDirection.END_UP_RIGHT)].any()
    assert counts[:, NUM_BOND_TYPES + int(BondDirection.END_DOWN_RIGHT)].any()


def test_bond_counts_of_a_gathered_view_batch_match_per_edge_oracle():
    from golden_corpus import GOLDEN

    from molcontrast.augment import AugmentSpec, _pack_rows, augment_pair, derive_rng, draw_view

    corpus = [parse_smiles(g.smiles) for g in GOLDEN]
    pack = GraphBatch.from_graphs(corpus)
    rows = _pack_rows(pack)
    spec = AugmentSpec(strategy="compose_all", mask_ratio=0.3, delete_ratio=0.3,
                       subgraph_ratio=0.3)
    ids = list(range(0, len(corpus), 3))
    views, masked, dropped = [], [], []
    for i in ids:
        rng = derive_rng(11, i)
        for view in augment_pair(corpus[i], spec, derive_rng(11, i)):
            atoms, bonds = draw_view(rows, i, spec, rng)
            views.append(view.graph)
            masked.append(atoms)
            dropped.append(bonds)
    assert sum(map(len, dropped)) > 0  # some bonds are gone
    batch = pack.gather(np.repeat(ids, 2), masked, dropped)
    _assert_bond_counts(batch, views)


# -- initial embeddings ------------------------------------------------------


def test_embed_nodes_sums_two_tables():
    model = EncoderModel.initialize(small_config(), 0)
    atom = model.params["atom_embedding"].data
    chir = model.params["chirality_embedding"].data
    g = MoleculeGraph((mask_token(), AtomNode(6)))
    batch = GraphBatch.from_graphs([g])
    states = embed_nodes(Tape(), model, batch)
    np.testing.assert_allclose(states.data[0], atom[119] + chir[0], rtol=1e-6)
    np.testing.assert_allclose(states.data[1], atom[6] + chir[0], rtol=1e-6)


def test_embed_nodes_identical_atoms_identical_rows():
    model = EncoderModel.initialize(small_config(), 1)
    batch = GraphBatch.from_graphs([parse_smiles("CC")])
    states = embed_nodes(Tape(), model, batch)
    np.testing.assert_array_equal(states.data[0], states.data[1])


def test_embed_nodes_zero_tables_zero_output():
    model = EncoderModel.initialize(small_config(), 2)
    model.params["atom_embedding"].data[:] = 0
    model.params["chirality_embedding"].data[:] = 0
    batch = GraphBatch.from_graphs([parse_smiles("CCO")])
    states = embed_nodes(Tape(), model, batch)
    assert (states.data == 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_nodes_matches_two_lookups_and_an_add_bitwise(dtype):
    # Output and both table gradients, byte for byte, against the chain it
    # replaced: a lookup per table and their sum.  Values spread over 14
    # decades, so any other summation order shows in the low bits.
    rng = np.random.default_rng(3)
    model = EncoderModel.initialize(small_config(hidden_dim=16), 2)
    tables = model.params["atom_embedding"], model.params["chirality_embedding"]
    for t in tables:
        spread = 10.0 ** rng.integers(-7, 8, t.data.shape)
        t.data = (rng.standard_normal(t.data.shape) * spread).astype(dtype)
    smiles = ["C[C@H](N)O", "F[C@@H](Cl)Br", "c1ccccc1O", "CCN", "O=C=O", "[Na+].[Cl-]"]
    batch = GraphBatch.from_graphs([parse_smiles(s) for s in smiles * 5])
    up = chain_ops.constant(rng.standard_normal((batch.num_nodes, 16)), dtype=dtype)

    def chain(tape, model, batch):
        a = ad.embedding_lookup(tape, tables[0], batch.atom_plan)
        c = ad.embedding_lookup(tape, tables[1], batch.chirality_plan)
        return chain_ops.add(tape, a, c)

    got = []
    for build in (embed_nodes, chain):
        tape = Tape()
        states = build(tape, model, batch)
        grads = backward(tape, ad.sum(tape, chain_ops.mul(tape, states, up)))
        got.append([states.data.tobytes(), *(grads[t].tobytes() for t in tables)])
    assert got[0] == got[1]


# -- hand-checked single layers ----------------------------------------------


def _identity_mlp(model, k, h):
    # relu(x@[I|-I]) @ [I;-I] == x for any sign
    model.params[f"layers.{k}.mlp.weight1"].data = np.hstack(
        [np.eye(h), -np.eye(h)]
    ).astype(np.float32)
    model.params[f"layers.{k}.mlp.bias1"].data[:] = 0
    model.params[f"layers.{k}.mlp.weight2"].data = np.vstack(
        [np.eye(h), -np.eye(h)]
    ).astype(np.float32)
    model.params[f"layers.{k}.mlp.bias2"].data[:] = 0
    model.params[f"layers.{k}.bond_type_embedding"].data[:] = 0
    model.params[f"layers.{k}.bond_direction_embedding"].data[:] = 0


def test_gin_layer_single_edge_identity_mlp():
    h = 4
    model = EncoderModel.initialize(small_config(num_layers=1, hidden_dim=h), 0)
    _identity_mlp(model, 0, h)
    g = MoleculeGraph((AtomNode(6), AtomNode(8)), (BondEdge(0, 1),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[1.0, 2.0, -3.0, 4.0], [5.0, -6.0, 7.0, 8.0]])
    out = gin_layer(Tape(), model, 0, states, batch)
    # eps = 0, final layer: h_v' = h_v + h_u exactly
    np.testing.assert_allclose(out.data[0], [6.0, -4.0, 4.0, 12.0], atol=1e-5)
    np.testing.assert_allclose(out.data[1], [6.0, -4.0, 4.0, 12.0], atol=1e-5)


def test_gin_layer_isolated_node():
    h = 4
    model = EncoderModel.initialize(small_config(num_layers=1, hidden_dim=h), 0)
    _identity_mlp(model, 0, h)
    g = MoleculeGraph((AtomNode(6),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[1.0, -2.0, 3.0, -4.0]])
    out = gin_layer(Tape(), model, 0, states, batch)
    np.testing.assert_allclose(out.data, states.data, atol=1e-6)


def _identity_gcn(model, k, h):
    model.params[f"layers.{k}.weight"].data = np.eye(h, dtype=np.float32)
    model.params[f"layers.{k}.bias"].data[:] = 0
    model.params[f"layers.{k}.bond_type_embedding"].data[:] = 0
    model.params[f"layers.{k}.bond_direction_embedding"].data[:] = 0


def test_gcn_layer_two_nodes():
    h = 4
    model = EncoderModel.initialize(
        small_config("gcn", num_layers=1, hidden_dim=h), 0
    )
    _identity_gcn(model, 0, h)
    g = MoleculeGraph((AtomNode(6), AtomNode(8)), (BondEdge(0, 1),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[2.0, 4.0, 6.0, 8.0], [0.0, 2.0, 4.0, 6.0]])
    out = gcn_layer(Tape(), model, 0, states, batch)
    # deg_hat = 2 both sides: h' = h_v / 2 + h_u / 2
    np.testing.assert_allclose(out.data[0], [1.0, 3.0, 5.0, 7.0], atol=1e-5)
    np.testing.assert_allclose(out.data[1], [1.0, 3.0, 5.0, 7.0], atol=1e-5)


def test_gcn_layer_isolated_node():
    h = 4
    model = EncoderModel.initialize(
        small_config("gcn", num_layers=1, hidden_dim=h), 0
    )
    _identity_gcn(model, 0, h)
    g = MoleculeGraph((AtomNode(6),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[1.0, -2.0, 3.0, -4.0]])
    out = gcn_layer(Tape(), model, 0, states, batch)
    # final layer omits ReLU: identity passthrough even for negatives
    np.testing.assert_allclose(out.data, states.data, atol=1e-6)


# -- dense oracle ------------------------------------------------------------


@pytest.mark.parametrize("backbone", ["gin", "gcn"])
@pytest.mark.parametrize(
    "smiles_list",
    [
        ["c1ccc2ccccc2c1"],
        ["CC(C)Cc1ccc(cc1)C(C)C(=O)O", "CCO"],
        ["[Na+].[Cl-]", "C/C=C/C", "C[C@H](O)C(=O)O"],
    ],
)
def test_represent_matches_dense_oracle(backbone, smiles_list):
    model = EncoderModel.initialize(small_config(backbone), 7)
    graphs = [parse_smiles(s) for s in smiles_list]
    batch = GraphBatch.from_graphs(graphs)
    got = represent(Tape(), model, batch).data
    want = oracle_represent(model, graphs)
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_masked_graph_through_oracle():
    from molcontrast.augment import AugmentSpec, augment_view, derive_rng

    model = EncoderModel.initialize(small_config(), 3)
    g = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    view = augment_view(g, AugmentSpec(), derive_rng(0, 0))
    got = represent(Tape(), model, GraphBatch.from_graphs([view.graph])).data
    want = oracle_represent(model, [view.graph])
    np.testing.assert_allclose(got, want, atol=1e-5)


# -- readout -----------------------------------------------------------------


def test_readout_single_node():
    g = MoleculeGraph((AtomNode(6),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[7.0, -2.0]])
    np.testing.assert_allclose(readout(Tape(), states, batch).data, [[7.0, -2.0]])


def test_readout_mean():
    g = MoleculeGraph((AtomNode(6), AtomNode(6)), (BondEdge(0, 1),))
    batch = GraphBatch.from_graphs([g])
    states = tensor([[1.0, 3.0], [3.0, 5.0]])
    np.testing.assert_allclose(readout(Tape(), states, batch).data, [[2.0, 4.0]])


# -- permutation invariance --------------------------------------------------


@pytest.mark.parametrize("backbone", ["gin", "gcn"])
def test_permutation_invariance(backbone):
    model = EncoderModel.initialize(small_config(backbone), 11)
    rng = np.random.default_rng(0)
    for smiles in ["c1ccc2ccccc2c1", "CC(=O)Oc1ccccc1C(=O)O", "C/C=C/C"]:
        g = parse_smiles(smiles)
        base = represent(Tape(), model, GraphBatch.from_graphs([g])).data
        for _ in range(5):
            perm = rng.permutation(g.num_nodes).tolist()
            pg = relabel(g, perm)
            permuted = represent(Tape(), model, GraphBatch.from_graphs([pg])).data
            np.testing.assert_allclose(permuted, base, atol=1e-5)


# -- discrimination and sensitivity ------------------------------------------


def test_gin_separates_path_from_star():
    path = parse_smiles("CCCC")
    star = parse_smiles("CC(C)C")
    hits = 0
    for seed in range(20):
        model = EncoderModel.initialize(small_config(), seed)
        reps = represent(
            Tape(), model, GraphBatch.from_graphs([path, star])
        ).data
        if np.abs(reps[0] - reps[1]).max() > 1e-3:
            hits += 1
    assert hits >= 19


def test_edge_feature_sensitivity():
    model = EncoderModel.initialize(small_config(), 5)
    nodes = (AtomNode(6), AtomNode(6))
    single = MoleculeGraph(nodes, (BondEdge(0, 1, BondType.SINGLE),))
    double = MoleculeGraph(nodes, (BondEdge(0, 1, BondType.DOUBLE),))
    reps = represent(Tape(), model, GraphBatch.from_graphs([single, double])).data
    assert np.abs(reps[0] - reps[1]).max() > 0


def test_masking_sensitivity():
    model = EncoderModel.initialize(small_config(), 6)
    g = parse_smiles("CCO")
    masked = MoleculeGraph(
        (mask_token(),) + g.nodes[1:], g.edges
    )
    reps = represent(Tape(), model, GraphBatch.from_graphs([g, masked])).data
    assert np.abs(reps[0] - reps[1]).max() > 0


# -- projection head ---------------------------------------------------------


def test_project_zero_weights():
    model = EncoderModel.initialize(small_config(), 0)
    for name in ("projection.weight1", "projection.bias1", "projection.weight2", "projection.bias2"):
        model.params[name].data[:] = 0
    out = project(Tape(), model, tensor(np.ones((3, 8))))
    assert out.shape == (3, 4)
    assert (out.data == 0).all()


def test_project_matches_two_matmul_oracle():
    model = EncoderModel.initialize(small_config(), 9)
    h = np.random.default_rng(1).standard_normal((5, 8)).astype(np.float32)
    got = project(Tape(), model, tensor(h)).data
    w1 = model.params["projection.weight1"].data
    b1 = model.params["projection.bias1"].data
    w2 = model.params["projection.weight2"].data
    b2 = model.params["projection.bias2"].data
    want = np.maximum(h.astype(np.float64) @ w1 + b1, 0) @ w2 + b2
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_project_identity_passthrough():
    model = EncoderModel.initialize(small_config(hidden_dim=4, latent_dim=4), 0)
    model.params["projection.weight1"].data = np.eye(4, dtype=np.float32)
    model.params["projection.bias1"].data[:] = 0
    model.params["projection.weight2"].data = np.eye(4, dtype=np.float32)
    model.params["projection.bias2"].data[:] = 0
    x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    np.testing.assert_allclose(project(Tape(), model, tensor(x)).data, x)


# -- prediction head ---------------------------------------------------------


def test_predict_requires_head():
    model = EncoderModel.initialize(small_config(), 0)
    with pytest.raises(ValueError):
        predict(Tape(), model, tensor(np.ones((2, 8))))


@pytest.mark.parametrize(
    "kind,tasks,expected", [("classification", 1, 2), ("classification", 12, 24), ("regression", 3, 3)]
)
def test_predict_output_shapes(kind, tasks, expected):
    model = EncoderModel.initialize(small_config(), 0)
    model.add_head(HeadSpec(kind, tasks, hidden_dim=6), 1)
    out = predict(Tape(), model, tensor(np.ones((4, 8))))
    assert out.shape == (4, expected)


def test_predict_dropout_zero_training_matches_inference():
    model = EncoderModel.initialize(small_config(), 0)
    model.add_head(HeadSpec("classification", 2, hidden_dim=6, dropout=0.0), 1)
    h = tensor(np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32))
    stream = np.random.default_rng(0)
    with_stream = predict(Tape(), model, h, stream)
    without = predict(Tape(), model, h)
    np.testing.assert_array_equal(with_stream.data, without.data)
    # A rate of 0 draws nothing from the stream.
    assert stream.random() == np.random.default_rng(0).random()


def test_predict_dropout_only_during_training():
    model = EncoderModel.initialize(small_config(), 0)
    model.add_head(HeadSpec("classification", 2, hidden_dim=64, dropout=0.5), 1)
    h = tensor(np.ones((3, 8), dtype=np.float32))
    a = predict(Tape(), model, h, np.random.default_rng(1))
    b = predict(Tape(), model, h)
    assert not np.array_equal(a.data, b.data)
    c = predict(Tape(), model, h)
    np.testing.assert_array_equal(b.data, c.data)


def test_predict_two_hidden_layers_and_softplus():
    model = EncoderModel.initialize(small_config(), 0)
    model.add_head(
        HeadSpec("regression", 1, hidden_layers=2, hidden_dim=6, activation="softplus"), 1
    )
    out = predict(Tape(), model, tensor(np.ones((2, 8))))
    assert out.shape == (2, 1)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("activation", ["relu", "softplus"])
def test_head_layer_is_one_tape_record(activation):
    # Each head layer is one ``linear`` record with its activation inside;
    # outputs and gradients equal the chain that records the activation on
    # its own.
    model = EncoderModel.initialize(small_config(), 0)
    head = HeadSpec("regression", 1, hidden_layers=2, hidden_dim=6, activation=activation)
    model.add_head(head, 1)
    h = tensor(np.random.default_rng(2).standard_normal((3, 8)) * 20, requires_grad=True)
    tape = Tape()
    out = predict(tape, model, h)
    assert len(tape) == 3  # two hidden layers and the output layer
    grads = backward(tape, ad.sum(tape, out))

    chain_act = {"relu": chain_ops.relu, "softplus": chain_ops.softplus}[activation]
    tape, x = Tape(), h
    for s in ("0", "1", "_out"):
        x = ad.linear(tape, x, model.params[f"head.weight{s}"], model.params[f"head.bias{s}"])
        if s != "_out":
            x = chain_act(tape, x)
    assert x.data.tobytes() == out.data.tobytes()
    chain_grads = backward(tape, ad.sum(tape, x))
    assert grads.keys() == chain_grads.keys()
    for t, g in grads.items():
        assert g.tobytes() == chain_grads[t].tobytes()


# -- gradients through the full stack ----------------------------------------


def contrastive_views(seed=5):
    """Two molecules, two augmented views each, interleaved like training."""
    from molcontrast.augment import AugmentSpec, augment_pair, derive_rng

    spec = AugmentSpec(strategy="subgraph", subgraph_ratio=0.25)
    views = []
    for i, s in enumerate(["CCO", "c1ccccc1"]):
        a, b = augment_pair(parse_smiles(s), spec, derive_rng(seed, i))
        views += [a.graph, b.graph]
    return views


def test_composite_gradient_check():
    # two molecules as distinct augmented views, 2 GIN layers, projection,
    # contrastive loss; eps=1e-5 keeps the central-difference truncation
    # error (steep at temperature 0.1) well below the 1e-3 gate
    cfg = EncoderConfig(backbone="gin", num_layers=2, hidden_dim=4, latent_dim=3)
    model = EncoderModel.initialize(cfg, 0)
    batch = GraphBatch.from_graphs(contrastive_views())
    names = sorted(model.params)
    arrays = [model.params[n].data.astype(np.float64) for n in names]

    def build(tape, params):
        staged = EncoderModel(
            cfg, {n: p for n, p in zip(names, params)}, model.head
        )
        h = represent(tape, staged, batch)
        z = project(tape, staged, h)
        return nt_xent(tape, z, ContrastiveConfig(temperature=0.1, batch_size=2))

    assert check_gradients(build, arrays, eps=1e-5) < 1e-3


def test_gradients_reach_all_parameters():
    cfg = EncoderConfig(backbone="gcn", num_layers=2, hidden_dim=4, latent_dim=3)
    model = EncoderModel.initialize(cfg, 1)
    batch = GraphBatch.from_graphs(contrastive_views())
    tape = Tape()
    h = represent(tape, model, batch)
    z = project(tape, model, h)
    loss = nt_xent(tape, z, ContrastiveConfig(temperature=0.1, batch_size=2))
    grads = backward(tape, loss)
    missing = [n for n, t in model.params.items() if t not in grads]
    # direction table only sees the NONE row; everything else must be hit
    assert all("direction" in n or "chirality" in n for n in missing) or not missing


# -- embed_molecules ---------------------------------------------------------


def test_embed_molecules_order_and_batching(monkeypatch):
    model = EncoderModel.initialize(small_config(), 4)
    graphs = [parse_smiles(s) for s in ["C", "CC", "CCO", "c1ccccc1", "CC(=O)O"]]
    large = embed_molecules(model, graphs)
    monkeypatch.setattr(encoder_module, "INFERENCE_BATCH", 2)
    small = embed_molecules(model, graphs)
    assert small.shape == (5, 8)
    np.testing.assert_allclose(small, large, atol=1e-6)


def test_embed_molecules_empty():
    model = EncoderModel.initialize(small_config(), 4)
    out = embed_molecules(model, [])
    assert out.shape == (0, 8)


@pytest.mark.parametrize("backbone", ["gin", "gcn"])
def test_embed_molecules_equals_recording_forward_and_records_nothing(
    backbone, monkeypatch
):
    model = EncoderModel.initialize(small_config(backbone), 4)
    graphs = [parse_smiles(s) for s in ["CCO", "c1ccccc1", "CC(=O)O", "C/C=C/C", "N"]]
    tape = Tape()
    want = represent(tape, model, GraphBatch.from_graphs(graphs)).data
    assert len(tape) > 0  # trainable parameters: the forward is recorded
    tapes = []

    class CountingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(encoder_module, "Tape", CountingTape)
    got = embed_molecules(model, graphs)
    assert got.tobytes() == want.tobytes()
    assert tapes and all(len(t) == 0 for t in tapes)


def test_frozen_model_shares_arrays_and_is_untracked():
    model = EncoderModel.initialize(small_config(), 4)
    model.add_head(HeadSpec("regression", 1), 5)
    frozen = model.frozen()
    assert frozen.config == model.config and frozen.head == model.head
    assert frozen.params.keys() == model.params.keys()
    for name, t in model.params.items():
        assert frozen.params[name].data is t.data
        assert t.requires_grad and not frozen.params[name].requires_grad


@pytest.mark.parametrize("backbone", ["gin", "gcn"])
def test_layer_aggregate_is_one_tape_record(backbone):
    model = EncoderModel.initialize(small_config(backbone), 4)
    batch = GraphBatch.from_graphs([parse_smiles("CC(=O)O"), parse_smiles("CN")])
    layer = gin_layer if backbone == "gin" else gcn_layer
    tape = Tape()
    states = embed_nodes(tape, model, batch)
    before = len(tape)
    layer(tape, model, 0, states, batch)
    # GIN: aggregate with the self term, linear+relu, linear+relu.
    # GCN: aggregate, linear+relu.
    assert len(tape) - before == (3 if backbone == "gin" else 2)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_arrays(records) -> dict[int, np.ndarray]:
    """Every array ``records`` keep alive, by the id of its owner: whatever
    each record's backward closure (and the functions that closure holds)
    captures, directly or inside a tensor, tuple or list.  A record holds
    no tensor but its ``requires_grad`` leaf inputs (checked here), whose
    arrays are the model's own."""
    held: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    # A stack, not a recursive closure, which would hold ``held`` in a
    # reference cycle that outlives the call.
    stack = []
    for r in records:
        assert isinstance(r.out, int)
        assert all(
            ref is None or isinstance(ref, int) or (isinstance(ref, Tensor) and ref.requires_grad)
            for ref in r.inputs
        )
        stack.append(r.backward_fn)
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Tensor):
            v = v.data
        if isinstance(v, np.ndarray):
            held[id(_owner(v))] = _owner(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return held


@pytest.mark.parametrize("inner", [True, False])
@pytest.mark.parametrize("backbone", ["gin", "gcn"])
def test_layer_holds_exactly_the_arrays_its_backward_reads(backbone, inner):
    # Memory guard: the node-by-width arrays a layer keeps alive are those
    # its backward reads.  The aggregate's backward reads none (not even its
    # input states); each linear reads its input, for the weight gradient,
    # and, when a ReLU is fused, one bit per output element to gate the
    # gradient.  So a GIN layer holds its aggregate (h) and MLP hidden (2h)
    # in float32, a bit mask of the hidden, and one of its output when a
    # ReLU follows (every layer but the last); a GCN layer its aggregate,
    # plus a bit mask of its output on inner layers.  The batch's bond
    # counts (n by 8) are held as the batch's own array, which every layer
    # shares, not a copy per layer.
    model = EncoderModel.initialize(small_config(backbone, hidden_dim=16), 4)
    graphs = [parse_smiles(s) for s in ["c1ccccc1O", "CC(=O)O", "CCN"]]
    batch = GraphBatch.from_graphs(graphs)
    n, h = batch.num_nodes, model.config.hidden_dim
    layer = gin_layer if backbone == "gin" else gcn_layer
    edges = batch.bond_edges if backbone == "gin" else batch.gcn_edges
    k = 0 if inner else model.config.num_layers - 1
    tape = Tape()
    states = embed_nodes(tape, model, batch)
    before = len(tape)
    out = layer(tape, model, k, states, batch)
    held = _held_arrays(tape._records[before:])
    assert id(edges.bond_counts) in held
    assert id(_owner(states.data)) not in held
    shared = {id(edges.bond_counts), *(id(p.data) for p in model.params.values())}
    activations = {
        key: a for key, a in held.items()
        if a.ndim == 2 and a.shape[0] == n and key not in shared
    }
    assert id(_owner(out.data)) not in held
    widths = {("gin", True): [1, 2], ("gin", False): [1, 2],
              ("gcn", True): [1], ("gcn", False): [1]}[backbone, inner]
    assert sorted(a.shape[1] // h for a in activations.values()) == sorted(widths)
    assert sum(a.nbytes for a in activations.values()) == n * h * sum(widths) * 4
    # Each mask packs n * width bits into ceil(n * width / 8) bytes.
    mask_widths = {("gin", True): [1, 2], ("gin", False): [2],
                   ("gcn", True): [1], ("gcn", False): []}[backbone, inner]
    masks = [a for a in held.values() if a.ndim == 1 and a.dtype == np.uint8]
    assert sorted(a.nbytes for a in masks) == sorted(-(-n * h * w // 8) for w in mask_widths)


def test_embedding_lookups_hold_no_node_array_once_the_first_layer_ran():
    # The node embedding, one record, reads no activation in its backward,
    # so the initial node states die once the first layer has used them.
    model = EncoderModel.initialize(small_config(hidden_dim=16), 4)
    batch = GraphBatch.from_graphs([parse_smiles(s) for s in ["c1ccccc1O", "CCN"]])
    tape = Tape()
    states = embed_nodes(tape, model, batch)
    assert len(tape) == 1
    assert not any(
        a.ndim == 2 and a.shape[0] == batch.num_nodes
        for a in _held_arrays(tape._records).values()
    )
    first = weakref.ref(states.data)
    states = gin_layer(tape, model, 0, states, batch)
    assert first() is None


def test_backward_frees_each_layer_before_the_atom_lookup_runs():
    # Every node-by-width array held only by the records after the first
    # (the node embedding) is freed by the time that record's
    # backward runs: the walk pops each record once its backward has run.
    model = EncoderModel.initialize(EncoderConfig("gin", 3, 16, 4, dropout=0.2), 4)
    smiles = ["c1ccccc1O", "CCN", "CC(=O)O", "CO"]
    batch = GraphBatch.from_graphs([parse_smiles(s) for s in smiles])
    n = batch.num_nodes

    def forward():
        tape = Tape()
        h = represent(tape, model, batch, np.random.default_rng(0))
        return tape, nt_xent(tape, project(tape, model, h), ContrastiveConfig(0.1, 2))

    tape, loss = forward()
    # The parameters and the batch's bond counts outlive the tape.
    shared = {id(batch.bond_edges.bond_counts), *(id(p.data) for p in model.params.values())}
    held = _held_arrays(tape._records[1:])
    arrays = [
        weakref.ref(a)
        for key, a in held.items()
        if a.ndim == 2 and a.shape[0] == n and key not in shared
    ]
    # Per layer: aggregate and hidden; each dropout holds a bool mask.
    assert len(arrays) == 3 * 2 + 2
    # One bit mask per fused ReLU: two in each of the first two layers, one
    # in the last and one in the projection.
    masks = [weakref.ref(a) for a in held.values() if a.ndim == 1 and a.dtype == np.uint8]
    assert len(masks) == 2 + 2 + 1 + 1
    del held
    arrays += masks
    alive_at_lookup = []

    def spy(g, owned, lookup=tape._records[0].backward_fn):
        alive_at_lookup.extend(r() is not None for r in arrays)
        return lookup(g, owned)

    tape._records[0].backward_fn = spy
    gc.disable()  # an array kept alive by a reference cycle counts as held
    try:
        grads = backward(tape, loss)
    finally:
        gc.enable()
    assert alive_at_lookup == [False] * len(arrays)
    assert model.params["atom_embedding"] in grads


def test_dropout_holds_only_a_one_byte_mask():
    # A dropout record keeps a boolean mask; the float mask is rebuilt in
    # the backward, and its output is held by no record.
    x = Tensor(np.ones((40, 8), dtype=np.float32), requires_grad=True)
    tape = Tape()
    dropout(tape, x, 0.3, np.random.default_rng(0))
    held = sorted(
        (a.dtype.itemsize, a.shape) for a in _held_arrays(tape._records).values()
    )
    assert held == [(1, (40, 8))]


def test_batch_plans_are_cached_and_match_index_arrays():
    batch = GraphBatch.from_graphs([parse_smiles("CC(=O)O"), parse_smiles("CN")])
    for name in ("atom_plan", "chirality_plan", "graph_plan", "bond_edges", "gcn_edges"):
        assert getattr(batch, name) is getattr(batch, name)
    bonds, gcn = batch.bond_edges, batch.gcn_edges
    n, e = batch.num_nodes, len(batch.edge_src)
    for plan, ids in ((batch.atom_plan, batch.node_atomic),
                      (batch.chirality_plan, batch.node_chirality),
                      (batch.graph_plan, batch.node_graph),
                      (bonds.src, batch.edge_src), (bonds.dst, batch.edge_dst)):
        np.testing.assert_array_equal(plan.ids, ids)
    # The GCN set is the bonds followed by one self-loop per atom.
    for plan, ids in ((gcn.src, bonds.src), (gcn.dst, bonds.dst)):
        np.testing.assert_array_equal(plan.ids[:e], ids.ids)
    for edges in (bonds, gcn):
        assert edges.bond_counts.shape == (n, NUM_BOND_TYPES + NUM_BOND_DIRECTIONS)
    np.testing.assert_array_equal(gcn.src.ids[e:], np.arange(n))
    np.testing.assert_array_equal(gcn.dst.ids[e:], np.arange(n))
    assert bonds.coeff is None and gcn.coeff.shape == (e + n,)
    assert batch.graph_plan.rows == 2
    assert bonds.src.rows == batch.num_nodes


@pytest.mark.parametrize(
    "config, head",
    [
        (EncoderConfig("gin", 3, 8, 4), None),
        (EncoderConfig("gcn", 2, 5, 3), None),
        (EncoderConfig("gin", 1, 7, 2), HeadSpec("classification", 3, 2, 6)),
        (EncoderConfig("gcn", 4, 3, 9), HeadSpec("regression", 2, 1, 4)),
        (None, HeadSpec("classification", 1, 3, 5)),
    ],
)
def test_parameter_count_is_the_layouts_in_closed_form(config, head):
    if config is None:  # the head alone, on an input of width 1
        layout = encoder_module._head_layout(1, head)
    else:
        layout = parameter_layout(config, head)
    assert encoder_module._parameter_count(config, head) == sum(
        int(np.prod(shape)) for _, shape in layout
    )


def test_a_model_larger_than_memory_is_refused(monkeypatch):
    # A one-task regression head of width k on an input of width 1 holds 3k + 1.
    monkeypatch.setattr(encoder_module, "_memory_bytes", lambda: 4000)
    encoder_module._check_model_size(None, HeadSpec("regression", 1, 1, 333))
    with pytest.raises(ConfigError, match="1,003 parameters, 4,012 bytes as float32, more "
                       "than this machine's 4,000 bytes"):
        encoder_module._check_model_size(None, HeadSpec("regression", 1, 1, 334))
