"""Encoders against dense-loop oracles, plus head and batching contracts."""

import numpy as np
import pytest

import molcontrast.encoder as encoder_module
from molcontrast.autodiff import Tape, backward, check_gradients, tensor
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    embed_molecules,
    embed_nodes,
    gcn_layer,
    gin_layer,
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
    flip_direction,
    mask_token,
    relabel,
)
from molcontrast.smiles import parse_smiles


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


def test_gcn_arrays_add_self_loops():
    g = parse_smiles("CCO")
    batch = GraphBatch.from_graphs([g])
    edges = batch.gcn_edges
    assert edges.src.ids.shape == (4 + 3,)  # 4 arcs + 3 self-loops
    assert (edges.type.ids[-3:] == int(BondType.SELF_LOOP)).all()
    # middle atom: deg_hat 3; ends: deg_hat 2
    np.testing.assert_allclose(edges.coeff[-3:], [1 / 2, 1 / 3, 1 / 2])


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
    # GIN: aggregate, add, linear, relu, linear, relu.
    # GCN: aggregate, linear, relu.
    assert len(tape) - before == (6 if backbone == "gin" else 3)


def test_batch_plans_are_cached_and_match_index_arrays():
    batch = GraphBatch.from_graphs([parse_smiles("CC(=O)O"), parse_smiles("CN")])
    for name in ("atom_plan", "chirality_plan", "graph_plan", "bond_edges", "gcn_edges"):
        assert getattr(batch, name) is getattr(batch, name)
    bonds, gcn = batch.bond_edges, batch.gcn_edges
    n, e = batch.num_nodes, len(batch.edge_src)
    for plan, ids in ((batch.atom_plan, batch.node_atomic),
                      (batch.chirality_plan, batch.node_chirality),
                      (batch.graph_plan, batch.node_graph),
                      (bonds.src, batch.edge_src), (bonds.dst, batch.edge_dst),
                      (bonds.type, batch.edge_type), (bonds.dir, batch.edge_dir)):
        np.testing.assert_array_equal(plan.ids, ids)
    # The GCN set is the bonds followed by one self-loop per atom.
    for plan, ids in ((gcn.src, bonds.src), (gcn.dst, bonds.dst),
                      (gcn.type, bonds.type), (gcn.dir, bonds.dir)):
        np.testing.assert_array_equal(plan.ids[:e], ids.ids)
    np.testing.assert_array_equal(gcn.src.ids[e:], np.arange(n))
    np.testing.assert_array_equal(gcn.dst.ids[e:], np.arange(n))
    assert bonds.coeff is None and gcn.coeff.shape == (e + n,)
    assert batch.graph_plan.rows == 2
    assert bonds.src.rows == batch.num_nodes
