"""Whole-pipeline acceptance checks.

Twelve end-to-end guarantees, one test each, ordered roughly from the
numeric core outward: gradient oracles, contrastive closed forms, encoder
invariance, augmentation contracts, the parser corpus, pre-training,
fine-tuning, transfer, splitting, metrics, retrieval, and checkpoints.

Every expected value comes from an independent oracle: the hand-derived
golden corpus, the double-loop loss and AUC re-implementations in the
per-module test files (importable because this directory is on sys.path),
or closed-form arithmetic.  Each test finishes by printing a single
``[PASS]`` line with its measured numbers through the ``announce``
fixture, which suspends output capture so the line lands in the terminal
next to the test id.

The heavyweight fixture (contrastive pre-training over a 2,000-molecule
generated corpus) is shared by the transfer and retrieval checks and takes
about a minute; everything else runs in seconds.
"""

import math
import struct
import time
from collections import Counter

import numpy as np
import pytest

from golden_corpus import GOLDEN
from graph_oracle import murcko_scaffold, relabel, scaffold_key, validate
from molgen import make_molecules, oxygen_dataset, unlabeled_corpus
from test_contrastive import brute_force_nt_xent
from test_datasets import pair_auc
from test_smiles import MALFORMED

from molcontrast.augment import AugmentSpec, augment_pair, augment_view, derive_rng
from molcontrast.autodiff import Tape, check_gradients, gradcheck_report, tensor
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.datasets import (
    Split,
    SplitAssignment,
    mae,
    rmse,
    roc_auc,
    scaffold_split,
)
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    embed_molecules,
    project,
    represent,
)
from molcontrast.fingerprints import retrieval_analysis
from molcontrast.graph import BondType, mask_token
from molcontrast.smiles import (
    SmilesParseError,
    parse_smiles,
    parse_with_diagnostics,
)
from molcontrast.training import (
    CheckpointVersionError,
    CorruptCheckpointError,
    FinetuneConfig,
    PretrainConfig,
    finetune,
    load_checkpoint,
    model_from_checkpoint,
    model_to_checkpoint,
    pretrain,
    save_checkpoint,
)


@pytest.fixture(scope="session")
def announce(pytestconfig):
    """Print one summary line per check straight to the terminal.

    Default capture is file-descriptor level, so a plain print would only
    surface on failure; suspending the capture manager keeps the twelve
    result lines visible in every run.
    """
    manager = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        with manager.global_and_fixture_disabled():
            print(line, flush=True)

    return emit


def _count(p: float, n: int) -> int:
    # independent copy of the half-up action-count rule
    if p <= 0 or n == 0:
        return 0
    return min(n, max(1, math.floor(p * n + 0.5)))


SUBGRAPH_25 = AugmentSpec(strategy="subgraph", subgraph_ratio=0.25)


# -- shared heavyweight fixture ----------------------------------------------


@pytest.fixture(scope="module")
def pretrained_2000(announce):
    """A 2,000-molecule corpus and an encoder pre-trained on it."""
    corpus = unlabeled_corpus(2000, seed=20)
    enc = EncoderConfig(num_layers=3, hidden_dim=64, latent_dim=32)
    cfg = PretrainConfig(
        epochs=50,
        batch_size=16,
        lr=1e-3,
        warm_epochs=10,
        temperature=0.1,
        augment=SUBGRAPH_25,
        encoder=enc,
        seed=21,
    )
    t0 = time.perf_counter()
    result = pretrain(corpus, cfg)
    elapsed = time.perf_counter() - t0
    announce(
        f"[fixture] pre-trained on 2000 molecules: loss "
        f"{result.history[0].train_loss:.3f} -> "
        f"{result.history[-1].train_loss:.3f} in {elapsed:.0f}s"
    )
    return corpus, enc, result


# -- 01: gradients -----------------------------------------------------------


def test_01_gradients_match_finite_differences(announce):
    t0 = time.perf_counter()
    report = gradcheck_report(seed=0, eps=1e-4)
    per_op = max(report.values())
    assert len(report) == 13
    assert per_op < 1e-4, report

    # composite: two molecules, two augmented views each, 2 GIN layers,
    # projection head, contrastive loss at temperature 0.1
    cfg = EncoderConfig(backbone="gin", num_layers=2, hidden_dim=4, latent_dim=3)
    model = EncoderModel.initialize(cfg, 0)
    views = []
    for i, s in enumerate(["CCO", "c1ccccc1"]):
        a, b = augment_pair(parse_smiles(s), SUBGRAPH_25, derive_rng(5, i))
        views += [a.graph, b.graph]
    batch = GraphBatch.from_graphs(views)
    names = sorted(model.params)
    arrays = [model.params[n].data.astype(np.float64) for n in names]

    def build(tape, params):
        staged = EncoderModel(cfg, dict(zip(names, params)), model.head)
        h = represent(tape, staged, batch)
        z = project(tape, staged, h)
        return nt_xent(tape, z, ContrastiveConfig(temperature=0.1, batch_size=2))

    composite = check_gradients(build, arrays, eps=1e-5)
    elapsed = time.perf_counter() - t0
    assert composite < 1e-3
    assert elapsed < 30.0
    announce(
        f"[PASS] 01 gradients: per-op max {per_op:.1e} over {len(report)} ops "
        f"(<1e-4), composite {composite:.1e} (<1e-3), {elapsed:.1f}s (<30s)"
    )


# -- 02: contrastive loss ----------------------------------------------------


def _loss(z, temperature, batch_size):
    tape = Tape()
    cfg = ContrastiveConfig(temperature=temperature, batch_size=batch_size)
    return float(nt_xent(tape, tensor(z, dtype=np.float64), cfg).data)


def test_02_contrastive_loss_closed_forms_and_brute_force(announce):
    # all rows identical: every term is log(2N - 1), independent of tau
    uniform = _loss(np.tile([3.0, 4.0], (32, 1)), 0.1, 16)
    assert uniform == pytest.approx(math.log(31.0), abs=1e-5)

    # aligned pairs, orthogonal across pairs, N = 2
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    sharp = _loss(z, 0.1, 2)
    soft = _loss(z, 0.5, 2)
    assert sharp == pytest.approx(math.log(1 + 2 * math.exp(-10.0)), abs=1e-5)
    assert soft == pytest.approx(math.log(1 + 2 * math.exp(-2.0)), abs=1e-5)

    # double-loop float64 oracle on 100 random batches
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([2, 4, 8]))
        d = int(rng.choice([3, 8, 16]))
        temperature = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
        zr = rng.standard_normal((2 * n, d))
        got = _loss(zr, temperature, n)
        want = brute_force_nt_xent(zr, temperature)
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=1e-6), (trial, n, d, temperature)
    announce(
        f"[PASS] 02 contrastive: log31={uniform:.5f}, tau0.1={sharp:.4e}, "
        f"tau0.5={soft:.7f} (all within 1e-5 of closed form), "
        f"brute-force worst {worst:.1e} over 100 batches (<1e-6)"
    )


# -- 03: permutation invariance ----------------------------------------------


def test_03_readout_invariant_to_atom_relabeling(announce):
    mols = [g for _, g in make_molecules(200, seed=30)]
    worst = 0.0
    for backbone in ("gin", "gcn"):
        cfg = EncoderConfig(
            backbone=backbone, num_layers=3, hidden_dim=32, latent_dim=16
        )
        model = EncoderModel.initialize(cfg, 31)
        for k, g in enumerate(mols):
            rng = np.random.default_rng(1000 + k)
            variants = [g] + [
                relabel(g, rng.permutation(g.num_nodes)) for _ in range(5)
            ]
            reps = embed_molecules(model, variants)
            worst = max(worst, float(np.abs(reps[1:] - reps[:1]).max()))
    assert worst < 1e-5
    announce(
        f"[PASS] 03 invariance: 200 molecules x 5 relabelings x 2 backbones, "
        f"worst readout deviation {worst:.1e} (<1e-5)"
    )


# -- 04: augmentation contracts ----------------------------------------------


def test_04_augmentation_counts_seeds_and_frequencies(announce):
    t0 = time.perf_counter()
    pool = [g for _, g in make_molecules(120, seed=32)]
    token = mask_token()
    for strategy in ("mask_delete", "subgraph_random", "subgraph", "compose_all"):
        spec = AugmentSpec(strategy=strategy)
        for trial in range(1000):
            g = pool[trial % len(pool)]
            seed = 5000 + trial
            view = augment_view(g, spec, derive_rng(seed, 0), 0)
            again = augment_view(g, spec, derive_rng(seed, 0), 0)
            assert view == again  # same seed, bit-identical draw

            n, m = g.num_nodes, g.num_edges
            masked = view.masked_nodes
            deleted = set(view.deleted_edges)
            surviving = {(e.u, e.v) for e in view.graph.edges}
            assert all(view.graph.nodes[i] == token for i in masked)
            assert not deleted & surviving

            inside = {
                (e.u, e.v) for e in g.edges if e.u in masked and e.v in masked
            }
            if strategy == "mask_delete":
                assert len(masked) == _count(0.25, n)
                assert len(deleted) == _count(0.25, m)
            elif strategy == "subgraph":
                assert len(masked) == _count(0.25, n)
                assert deleted == inside
            elif strategy == "subgraph_random":
                # ratio is drawn from U[0, 0.25]; only the shape is fixed
                assert deleted == inside
            else:  # compose_all tops masking and deletion up to ceil quotas
                assert len(masked) == math.ceil(0.25 * n - 1e-9)
                assert len(deleted) == math.ceil(0.25 * m - 1e-9)

    # selection frequency: 10 atoms at p=0.3 over 10,000 seeds
    decane = parse_smiles("CCCCCCCCCC")
    hits = np.zeros(10)
    trials = 10_000
    spec = AugmentSpec(strategy="mask_delete", mask_ratio=0.3, delete_ratio=0.0)
    for seed in range(trials):
        for v in augment_view(decane, spec, derive_rng(seed), 0).masked_nodes:
            hits[v] += 1
    freq = hits / trials
    drift = float(np.abs(freq - 0.3).max())
    assert drift <= 0.02, freq
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        f"[PASS] 04 augmentation: 1000 (molecule, seed) pairs x 4 strategies "
        f"exact, frequency drift {drift:.3f} (<=0.02), {elapsed:.1f}s (<60s)"
    )


# -- 05: parser corpus -------------------------------------------------------


def test_05_parser_reproduces_hand_derived_corpus(announce):
    assert len(GOLDEN) == 50
    for entry in GOLDEN:
        # cross-check the record itself before trusting it
        assert entry.edges == entry.nodes - entry.components + entry.rings
        assert entry.single + entry.double + entry.triple + entry.aromatic == (
            entry.edges
        )
        mol, warnings = parse_with_diagnostics(entry.smiles)
        assert warnings == [], entry.name
        assert validate(mol) == [], entry.name
        assert (mol.num_nodes, mol.num_edges) == (entry.nodes, entry.edges), (
            entry.name
        )
        counts = Counter(e.bond_type for e in mol.edges)
        assert counts.get(BondType.SINGLE, 0) == entry.single, entry.name
        assert counts.get(BondType.DOUBLE, 0) == entry.double, entry.name
        assert counts.get(BondType.TRIPLE, 0) == entry.triple, entry.name
        assert counts.get(BondType.AROMATIC, 0) == entry.aromatic, entry.name
        assert sum(n.formal_charge for n in mol.nodes) == entry.net_charge

    for text, kind, position in MALFORMED:
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(text)
        diag = err.value.diagnostic
        assert (diag.kind, diag.position) == (kind, position), text
        assert diag.message
    announce(
        f"[PASS] 05 parser: {len(GOLDEN)} hand-derived molecules reproduced "
        f"exactly, {len(MALFORMED)} malformed inputs diagnosed at the right "
        f"position"
    )


# -- 06: pre-training --------------------------------------------------------


def test_06_pretraining_reduces_contrastive_loss(announce):
    corpus = [parse_smiles(g.smiles) for g in GOLDEN] + unlabeled_corpus(
        14, seed=10
    )
    assert len(corpus) == 64
    enc = EncoderConfig(num_layers=3, hidden_dim=64, latent_dim=32)
    cfg = PretrainConfig(
        epochs=50,
        batch_size=16,
        lr=1e-3,
        warm_epochs=10,
        temperature=0.1,
        augment=SUBGRAPH_25,
        encoder=enc,
        seed=11,
    )
    t0 = time.perf_counter()
    first = pretrain(corpus, cfg)
    elapsed = time.perf_counter() - t0
    init = first.history[0].train_loss
    final = first.history[-1].train_loss
    # initial loss must sit in the band around log(2 * 16 - 1) = 3.434
    assert 1.7 <= init <= 6.9
    assert final < 1.0
    assert elapsed < 300.0

    second = pretrain(corpus, cfg)
    assert [
        (t.train_loss, t.val_loss, t.lr) for t in first.history
    ] == [(t.train_loss, t.val_loss, t.lr) for t in second.history]
    a1, a2 = first.model.state_arrays(), second.model.state_arrays()
    assert set(a1) == set(a2)
    assert all(a1[k].tobytes() == a2[k].tobytes() for k in a1)
    announce(
        f"[PASS] 06 pre-training: 64 molecules, batch 16, 50 epochs: loss "
        f"{init:.3f} (in [1.7, 6.9]) -> {final:.3f} (<1.0), rerun "
        f"bit-identical, {elapsed:.0f}s (<300s)"
    )


# -- 07: fine-tuning ---------------------------------------------------------


def test_07_finetuned_classifier_separates_held_out_scaffolds(announce):
    ds = oxygen_dataset(400, seed=3)
    split = scaffold_split(ds.graphs())
    labels = ds.label_arrays()[0][:, 0]
    for part in (split.valid_indices, split.test_indices):
        assert len({int(labels[i]) for i in part}) == 2  # both classes present

    enc = EncoderConfig(num_layers=3, hidden_dim=32, latent_dim=16)
    cfg = FinetuneConfig(
        epochs=50, batch_size=32, lr_base=5e-4, hidden_dim=64, seed=0
    )
    t0 = time.perf_counter()
    result = finetune(ds, cfg, encoder=enc, split=split)
    elapsed = time.perf_counter() - t0
    assert result.metric_name == "roc_auc"
    assert result.test_metric >= 0.95
    assert elapsed < 300.0

    # a random scorer on the same held-out scaffolds must sit at chance;
    # averaged over 200 draws because a single 28-molecule draw is noisy
    rng = np.random.default_rng(0)
    test_idx = split.test_indices
    test_labels = labels[test_idx]
    baseline = float(
        np.mean(
            [
                roc_auc(rng.random(len(test_idx)), test_labels)
                for _ in range(200)
            ]
        )
    )
    assert abs(baseline - 0.5) <= 0.05
    announce(
        f"[PASS] 07 fine-tuning: 400 molecules, scaffold split "
        f"{len(split.train_indices)}/{len(split.valid_indices)}/"
        f"{len(test_idx)}, test AUC {result.test_metric:.4f} (>=0.95), "
        f"random baseline {baseline:.4f} (0.5 +/- 0.05), {elapsed:.0f}s (<300s)"
    )


# -- 08: transfer ------------------------------------------------------------


def test_08_pretrained_start_beats_scratch(pretrained_2000, announce):
    _, enc, pre = pretrained_2000
    ds = oxygen_dataset(200, seed=17)
    labels = ds.label_arrays()[0][:, 0]

    # scarce-label split: whole scaffold groups packed to exactly 40 train
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(ds.graphs()):
        groups.setdefault(scaffold_key(g), []).append(i)
    train: list[int] = []
    valid: list[int] = []
    test: list[int] = []
    for members in sorted(groups.values(), key=lambda m: (-len(m), min(m))):
        if len(train) + len(members) <= 40:
            train += members
        elif len(valid) + len(members) <= 20:
            valid += members
        else:
            test += members
    assert (len(train), len(valid), len(test)) == (40, 20, 140)
    for part in (train, valid, test):
        assert len({int(labels[i]) for i in part}) == 2
    assignment = [Split.TEST] * len(ds)
    for i in train:
        assignment[i] = Split.TRAIN
    for i in valid:
        assignment[i] = Split.VALID
    split = SplitAssignment(tuple(assignment))

    means = {}
    for arm in ("a", "b", "c"):
        scores = []
        for seed in range(5):
            cfg = FinetuneConfig(
                epochs=30, batch_size=32, hidden_dim=64, seed=seed
            )
            if arm == "a":  # start from the pre-trained encoder
                r = finetune(ds, cfg, checkpoint=pre.checkpoint, split=split)
            elif arm == "b":  # scratch, but with train-time augmentation
                r = finetune(ds, cfg, encoder=enc, split=split, augment=SUBGRAPH_25)
            else:  # plain scratch
                r = finetune(ds, cfg, encoder=enc, split=split)
            scores.append(r.test_metric)
        means[arm] = float(np.mean(scores))
    assert means["a"] > means["c"] - 0.02, means
    announce(
        f"[PASS] 08 transfer: 40 labeled molecules, 5 seeds: pretrained "
        f"{means['a']:.4f} vs augmented-scratch {means['b']:.4f} vs plain "
        f"{means['c']:.4f}; pretrained > plain - 0.02"
    )


# -- 09: scaffold splitting --------------------------------------------------


def test_09_scaffold_split_partitions_cleanly(announce):
    checked = []
    for n, seed, fractions in (
        (120, 9, (0.8, 0.1, 0.1)),
        (200, 17, (0.8, 0.1, 0.1)),
        (400, 3, (0.7, 0.15, 0.15)),
    ):
        graphs = oxygen_dataset(n, seed=seed).graphs()
        split = scaffold_split(graphs, fractions)
        parts = [set(split.indices(s)) for s in Split]
        assert sum(len(p) for p in parts) == n
        assert set().union(*parts) == set(range(n))

        keys = [scaffold_key(g) for g in graphs]
        key_sets = [{keys[i] for i in p} for p in parts]
        assert not (key_sets[0] & key_sets[1])
        assert not (key_sets[0] & key_sets[2])
        assert not (key_sets[1] & key_sets[2])

        g_max = max(Counter(keys).values())
        for part, f in zip(parts, fractions):
            assert abs(len(part) / n - f) <= g_max / n, (n, f, len(part))
        checked.append((n, g_max))

    for entry in GOLDEN:
        s1 = murcko_scaffold(parse_smiles(entry.smiles))
        s2 = murcko_scaffold(s1)
        assert (s1.num_nodes, s1.num_edges) == (s2.num_nodes, s2.num_edges)
        if s1.num_nodes:
            assert scaffold_key(s1) == scaffold_key(s2)
    announce(
        f"[PASS] 09 splitting: {len(checked)} datasets partition with no "
        f"scaffold crossing and fractions within g_max/n; scaffold of "
        f"scaffold is a fixed point on all {len(GOLDEN)} corpus molecules"
    )


# -- 10: metrics -------------------------------------------------------------


def test_10_metrics_match_enumeration_oracles(announce):
    assert roc_auc([0.2, 0.3, 0.6, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5))
    assert mae([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5)

    rng = np.random.default_rng(77)
    for case in range(1000):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]  # keep the metric defined
        if case % 2:
            scores = rng.integers(0, 5, n).astype(float)  # force ties
        else:
            scores = rng.random(n)
        assert roc_auc(scores, labels) == pair_auc(scores, labels), case

    for case in range(200):
        n = int(rng.integers(1, 50))
        predictions = rng.normal(size=n)
        targets = rng.normal(size=n)
        assert rmse(predictions, targets) >= mae(predictions, targets) - 1e-12
    announce(
        "[PASS] 10 metrics: roc_auc equals the pairwise-enumeration oracle "
        "on 1000 random cases exactly, hand examples exact, rmse >= mae on "
        "200 random arrays"
    )


# -- 11: retrieval -----------------------------------------------------------


def test_11_retrieval_ranks_similar_molecules_first(pretrained_2000, announce):
    corpus, _, pre = pretrained_2000

    # sanity: a corpus of query copies is Dice 1.0 in every bin
    model = EncoderModel.initialize(
        EncoderConfig(num_layers=2, hidden_dim=8, latent_dim=4), 0
    )
    query = parse_smiles("Cc1ccccc1")
    copies = [parse_smiles("Cc1ccccc1") for _ in range(20)]
    report = retrieval_analysis(query, copies, model)
    assert len(report.bins) == 40  # 20 bins x 2 fingerprint kinds
    assert all(b.mean == 1.0 and b.std == 0.0 for b in report.bins)

    # after pre-training, near neighbors in representation space should be
    # more similar by fingerprint than far ones for most queries
    wins = 0
    details = []
    for smiles in ("c1ccc(CO)cc1", "OC1CCC(C)CC1", "c1cc(CCO)cs1"):
        rep = retrieval_analysis(
            parse_smiles(smiles),
            corpus,
            pre.model,
            bins=20,
            samples_per_bin=25,
            seed=0,
        )
        circular = [b for b in rep.bins if b.fp_kind == "circular"]
        assert circular[0].bin_index == 0
        first, last = circular[0].mean, circular[-1].mean
        wins += first >= last
        details.append(f"{first:.3f}/{last:.3f}")
    assert wins >= 2, details
    announce(
        f"[PASS] 11 retrieval: query-copy corpus pure in all bins; "
        f"first-bin vs last-bin circular Dice {', '.join(details)}: "
        f"{wins}/3 queries enriched (>=2 required)"
    )


# -- 12: checkpoints ---------------------------------------------------------


def test_12_checkpoints_round_trip_and_reject_corruption(tmp_path, announce):
    model = EncoderModel.initialize(
        EncoderConfig(num_layers=2, hidden_dim=8, latent_dim=4), 3
    )
    model.add_head(HeadSpec("classification", 1, hidden_dim=8), 4)
    ckpt = model_to_checkpoint(model, epoch=7, extra={"tag": "acceptance"})
    path = tmp_path / "model.bin"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.version == ckpt.version
    assert loaded.config == ckpt.config
    assert set(loaded.arrays) == set(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        got = loaded.arrays[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes(), name

    graphs = [parse_smiles(s) for s in ("CCO", "c1ccccc1", "CC(=O)O")]
    before = embed_molecules(model, graphs)
    after = embed_molecules(model_from_checkpoint(loaded), graphs)
    assert np.array_equal(before, after)

    blob = path.read_bytes()
    cases = 0
    for mutate in (
        lambda b: b[: len(b) // 2],  # truncated payload
        lambda b: b[:10],  # truncated header
        lambda b: b"XXXX" + b[4:],  # wrong magic
        lambda b: bytes(b[:-40]) + bytes([b[-40] ^ 0xFF]) + bytes(b[-39:]),
        lambda b: bytes(b[:20]) + b"X" + bytes(b[21:]),  # metadata damage
    ):
        bad = tmp_path / f"bad{cases}.bin"
        bad.write_bytes(mutate(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(bad)
        cases += 1
    bumped = bytearray(blob)
    bumped[8:12] = struct.pack("<I", 99)
    vpath = tmp_path / "future.bin"
    vpath.write_bytes(bytes(bumped))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(vpath)
    announce(
        f"[PASS] 12 checkpoints: round trip bit-identical (config, "
        f"{len(ckpt.arrays)} tensors, embeddings), {cases} corruptions and a "
        f"version bump rejected"
    )
