"""Optimizer, schedule, checkpoints, and both training loops."""

import hashlib
import math
import struct
import zlib

import numpy as np
import pytest

import molcontrast.training as training_module
from molcontrast import autodiff as ad
from molcontrast.augment import AugmentSpec
from molcontrast.datasets import Split, SplitAssignment
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    embed_molecules,
    predict,
    represent,
)
from molcontrast.errors import ConfigError, DataError, NumericAbort
from molcontrast.smiles import parse_smiles
from molcontrast.training import (
    CHECKPOINT_MAGIC,
    AdamState,
    Checkpoint,
    CheckpointError,
    CheckpointVersionError,
    CorruptCheckpointError,
    FinetuneConfig,
    PretrainConfig,
    TargetStats,
    adam_step,
    finetune,
    load_checkpoint,
    lr_at,
    model_from_checkpoint,
    model_to_checkpoint,
    predict_molecules,
    pretrain,
    save_checkpoint,
    write_trace_csv,
)
from molgen import oxygen_dataset, unlabeled_corpus

SMALL_ENCODER = EncoderConfig(num_layers=2, hidden_dim=8, latent_dim=4)


# -- adam --------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    p = ad.tensor([1.0, -2.0], requires_grad=True)
    before = p.data.copy()
    adam_step({"w": p}, {"w": np.zeros(2)}, AdamState(), lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_is_signed_lr():
    # scalar first step: m-hat/sqrt(v-hat) = sign(g) up to eps
    p = ad.tensor([0.0, 0.0], requires_grad=True)
    adam_step({"w": p}, {"w": np.array([2.0, -0.5])}, AdamState(), lr=0.01)
    np.testing.assert_allclose(p.data, [-0.01, 0.01], atol=1e-7)


def test_adam_matches_hand_recurrence():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    p = ad.tensor([1.0], requires_grad=True)
    state = AdamState()
    w = np.array([1.0], dtype=np.float32)
    m = np.zeros(1)
    v = np.zeros(1)
    gradients = [np.array([0.5]), np.array([-0.3]), np.array([0.2]), np.array([0.0])]
    for t, g in enumerate(gradients, start=1):
        adam_step({"w": p}, {"w": g}, state, lr)
        m = m * beta1 + (1.0 - beta1) * g
        v = v * beta2 + (1.0 - beta2) * g * g
        update = lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        w = w - update.astype(np.float32)
        np.testing.assert_allclose(p.data, w, rtol=1e-6)
    assert state.step == 4


def test_adam_weight_decay_shrinks_params():
    p = ad.tensor([4.0, -4.0], requires_grad=True)
    state = AdamState()
    for _ in range(10):
        adam_step({"w": p}, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.01)
    assert 0 < p.data[0] < 4.0
    assert -4.0 < p.data[1] < 0


def test_adam_sign_flip_symmetry():
    g = np.array([0.7, -1.3, 0.2])
    a = ad.tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = ad.tensor([1.0, 2.0, 3.0], requires_grad=True)
    sa, sb = AdamState(), AdamState()
    for _ in range(3):
        adam_step({"w": a}, {"w": g}, sa, lr=0.01)
        adam_step({"w": b}, {"w": -g}, sb, lr=0.01)
    start = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    np.testing.assert_allclose(a.data - start, -(b.data - start), atol=1e-7)


def test_adam_moves_only_named_parameters():
    p = ad.tensor([1.0], requires_grad=True)
    q = ad.tensor([1.0], requires_grad=True)
    adam_step({"a": p, "b": q}, {"a": np.array([1.0])}, AdamState(), lr=0.1)
    assert p.data[0] != 1.0
    assert q.data[0] == 1.0


def test_adam_per_name_learning_rate():
    p = ad.tensor([0.0], requires_grad=True)
    q = ad.tensor([0.0], requires_grad=True)
    g = {"head.w": np.array([1.0]), "layer.w": np.array([1.0])}
    rate = lambda name: 0.1 if name.startswith("head.") else 0.01  # noqa: E731
    adam_step({"head.w": p, "layer.w": q}, g, AdamState(), rate)
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)
    np.testing.assert_allclose(q.data, [-0.01], atol=1e-7)


def test_adam_shape_mismatch():
    p = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        adam_step({"w": p}, {"w": np.zeros(3)}, AdamState(), lr=0.1)


# -- learning-rate schedule --------------------------------------------------


def test_lr_schedule_anchors():
    assert lr_at(0, 50, 5e-4, warm_epochs=10) == 5e-4
    assert lr_at(9, 50, 5e-4, warm_epochs=10) == 5e-4
    assert lr_at(30, 50, 5e-4, warm_epochs=10) == pytest.approx(2.5e-4, rel=1e-12)
    assert lr_at(50, 50, 5e-4, warm_epochs=10) == pytest.approx(0.0, abs=1e-18)


def test_lr_schedule_monotone_nonincreasing():
    rates = [lr_at(e, 50, 5e-4, warm_epochs=10) for e in range(51)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_lr_all_warm_is_flat():
    assert lr_at(7, 10, 1e-3, warm_epochs=10) == 1e-3


def test_lr_epoch_range_validation():
    with pytest.raises(ValueError):
        lr_at(-1, 50, 5e-4)
    with pytest.raises(ValueError):
        lr_at(51, 50, 5e-4)


# -- checkpoints -------------------------------------------------------------


def make_model(seed=0, head=False):
    model = EncoderModel.initialize(SMALL_ENCODER, seed)
    if head:
        from molcontrast.encoder import HeadSpec

        model.add_head(HeadSpec(task_kind="classification", task_count=2), seed + 1)
    return model


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = make_model(head=True)
    ckpt = model_to_checkpoint(model, epoch=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.version == ckpt.version
    assert loaded.config["epoch"] == 7
    assert set(loaded.arrays) == set(ckpt.arrays) == set(model.params)
    for name, arr in ckpt.arrays.items():
        np.testing.assert_array_equal(loaded.arrays[name], arr)


def test_checkpoint_with_adam_moments_still_loads(tmp_path):
    # Files written before checkpoints became parameter-only also carry
    # float32 Adam moments; they load, and the model drops them.
    model = make_model()
    ckpt = model_to_checkpoint(model)
    ckpt.arrays["adam.m.x"] = np.full((3, 2), 0.25, dtype=np.float32)
    ckpt.arrays["adam.v.x"] = np.full((3, 2), 0.5, dtype=np.float32)
    ckpt.config["adam_step"] = 3
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config["adam_step"] == 3
    np.testing.assert_array_equal(loaded.arrays["adam.m.x"], ckpt.arrays["adam.m.x"])
    np.testing.assert_array_equal(loaded.arrays["adam.v.x"], ckpt.arrays["adam.v.x"])
    revived = model_from_checkpoint(loaded)
    assert set(revived.params) == set(model.params)
    graphs = [parse_smiles("CCO")]
    np.testing.assert_array_equal(
        embed_molecules(model, graphs), embed_molecules(revived, graphs)
    )


def test_checkpoint_file_layout_is_exact(tmp_path):
    # Header, metadata, raw little-endian float32 payload, CRC-32 trailer.
    ckpt = Checkpoint({"epoch": 1}, {"a": np.arange(3, dtype=np.float32), "b": np.ones((2, 2))})
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    payload = np.arange(3, dtype="<f4").tobytes() + np.ones(4, dtype="<f4").tobytes()
    assert blob[20 + meta_len : -4] == payload
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(payload)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.arrays["b"], np.ones((2, 2), dtype=np.float32))
    assert loaded.arrays["a"].flags.writeable and loaded.arrays["a"].dtype == np.float32


def test_checkpoint_roundtrip_same_embeddings(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    revived = model_from_checkpoint(load_checkpoint(path))
    graphs = [parse_smiles("CCO"), parse_smiles("c1ccccc1")]
    np.testing.assert_array_equal(
        embed_molecules(model, graphs), embed_molecules(revived, graphs)
    )
    assert revived.config == model.config


def test_checkpoint_restores_head(tmp_path):
    model = make_model(head=True)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    revived = model_from_checkpoint(load_checkpoint(path))
    assert revived.head == model.head
    graphs = [parse_smiles("CCO")]
    np.testing.assert_array_equal(
        predict_molecules(model, graphs), predict_molecules(revived, graphs)
    )


def test_replaced_head_leaves_no_parameters_behind():
    # Fine-tuning a fine-tuned model attaches a fresh head; the checkpoint
    # of the result must hold only that head's tensors, or it cannot load.
    from molcontrast.encoder import HeadSpec

    model = make_model()
    model.add_head(HeadSpec("regression", 1, hidden_layers=2), 1)
    model.add_head(HeadSpec("regression", 1, hidden_layers=1), 2)
    assert "head.weight1" not in model.params
    revived = model_from_checkpoint(model_to_checkpoint(model))
    assert set(revived.params) == set(model.params)


def test_checkpoint_truncation_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = path.read_bytes()
    for cut in (4, 15, len(blob) // 2, len(blob) - 2):
        short = tmp_path / "short.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(short)


def test_checkpoint_bad_magic_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_bump_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_payload_corruption_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0xFF  # inside the tensor payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_metadata_corruption_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[20] = ord("X")  # first metadata byte; breaks the JSON
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC == b"MOLCLRCK"
    assert len(CHECKPOINT_MAGIC) == 8


# -- pre-training loop -------------------------------------------------------


def test_pretrain_config_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        PretrainConfig(epochs=5, warm_epochs=6)
    with pytest.raises(ConfigError):
        PretrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        PretrainConfig(val_fraction=1.0)


def test_pretrain_needs_two_molecules():
    with pytest.raises(DataError):
        pretrain(
            [parse_smiles("C")],
            PretrainConfig(epochs=1, batch_size=2, warm_epochs=0),
        )


def test_pretrain_smoke_and_determinism(tmp_path):
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(
        epochs=3,
        batch_size=4,
        lr=5e-3,
        warm_epochs=0,
        encoder=SMALL_ENCODER,
        val_fraction=0.25,
        seed=7,
    )
    trace = tmp_path / "trace.csv"
    a = pretrain(corpus, cfg, trace_path=trace)
    b = pretrain(corpus, cfg)
    assert len(a.history) == 3
    assert all(math.isfinite(t.train_loss) for t in a.history)
    assert all(math.isfinite(t.val_loss) for t in a.history)
    assert a.history == b.history
    for name, arr in a.model.state_arrays().items():
        np.testing.assert_array_equal(arr, b.model.state_arrays()[name])
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == 4


def test_pretrain_initial_loss_in_uniformity_band():
    # batch of 4 molecules: the uniform-similarity value is log(2N-1) = log 7
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(
        epochs=1,
        batch_size=4,
        lr=1e-5,
        warm_epochs=0,
        encoder=SMALL_ENCODER,
        val_fraction=0.0,
        seed=7,
    )
    first = pretrain(corpus, cfg).history[0].train_loss
    assert 0.5 * math.log(7) <= first <= 2.0 * math.log(7)


def test_pretrain_identity_views_collapse_loss():
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(
        epochs=40,
        batch_size=4,
        lr=5e-3,
        warm_epochs=40,
        encoder=SMALL_ENCODER,
        val_fraction=0.0,
        seed=7,
        augment=AugmentSpec(strategy="subgraph", subgraph_ratio=0.0),
    )
    history = pretrain(corpus, cfg).history
    assert history[-1].train_loss < 0.5
    assert history[-1].train_loss < 0.5 * history[0].train_loss


def test_pretrain_no_validation_gives_nan():
    corpus = unlabeled_corpus(6, seed=2)
    cfg = PretrainConfig(
        epochs=1, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER, val_fraction=0.0, seed=0
    )
    result = pretrain(corpus, cfg)
    assert math.isnan(result.history[0].val_loss)


def test_pretrain_seed_changes_trace():
    corpus = unlabeled_corpus(8, seed=3)
    base = dict(epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER, val_fraction=0.0)
    a = pretrain(corpus, PretrainConfig(seed=0, **base))
    b = pretrain(corpus, PretrainConfig(seed=1, **base))
    assert a.history != b.history


def test_pretrain_checkpoint_is_loadable(tmp_path):
    corpus = unlabeled_corpus(6, seed=2)
    cfg = PretrainConfig(
        epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER, val_fraction=0.0, seed=0
    )
    result = pretrain(corpus, cfg)
    path = tmp_path / "pre.ckpt"
    save_checkpoint(path, result.checkpoint)
    loaded = load_checkpoint(path)
    assert loaded.config["epoch"] == 2
    assert loaded.config["pretrain"]["batch_size"] == 4
    # Parameters only: no optimizer state, no resume.
    assert "adam_step" not in loaded.config
    assert "rng_seed" not in loaded.config["pretrain"]["augment"]
    assert list(loaded.arrays) == list(result.model.params)
    for name, t in result.model.params.items():
        assert loaded.arrays[name].tobytes() == t.data.astype(np.float32).tobytes()
    revived = model_from_checkpoint(loaded)
    graphs = [parse_smiles("CCO")]
    np.testing.assert_array_equal(
        embed_molecules(result.model, graphs), embed_molecules(revived, graphs)
    )


# -- fine-tuning loop --------------------------------------------------------


def test_finetune_grid_validation():
    with pytest.raises(ConfigError):
        FinetuneConfig(batch_size=64)
    with pytest.raises(ConfigError):
        FinetuneConfig(lr_head=1e-2)
    with pytest.raises(ConfigError):
        FinetuneConfig(activation="tanh")
    with pytest.raises(ConfigError):
        FinetuneConfig(epochs=0)
    with pytest.raises(ConfigError):
        FinetuneConfig(regression_metric="r2")
    with pytest.warns(UserWarning):
        FinetuneConfig(batch_size=64, free_values=True)


def test_finetune_classification_smoke():
    dataset = oxygen_dataset(50, seed=4)
    cfg = FinetuneConfig(epochs=4, batch_size=32, hidden_dim=16, seed=0)
    result = finetune(dataset, cfg, encoder=SMALL_ENCODER)
    assert result.metric_name == "roc_auc"
    assert 0.0 <= result.test_metric <= 1.0
    assert 0 <= result.best_epoch < 4
    assert len(result.history) == 4
    assert len(result.per_task_test) == 1
    assert result.target_stats is None
    assert len(result.split.assignment) == 50
    assert result.metrics["roc_auc"] == result.test_metric


def test_finetune_deterministic():
    dataset = oxygen_dataset(30, seed=6)
    cfg = FinetuneConfig(epochs=3, batch_size=32, hidden_dim=16, seed=2)
    a = finetune(dataset, cfg, encoder=SMALL_ENCODER)
    b = finetune(dataset, cfg, encoder=SMALL_ENCODER)
    assert a.history == b.history
    assert a.test_metric == b.test_metric


def test_finetune_from_checkpoint_and_conflict():
    corpus = unlabeled_corpus(8, seed=3)
    pre = pretrain(
        corpus,
        PretrainConfig(
            epochs=1, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER, val_fraction=0.0, seed=0
        ),
    )
    dataset = oxygen_dataset(30, seed=6)
    cfg = FinetuneConfig(epochs=2, batch_size=32, hidden_dim=16, seed=0)
    result = finetune(dataset, cfg, checkpoint=pre.checkpoint)
    assert result.model.config == SMALL_ENCODER
    with pytest.raises(ConfigError):
        finetune(
            dataset,
            cfg,
            checkpoint=pre.checkpoint,
            encoder=EncoderConfig(num_layers=3, hidden_dim=8, latent_dim=4),
        )


def test_finetune_leaves_checkpoint_unchanged():
    corpus = unlabeled_corpus(8, seed=3)
    pre = pretrain(
        corpus,
        PretrainConfig(
            epochs=1, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER, val_fraction=0.0, seed=0
        ),
    )

    def digest(ckpt):
        return {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in ckpt.arrays.items()}

    before = digest(pre.checkpoint)
    cfg = FinetuneConfig(epochs=2, batch_size=32, hidden_dim=16, seed=0)
    finetune(oxygen_dataset(30, seed=6), cfg, checkpoint=pre.checkpoint)
    assert digest(pre.checkpoint) == before


def test_finetune_augment_changes_training():
    dataset = oxygen_dataset(30, seed=6)
    cfg = FinetuneConfig(epochs=2, batch_size=32, hidden_dim=16, seed=0)
    plain = finetune(dataset, cfg, encoder=SMALL_ENCODER)
    augmented = finetune(
        dataset, cfg, encoder=SMALL_ENCODER, augment=AugmentSpec(strategy="subgraph")
    )
    assert plain.history != augmented.history


def test_finetune_split_size_mismatch():
    dataset = oxygen_dataset(30, seed=6)
    bad = SplitAssignment(tuple([Split.TRAIN] * 10))
    with pytest.raises(DataError):
        finetune(
            dataset,
            FinetuneConfig(epochs=1, batch_size=32, hidden_dim=16),
            encoder=SMALL_ENCODER,
            split=bad,
        )


def test_finetune_regression_with_manual_split(tmp_path):
    # target = heavy-atom count, an easily learnable graph size signal
    corpus = unlabeled_corpus(24, seed=6)
    lines = ["smiles,size"]
    from molgen import make_molecules

    for smiles, graph in make_molecules(24, seed=6):
        lines.append(f"{smiles},{graph.num_nodes}")
    p = tmp_path / "size.csv"
    p.write_text("\n".join(lines) + "\n")
    from molcontrast.datasets import load_labeled_csv

    dataset, failures = load_labeled_csv(p, "regression")
    assert failures == []
    assignment = [Split.TRAIN] * 16 + [Split.VALID] * 4 + [Split.TEST] * 4
    split = SplitAssignment(tuple(assignment))
    cfg = FinetuneConfig(
        epochs=3, batch_size=32, hidden_dim=16, regression_metric="rmse", seed=1
    )
    result = finetune(dataset, cfg, encoder=SMALL_ENCODER, split=split)
    assert result.metric_name == "rmse"
    assert result.target_stats is not None
    labels, _ = dataset.label_arrays()
    np.testing.assert_allclose(
        result.target_stats.mean, labels[:16].mean(axis=0), rtol=1e-12
    )
    assert set(result.metrics) == {"rmse", "mae"}
    assert result.metrics["rmse"] >= result.metrics["mae"] - 1e-9
    assert math.isfinite(result.test_metric)


def test_regression_finetune_predicts_the_test_split_once(monkeypatch):
    from molcontrast.datasets import LabeledDataset, LabeledRecord
    from molgen import make_molecules

    records = [
        LabeledRecord(i, smiles, g, (float(g.num_nodes),), (True,))
        for i, (smiles, g) in enumerate(make_molecules(24, seed=6))
    ]
    dataset = LabeledDataset("size", "regression", ("size",), records)
    split = SplitAssignment(tuple([Split.TRAIN] * 16 + [Split.VALID] * 4 + [Split.TEST] * 4))
    predicted = []
    real = training_module.predict_molecules

    def counting(model, graphs, *args, **kwargs):
        predicted.append(len(graphs))
        return real(model, graphs, *args, **kwargs)

    monkeypatch.setattr(training_module, "predict_molecules", counting)
    cfg = FinetuneConfig(epochs=3, batch_size=32, hidden_dim=16, seed=1)
    result = finetune(dataset, cfg, encoder=SMALL_ENCODER, split=split)
    # One validation prediction per epoch, then one test prediction that
    # scores both RMSE and MAE.
    assert predicted == [4, 4, 4, 4]
    assert set(result.metrics) == {"rmse", "mae"}


def test_predict_molecules_contracts():
    model = make_model()
    with pytest.raises(ValueError):
        predict_molecules(model, [parse_smiles("C")])
    model = make_model(head=True)
    out = predict_molecules(model, [parse_smiles("C"), parse_smiles("CC")])
    assert out.shape == (2, 2)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_predict_molecules_denormalizes():
    model = make_model()
    model.add_head(HeadSpec(task_kind="regression", task_count=1), 5)
    graphs = [parse_smiles("CCO"), parse_smiles("CCC")]
    raw = predict_molecules(model, graphs)
    stats = TargetStats(np.array([10.0]), np.array([2.0]))
    scaled = predict_molecules(model, graphs, target_stats=stats)
    np.testing.assert_allclose(scaled, raw * 2.0 + 10.0, rtol=1e-6)


def test_write_trace_csv_requires_history(tmp_path):
    with pytest.raises(ValueError):
        write_trace_csv(tmp_path / "t.csv", [])


# -- atomic writes -----------------------------------------------------------


def test_failed_checkpoint_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model_to_checkpoint(make_model(seed=0)))
    before = path.read_bytes()

    def crc_fails(data):  # runs after the header, metadata and payload
        raise OSError("disk full")

    monkeypatch.setattr(training_module.zlib, "crc32", crc_fails)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model_to_checkpoint(make_model(seed=1)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    save_checkpoint(path, model_to_checkpoint(make_model(seed=1)))
    assert path.read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_failed_trace_write_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "trace.csv"
    rows = [training_module.EpochTrace(e, 1.0 / (e + 1), 0.5, 1e-3) for e in range(3)]
    write_trace_csv(path, rows)
    before = path.read_bytes()
    assert before.decode().splitlines()[0] == "epoch,train_loss,val_loss,lr"
    with pytest.raises(AttributeError):  # fails after the header and one row
        write_trace_csv(path, rows[:1] + [object()])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


# -- tape-free inference -----------------------------------------------------


def test_predict_molecules_equals_recording_forward_and_records_nothing(
    monkeypatch,
):
    model = make_model()
    model.add_head(HeadSpec(task_kind="regression", task_count=2), 1)  # raw values
    graphs = [parse_smiles(s) for s in ["CCO", "CCC", "c1ccccc1", "CC(=O)N"]]
    tape = ad.Tape()
    want = predict(tape, model, represent(tape, model, GraphBatch.from_graphs(graphs)))
    assert len(tape) > 0
    tapes = []

    class CountingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(training_module, "Tape", CountingTape)
    got = predict_molecules(model, graphs)
    assert got.tobytes() == np.asarray(want.data, dtype=np.float64).tobytes()
    assert tapes and all(len(t) == 0 for t in tapes)


def test_pretrain_validation_loss_equals_recording_forward(monkeypatch):
    corpus = unlabeled_corpus(40, seed=3)
    cfg = PretrainConfig(
        epochs=1, batch_size=8, warm_epochs=0, encoder=SMALL_ENCODER,
        val_fraction=0.25, seed=2,
    )
    calls = []
    original = training_module._contrastive_batch

    def spy(model, graphs, indices, cfg, epoch, tag, dropout_rng):
        tape, loss = original(model, graphs, indices, cfg, epoch, tag, dropout_rng)
        calls.append((tag, len(tape)))
        return tape, loss

    monkeypatch.setattr(training_module, "_contrastive_batch", spy)
    result = pretrain(corpus, cfg)
    monkeypatch.undo()
    val_records = [n for tag, n in calls if tag == training_module._TAG_VAL_AUGMENT]
    train_records = [n for tag, n in calls if tag == training_module._TAG_AUGMENT]
    assert val_records and all(n == 0 for n in val_records)
    assert train_records and all(n > 0 for n in train_records)

    # The same validation batches on the trainable model, recorded.
    perm = training_module.derive_rng(cfg.seed, training_module._TAG_SPLIT).permutation(40)
    val_idx = perm[: int(40 * cfg.val_fraction)]
    vals = []
    for start in range(0, len(val_idx), cfg.batch_size):
        chunk = val_idx[start : start + cfg.batch_size]
        if len(chunk) < 2:
            continue
        tape, loss = training_module._contrastive_batch(
            result.model, corpus, chunk, cfg, 0, training_module._TAG_VAL_AUGMENT, None
        )
        assert len(tape) > 0
        vals.append((float(loss.data), len(chunk)))
    want = sum(v * w for v, w in vals) / sum(w for _, w in vals)
    assert result.history[0].val_loss == want


def test_epoch_batches_follow_the_shuffle_and_dropout_streams():
    cfg = FinetuneConfig(batch_size=32, seed=5)
    indices = np.arange(100, 170)
    got = list(training_module._epoch_batches(cfg, indices, 3, dropout=True))
    order = indices[
        training_module.derive_rng(5, training_module._TAG_SHUFFLE, 3).permutation(70)
    ]
    assert [start for start, _, _ in got] == [0, 32, 64]
    np.testing.assert_array_equal(np.concatenate([chunk for _, chunk, _ in got]), order)
    for start, _, drop_rng in got:
        want = training_module.derive_rng(5, training_module._TAG_DROPOUT, 3, start)
        assert drop_rng.random() == want.random()
    assert all(rng is None for _, _, rng in training_module._epoch_batches(cfg, indices, 3, False))


def test_non_finite_losses_abort_with_their_batch(monkeypatch):
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(
        epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER,
        val_fraction=0.0, seed=0,
    )
    original = training_module._contrastive_batch

    def poisoned(model, graphs, indices, cfg, epoch, tag, dropout_rng):
        tape, loss = original(model, graphs, indices, cfg, epoch, tag, dropout_rng)
        if epoch == 1 and len(tape):
            loss = ad.scale(tape, loss, float("nan"))
        return tape, loss

    monkeypatch.setattr(training_module, "_contrastive_batch", poisoned)
    with pytest.raises(NumericAbort) as info:
        pretrain(corpus, cfg)
    assert str(info.value) == "non-finite contrastive loss at epoch 1, batch offset 0"

    original_sup = training_module._supervised_loss

    def poisoned_sup(model, inputs, labels, observed, basis, dropout_rng):
        tape, loss, count = original_sup(model, inputs, labels, observed, basis, dropout_rng)
        return tape, ad.scale(tape, loss, float("inf")), count

    monkeypatch.setattr(training_module, "_supervised_loss", poisoned_sup)
    with pytest.raises(NumericAbort) as info:
        finetune(
            oxygen_dataset(30, seed=6),
            FinetuneConfig(epochs=1, batch_size=32, hidden_dim=16),
            encoder=SMALL_ENCODER,
        )
    assert str(info.value) == "non-finite supervised loss at epoch 0, batch offset 0"
