"""Optimizer, schedule, checkpoints, and both training loops."""

import hashlib
import json
import math
import struct
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import molcontrast.training as training_module
from molcontrast import autodiff as ad
from molcontrast.augment import AugmentSpec
from molcontrast.datasets import LabeledDataset, Split, SplitAssignment, scaffold_split
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    embed_molecules,
    embed_nodes,
    predict,
    represent,
)
from molcontrast.errors import ConfigError, DataError, NumericAbort
from molcontrast.graph import MoleculeGraph
from molcontrast.smiles import CorpusRow, parse_smiles
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
import adam_oracle
import chain_ops
import supervised_oracle
from blas_core import corename
from golden_corpus import GOLDEN
from molgen import make_molecules, masked_dataset, oxygen_dataset, unlabeled_corpus
from test_autodiff import _CountingPool, _with_workers, needs_pinned_blas

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


def test_adam_flushes_subnormal_params_to_zero():
    # Decay alone sinks an idle weight into the float32 subnormals, where
    # products run several times slower; a step leaves none there.
    tiny = float(np.finfo(np.float32).tiny)
    p = ad.tensor([1e-39, -1e-44, 1.0, tiny], requires_grad=True)
    adam_step({"w": p}, {"w": np.zeros(4)}, AdamState(), lr=0.1)
    assert p.data.tolist() == [0.0, 0.0, 1.0, tiny]


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


def _adam_snapshot(params, state):
    return (
        [p.data.tobytes() for p in params.values()],
        state.m.tobytes(), state.v.tobytes(), state.step, state.layout,
    )


def test_adam_shape_mismatch():
    p = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        adam_step({"w": p}, {"w": np.zeros(3)}, AdamState(), lr=0.1)
    # A later parameter's bad gradient moves neither the earlier ones nor
    # the state, on a fresh state and on one that has taken steps.
    params = {"a": ad.tensor(np.ones(2)), "b": ad.tensor(np.ones(3))}
    fresh, stepped = AdamState(), AdamState()
    adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, stepped, lr=0.1)
    for state in (fresh, stepped):
        before = _adam_snapshot(params, state)
        with pytest.raises(ValueError, match="parameter b shape"):
            adam_step(params, {"a": np.ones(2), "b": np.ones(2)}, state, lr=0.1)
        assert _adam_snapshot(params, state) == before


@pytest.mark.parametrize(
    "bad",
    [np.ones((3, 2), dtype=np.float32).T, np.ones((2, 3))],  # a strided view; float64
    ids=["strided", "float64"],
)
def test_adam_rejects_parameters_it_cannot_tile(bad):
    # The update writes back through a flat float32 view of each parameter.
    params = {"a": ad.tensor(np.ones(2)), "b": ad.Tensor(bad)}
    state = AdamState()
    before = _adam_snapshot(params, state)
    with pytest.raises(ValueError, match="parameter b is not a C-contiguous float32"):
        adam_step(params, {"a": np.ones(2), "b": np.ones((2, 3))}, state, lr=0.1)
    assert _adam_snapshot(params, state) == before


def test_adam_state_keeps_its_parameter_layout():
    a, b = ad.tensor(np.ones(2)), ad.tensor(np.ones(3))
    state = AdamState()
    adam_step({"a": a, "b": b}, {"a": np.ones(2)}, state, lr=0.1)
    assert state.layout == (("a", (2,)), ("b", (3,))) and state.m.shape == (5,)
    for params in ({"a": a}, {"b": b, "a": a}, {"a": a, "b": ad.tensor(np.ones((3, 1)))}):
        before = _adam_snapshot(params, state)
        with pytest.raises(ValueError, match="layout"):
            adam_step(params, {"a": np.ones(2)}, state, lr=0.1)
        assert _adam_snapshot(params, state) == before


# The values a parameter or gradient may hold besides normal floats:
# NaN, +-inf, -0.0 and float32 subnormals, which a step flushes to +0.0.
_ADAM_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-39, -1e-44, 1.2e-38]


def _adam_values(rng, size, dtype):
    values = rng.standard_normal(size).astype(dtype)
    hit = rng.random(size) < 0.1
    values[hit] = rng.choice(_ADAM_SPECIALS, int(hit.sum())).astype(dtype)
    return values


def _nan_blind(a):
    """The bytes of ``a`` with every NaN replaced by one NaN.  When both
    operands of numpy's add or multiply are NaN, which one the result
    carries depends on where the element falls in the loop (the tail of
    an array takes the other operand's NaN), so re-cutting the arrays into
    tiles moves NaN signs and payloads; every other bit must stay.  A NaN
    never reaches an output: training aborts on a non-finite parameter."""
    a = np.array(a)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _adam_steps(step, shapes, grads, lr, weight_decay, state):
    """Fresh float32 parameters of ``shapes`` after ``step`` took each of
    ``grads``; returns the parameters and ``state``."""
    rng = np.random.default_rng(len(shapes))
    params = {
        name: ad.Tensor(_adam_values(rng, int(np.prod(shape)), np.float32).reshape(shape))
        for name, shape in shapes.items()
    }
    with np.errstate(all="ignore"):
        for g in grads:
            step(params, g, state, lr, weight_decay)
    return params, state


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_adam_matches_per_parameter_oracle_bitwise(data):
    # Several steps of the tiled update against the per-parameter one, byte
    # for byte in parameters and moments, on 1, 2 and 4 workers.  With
    # small tiles the tile length drops to 64 and the thread gate to 256
    # elements, so that small runs straddle both; otherwise sizes straddle
    # the real tile length.
    small = data.draw(st.booleans())
    sizes = (
        st.integers(0, 300) if small else st.sampled_from([1, 7, 2**15 - 1, 2**15, 2**15 + 1])
    )
    count = data.draw(st.integers(1, 5))
    shapes = {
        f"{'head' if data.draw(st.booleans()) else 'layers'}.{i}": (data.draw(sizes),)
        for i in range(count)
    }
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    grads = []
    for _ in range(data.draw(st.integers(1, 3))):
        names = [n for n in shapes if data.draw(st.booleans())]
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        grads.append({
            n: _adam_values(rng, shapes[n][0], dtype).reshape(shapes[n]) for n in names
        })
    head, base = 1e-3, 3e-4
    lr = data.draw(st.sampled_from(
        [1e-2, lambda name: head if name.startswith("head.") else base]
    ))
    weight_decay = data.draw(st.sampled_from([0.0, 1e-2]))
    expected, oracle = _adam_steps(
        adam_oracle.adam_step, shapes, grads, lr, weight_decay, adam_oracle.OracleState()
    )
    tile, gate = training_module._ADAM_TILE, training_module._ADAM_POOLED
    if small:
        training_module._ADAM_TILE, training_module._ADAM_POOLED = 1 << 6, 1 << 8
    try:
        for workers in (1, 2, 4):
            params, state = _with_workers(
                workers,
                lambda: _adam_steps(adam_step, shapes, grads, lr, weight_decay, AdamState()),
            )
            for name in shapes:
                got, want = params[name].data, expected[name].data
                assert _nan_blind(got) == _nan_blind(want), workers
            m, v = adam_oracle.flat_moments(expected, oracle)
            assert _nan_blind(state.m) == _nan_blind(m), workers
            assert _nan_blind(state.v) == _nan_blind(v), workers
            assert state.step == oracle.step
    finally:
        training_module._ADAM_TILE, training_module._ADAM_POOLED = tile, gate


@needs_pinned_blas
@pytest.mark.parametrize(
    "sizes, submitted",
    [
        ([2**20 - 1], []),  # one element under the gate: the calling thread only
        ([2**19, 2**19 - 7, 7], [8, 8, 8]),  # 32 tiles, one spanning two names
    ],
)
def test_adam_pools_tiles_only_above_the_gate(sizes, submitted):
    shapes = {f"w{i}": (size,) for i, size in enumerate(sizes)}
    grads = [{n: np.full(s, 0.5, np.float32) for n, s in shapes.items()}]
    expected, _ = _adam_steps(
        adam_oracle.adam_step, shapes, grads, 1e-3, 1e-2, adam_oracle.OracleState()
    )
    pool = _CountingPool(4)
    params, _ = _with_workers(
        4, lambda: _adam_steps(adam_step, shapes, grads, 1e-3, 1e-2, AdamState()), pool
    )
    assert pool.blocks == submitted  # tiles per pooled part; the caller runs the last
    for name in shapes:
        assert params[name].data.tobytes() == expected[name].data.tobytes()


@needs_pinned_blas
def test_adam_tiles_take_the_callers_error_state():
    # An infinite gradient makes every update inf / inf, which sets the
    # invalid flag in every tile; the suite turns the RuntimeWarning a
    # worker would print into an error.
    p = ad.tensor(np.ones(2**20))
    pool = _CountingPool(4)
    with np.errstate(invalid="ignore"):
        _with_workers(
            4, lambda: adam_step({"w": p}, {"w": np.full(2**20, np.inf)}, AdamState(), 0.1),
            pool,
        )
    assert pool.blocks == [8] * 3 and np.isnan(p.data).all()


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_pinned_blas)])
def test_adam_steps_reuse_their_scratch_rows(workers, monkeypatch):
    # Each thread allocates its scratch rows once; a later step reuses them.
    rows = training_module._adam_rows
    used: list[set] = []

    def spy():
        got = rows()
        used[-1].add(tuple(map(id, got)))
        return got

    monkeypatch.setattr(training_module, "_adam_rows", spy)
    p = ad.tensor(np.ones(2**20 + 1))  # over the gate: one part per worker
    state = AdamState()

    def steps():
        for _ in range(2):
            used.append(set())
            adam_step({"w": p}, {"w": np.ones(2**20 + 1)}, state, 1e-3)

    _with_workers(workers, steps)
    assert len(used[0]) == workers and used[1] == used[0]


@pytest.mark.parametrize(
    "workers, size", [(1, 5), pytest.param(2, 2**19, marks=needs_pinned_blas)]
)
def test_adam_step_names_the_first_parameter_it_left_non_finite(workers, size):
    # A NaN gradient in the second of three parameters names that one, also
    # when the third goes non-finite too: on two workers the third's tiles
    # run in the other part, which may report first.
    params = {name: ad.tensor(np.ones(size)) for name in ("a", "b", "c")}
    grads = {name: np.ones(size) for name in params}
    state = AdamState()

    def step():
        with np.errstate(all="ignore"):
            return adam_step(params, grads, state, 1e-3)

    assert _with_workers(workers, step) is None
    grads["b"][0] = np.nan
    assert _with_workers(workers, step) == "b"
    grads["c"][-1] = np.inf
    assert _with_workers(workers, step) == "b"
    assert np.isnan(params["b"].data[0]) and np.isfinite(params["a"].data).all()


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


def _edit_directory(path, edit):
    """Rewrite ``path``'s tensor directory with ``edit(entries)``, keeping
    its payload and checksum, which cover the payload only."""
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    meta = json.loads(blob[20 : 20 + meta_len])
    edit(meta["tensors"])
    text = json.dumps(meta).encode()
    path.write_bytes(blob[:12] + struct.pack("<Q", len(text)) + text + blob[20 + meta_len :])


@pytest.mark.parametrize(
    "case", ["overlap", "gap", "out_of_order", "repeated_name"]
)
def test_checkpoint_directory_must_tile_the_payload(tmp_path, case):
    # Three 16-byte tensors end to end; any other directory is corrupt even
    # though the payload checksum still matches.
    arrays = {k: np.arange(4 * i, 4 * i + 4, dtype=np.float32) for i, k in enumerate("abc")}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Checkpoint({"epoch": 1}, arrays))
    _edit_directory(path, lambda entries: None)
    np.testing.assert_array_equal(load_checkpoint(path).arrays["b"], [4, 5, 6, 7])

    def edit(entries):
        if case == "overlap":
            entries[1]["offset"] = 12
        elif case == "gap":
            entries[1]["offset"] = 20
            entries[1]["shape"] = [3]
        elif case == "out_of_order":
            entries.reverse()
        else:
            entries[2]["name"] = "a"

    _edit_directory(path, edit)
    with pytest.raises(CorruptCheckpointError, match="twice" if case == "repeated_name" else "not "):
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


PACK_FIELDS = {
    "node_atomic", "node_chirality", "bond_u", "bond_v", "bond_type", "bond_dir",
    "atom_start", "bond_start",
}


@pytest.mark.parametrize("loop", ["pretrain", "finetune", "finetune_augmented"])
def test_training_gathers_from_its_pack_without_deriving_rows(loop, monkeypatch):
    # The pack keeps only what from_graphs stored: its views, not the pack,
    # build the directed rows, node_graph and the plans.
    packs = []

    class Recorded(GraphBatch):
        @classmethod
        def from_graphs(cls, graphs):
            packs.append(super().from_graphs(graphs))
            return packs[-1]

    monkeypatch.setattr(training_module, "GraphBatch", Recorded)
    if loop == "pretrain":
        cfg = PretrainConfig(epochs=2, batch_size=4, warm_epochs=0,
                             encoder=SMALL_ENCODER, val_fraction=0.25, seed=7)
        pretrain(unlabeled_corpus(12, seed=1), cfg)
    else:
        augment = AugmentSpec(strategy="compose_all") if loop == "finetune_augmented" else None
        cfg = FinetuneConfig(epochs=2, batch_size=32, hidden_dim=16, seed=0)
        finetune(oxygen_dataset(50, seed=4), cfg, encoder=SMALL_ENCODER, augment=augment)
    assert len(packs) == 1 and set(vars(packs[0])) == PACK_FIELDS


class _Sealable(list):
    """A list of graphs that fails every read once it is sealed."""

    sealed = False

    def _check(self):
        assert not self.sealed, "a graph was read after packing"

    def __getitem__(self, k):
        self._check()
        return super().__getitem__(k)

    def __iter__(self):
        self._check()
        return super().__iter__()

    def __len__(self):
        self._check()
        return super().__len__()


@pytest.mark.parametrize("strategy", ["subgraph", "compose_all", "mask_delete"])
def test_pretrain_reads_no_graph_after_packing(strategy, monkeypatch):
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER,
                         val_fraction=0.25, seed=7, augment=AugmentSpec(strategy))
    want = pretrain(corpus, cfg)

    class Sealing(GraphBatch):
        @classmethod
        def from_graphs(cls, graphs):
            pack = super().from_graphs(graphs)
            graphs.sealed = True
            return pack

    monkeypatch.setattr(training_module, "GraphBatch", Sealing)
    graphs = _Sealable(corpus)
    got = pretrain(graphs, cfg)
    assert graphs.sealed
    assert got.history == want.history
    for name, arr in want.checkpoint.arrays.items():
        assert got.checkpoint.arrays[name].tobytes() == arr.tobytes()


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
    a = pretrain(corpus, cfg)
    write_trace_csv(trace, a.history)
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


def _watch_tapes(monkeypatch, name):
    """Wrap a training function that returns (tape, ...) so every call first
    checks that no tape an earlier call returned is still alive."""
    real = getattr(training_module, name)
    tapes = []

    def watched(*args, **kwargs):
        assert all(ref() is None for ref in tapes), "an earlier tape is still alive"
        out = real(*args, **kwargs)
        tapes.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(training_module, name, watched)
    return tapes


def test_pretrain_frees_each_tape_before_the_next_step(monkeypatch):
    tapes = _watch_tapes(monkeypatch, "_contrastive_batch")
    cfg = PretrainConfig(
        epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER,
        val_fraction=0.25, seed=3,
    )
    pretrain(unlabeled_corpus(16, seed=2), cfg)
    assert len(tapes) == 2 * (3 + 1)  # three training and one validation batch


def test_finetune_frees_each_tape_before_the_next_step(monkeypatch):
    tapes = _watch_tapes(monkeypatch, "_supervised_loss")
    cfg = FinetuneConfig(epochs=2, batch_size=32, hidden_dim=16, seed=0)
    finetune(oxygen_dataset(100, seed=4), cfg, encoder=SMALL_ENCODER)
    assert len(tapes) >= 4


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_fine_tune_loss_and_node_embedding_are_one_record_each(kind):
    # A step of a 3-layer GIN with a one-hidden-layer head records the node
    # embedding, three records per layer (aggregate, two linears), the
    # readout, the head's two linears and the loss: 14 in both kinds.
    model = EncoderModel.initialize(EncoderConfig(num_layers=3, hidden_dim=16, latent_dim=8), 0)
    model.add_head(HeadSpec(kind, 2, hidden_layers=1, hidden_dim=8), 1)
    batch = GraphBatch.from_graphs([parse_smiles(s) for s in ("CCO", "c1ccncc1", "CC(=O)N")])
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    observed = np.array([[True, False], [True, True], [False, True]])
    tape = ad.Tape()
    embed_nodes(tape, model, batch)
    assert len(tape) == 1
    rng = np.random.default_rng(0)
    tape, loss, count = training_module._supervised_loss(model, batch, labels, observed, rng)
    assert len(tape) == 14 and tape._records[-1].out == loss.key and count == 4


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["classification", "regression"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fine_tune_loss_matches_the_chain_of_generic_records_bitwise(dtype, kind, tasks, n, seed):
    # Random missing-label masks (none seen, some, all), logits scaled past
    # softplus's linear branch at 30, and a fifth of the differences
    # (l1 - l0, or output minus float32 label) exactly 0.
    rng = np.random.default_rng(seed)
    observed = rng.random((n, tasks)) < rng.choice([0.0, 0.5, 1.0])
    tie = rng.random((n, tasks)) < 0.2
    if kind == "classification":
        labels = rng.integers(0, 2, (n, tasks)).astype(np.float64)
        out0 = rng.standard_normal((n, 2 * tasks)) * 10.0 ** rng.uniform(-2, 2)
        out0[:, 1::2][tie] = out0[:, 0::2][tie]
    else:
        labels = rng.standard_normal((n, tasks)) * 2
        out0 = rng.standard_normal((n, tasks)) * 2
        out0[tie] = labels.astype(np.float32)[tie]
    got = []
    for loss_fn in (training_module._masked_loss, supervised_oracle.masked_loss):
        tape = ad.Tape()
        out = ad.tensor(out0, requires_grad=True, dtype=dtype)
        loss = loss_fn(tape, out, labels, observed, kind)
        dout = ad.backward(tape, loss)[out]
        got.append((np.asarray(loss.data).tobytes(), loss.data.dtype, dout.dtype, dout.tobytes()))
    assert got[0] == got[1]


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


def _size_dataset(observed: np.ndarray) -> LabeledDataset:
    """24 molecules labeled with their atom counts, observed where ``observed``."""
    rows = [CorpusRow(i, s, g) for i, (s, g) in enumerate(make_molecules(24, seed=6))]
    labels = np.array([[float(r.graph.num_nodes)] for r in rows])
    return LabeledDataset("regression", ("size",), rows, labels, observed)


def test_regression_finetune_predicts_the_test_split_once(monkeypatch):
    dataset = _size_dataset(np.ones((24, 1), dtype=bool))
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


def test_finetune_skips_batches_without_an_observed_label():
    # No training molecule has a label: every batch is skipped, so nothing
    # moves and each epoch's training loss is the mean of no batch, NaN.
    dataset = _size_dataset(np.arange(24)[:, None] >= 16)
    split = SplitAssignment(tuple([Split.TRAIN] * 16 + [Split.VALID] * 4 + [Split.TEST] * 4))
    ckpt = model_to_checkpoint(EncoderModel.initialize(SMALL_ENCODER, np.random.default_rng(2)))
    cfg = FinetuneConfig(epochs=3, batch_size=32, hidden_dim=16, seed=1)
    result = finetune(dataset, cfg, checkpoint=ckpt, split=split)
    assert len(result.history) == 3
    assert all(math.isnan(row.train_loss) for row in result.history)

    start = model_from_checkpoint(ckpt)
    start.add_head(
        HeadSpec("regression", 1, cfg.n_layer, cfg.hidden_dim, cfg.activation, cfg.dropout),
        training_module.derive_rng(cfg.seed, training_module._TAG_HEAD_INIT),
    )
    want = start.state_arrays()
    got = result.model.state_arrays()
    assert got.keys() == want.keys()
    for name, arr in want.items():
        np.testing.assert_array_equal(got[name], arr, err_msg=name)


def test_inference_packs_no_relu_gates(monkeypatch):
    # A ReLU keeps its one-bit gate only when it is recorded; embedding and
    # prediction record nothing, so they pack nothing.
    calls = []
    real = np.packbits

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "packbits", spy)
    model = make_model(head=True)
    graphs = [parse_smiles(s) for s in ("CCO", "c1ccccc1", "CC(=O)O")]
    embed_molecules(model, graphs)
    predict_molecules(model, graphs)
    assert calls == []
    # The same forward on the trainable parameters records, and packs one
    # gate per fused ReLU: both of the first layer's, one of the last's.
    batch = GraphBatch.from_graphs(graphs)
    represent(ad.Tape(), model, batch)
    h = SMALL_ENCODER.hidden_dim
    assert calls == [(batch.num_nodes, 2 * h), (batch.num_nodes, h), (batch.num_nodes, 2 * h)]


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

    def spy(model, pack, rows, indices, cfg, epoch, tag, dropout_rng):
        tape, loss = original(model, pack, rows, indices, cfg, epoch, tag, dropout_rng)
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
    pack = GraphBatch.from_graphs(corpus)
    rows = training_module._pack_rows(pack)
    vals = []
    for start in range(0, len(val_idx), cfg.batch_size):
        chunk = val_idx[start : start + cfg.batch_size]
        if len(chunk) < 2:
            continue
        tape, loss = training_module._contrastive_batch(
            result.model, pack, rows, chunk, cfg, 0,
            training_module._TAG_VAL_AUGMENT, None,
        )
        assert len(tape) > 0
        vals.append((float(loss.data), len(chunk)))
    want = sum(v * w for v, w in vals) / sum(w for _, w in vals)
    assert result.history[0].val_loss == want


def test_epoch_batches_follow_the_shuffle_and_dropout_streams():
    cfg = FinetuneConfig(batch_size=32, seed=5)
    indices = np.arange(100, 170)
    got = list(training_module._epoch_batches(cfg, indices, 3))
    order = indices[
        training_module.derive_rng(5, training_module._TAG_SHUFFLE, 3).permutation(70)
    ]
    assert [start for start, _, _ in got] == [0, 32, 64]
    np.testing.assert_array_equal(np.concatenate([chunk for _, chunk, _ in got]), order)
    for start, _, drop_rng in got:
        want = training_module.derive_rng(5, training_module._TAG_DROPOUT, 3, start)
        np.testing.assert_array_equal(drop_rng.random(8), want.random(8))


def test_non_finite_losses_abort_with_their_batch(monkeypatch):
    corpus = unlabeled_corpus(12, seed=1)
    cfg = PretrainConfig(
        epochs=2, batch_size=4, warm_epochs=0, encoder=SMALL_ENCODER,
        val_fraction=0.0, seed=0,
    )
    original = training_module._contrastive_batch

    def poisoned(model, pack, rows, indices, cfg, epoch, tag, dropout_rng):
        tape, loss = original(model, pack, rows, indices, cfg, epoch, tag, dropout_rng)
        if epoch == 1 and len(tape):
            loss = chain_ops.scale(tape, loss, float("nan"))
        return tape, loss

    monkeypatch.setattr(training_module, "_contrastive_batch", poisoned)
    with pytest.raises(NumericAbort) as info:
        pretrain(corpus, cfg)
    assert str(info.value) == "non-finite contrastive loss at epoch 1, batch offset 0"

    original_sup = training_module._supervised_loss

    def poisoned_sup(model, inputs, labels, observed, dropout_rng):
        tape, loss, count = original_sup(model, inputs, labels, observed, dropout_rng)
        return tape, chain_ops.scale(tape, loss, float("inf")), count

    monkeypatch.setattr(training_module, "_supervised_loss", poisoned_sup)
    with pytest.raises(NumericAbort) as info:
        finetune(
            oxygen_dataset(30, seed=6),
            FinetuneConfig(epochs=1, batch_size=32, hidden_dim=16),
            encoder=SMALL_ENCODER,
        )
    assert str(info.value) == "non-finite supervised loss at epoch 0, batch offset 0"


@pytest.mark.parametrize("strategy", ["mask_delete", "compose_all"])
def test_training_builds_no_view_graph(strategy, monkeypatch):
    # Views are gathered from the packed corpus, never built as graphs.
    corpus = unlabeled_corpus(16, seed=2)
    dataset = oxygen_dataset(30, seed=6)
    split = scaffold_split(dataset.graphs())
    spec = AugmentSpec(strategy=strategy)

    def refuse(self):
        raise AssertionError("a MoleculeGraph was built")

    monkeypatch.setattr(MoleculeGraph, "__post_init__", refuse)
    pretrain(corpus, PretrainConfig(
        epochs=2, batch_size=4, warm_epochs=0, augment=spec, encoder=SMALL_ENCODER,
        val_fraction=0.25, seed=3,
    ))
    finetune(
        dataset, FinetuneConfig(epochs=1, batch_size=32, hidden_dim=16),
        encoder=SMALL_ENCODER, split=split, augment=spec,
    )
    with pytest.raises(AssertionError, match="was built"):
        parse_smiles("CCO")


# -- pinned training outputs -------------------------------------------------

PIN_ENCODER = EncoderConfig(num_layers=2, hidden_dim=16, latent_dim=8)
PIN_RATIOS = dict(mask_ratio=0.3, delete_ratio=0.3, subgraph_ratio=0.3)
# Digests per OpenBLAS kernel family (``blas_core.corename()``): each sgemm
# kernel rounds its products its own way.  A family with no entry checks
# only that a rerun in the same process gives the same digest.
PINNED_PRETRAIN = {
    "SkylakeX": {
        "mask_delete": "08f14150e75fccc43630924ef085179707c90a8fd686262837f78bf4b2b26a9a",
        "subgraph_random": "b9b37b6bc9d171f2c327da2d7486c55c2392ea58b88a9cfa09ac2bf3ff0d529e",
        "subgraph": "90a9998c79e8f54cc83affb0494d9ff15783d1da51204ce41ee78e3799ddd7b7",
        "compose_all": "bfa730525f17c7f25ce8f8463c6f5d5c1a2df525351999ca958692371a55df8e",
        "gcn-dropout-val": "5fde8e14b427ee57521b053716402519d78ab01af83bdcf4af0df9990c5e364f",
    },
    "Haswell": {
        "mask_delete": "89731e0a6a7a4dce1449ddb64b1a609884a9bd737b7b3840cd8bdfa5ee26e4db",
        "subgraph_random": "32d6867b6c30e27cbe4252fd229d7013af95842e6554a0a516262af72e45d78e",
        "subgraph": "a1522c452ec1e718116d31d0a6d5922191a80381b9125ef896951b796421e60c",
        "compose_all": "ea05258dc1b2a06f3f4397830496792bab93627fe5582bd3efe7e3f79046f5e2",
        "gcn-dropout-val": "c4f50aeb944721c96644520800f6ab804df6ede9dd3a68fa1e37c754e8630ce1",
    },
    "Sandybridge": {
        "mask_delete": "ec5dd327fa8b670c9ed86ad20d5b5972dab4e7f423584f6d46af2294ceb57128",
        "subgraph_random": "b79dcd0e2debd96c7ad8beb54a2830a0816a44f2270be6a8c6a0cdcff8c754f5",
        "subgraph": "94b58c9380125f21032542984e58ad05b78ce24eb19fb88a19456fca7b5fd238",
        "compose_all": "0ce8723c10011e86d386439fa5227916b474f8127403365488ad19c33b0b25ba",
        "gcn-dropout-val": "cecbe50dcd1d21eb6f1436e092099b59a6533383e83754c56247c71b4b30a5c4",
    },
}
PINNED_FINETUNE = {
    "SkylakeX": {
        "plain": "c9bfab88aba2c5da71b0c77bb6b1c4d545c07eb6a51d55626d0b49def66e6624",
        "compose_all": "edf573a7b8b54e9063e05e0b2ee464af8663963f94528d27b39b9bc85896b586",
        "masked_classification": "b54c22513344501fd6fe7bf0221a5be04b08eb71db1960d2b4edd57f74242a05",
        "masked_regression": "5f5b7dfba9273a286935ed2bbce4b7c982341a50d7c7f4d307c5f97303ff6367",
    },
    "Haswell": {
        "plain": "15a95b60b713fb2be2d8f233d189f0373049b415d65ab9eb3ff2cccfa6759cc2",
        "compose_all": "91cd6cd1aacec990c64b19f74ad3927fbffede667d2700f9bb26727348af99a4",
        "masked_classification": "2f6409d389896f43da1bc94f3be26d4a5a08362ce4b090ae169cfe237f983044",
        "masked_regression": "84203129344f67696cfb1c046c44e47fd82b3f51589b21ba3ae0e7ac1ac878e3",
    },
    "Sandybridge": {
        "plain": "208f2115107445deece1c2e0646bf93fc33f41240f18d43f97397c21127eb09f",
        "compose_all": "aef7079bdd867c1fda294923666b315757debc529958acc2659afaab216fd474",
        "masked_classification": "bfbf4626a83efe7d2624c6a67324d45bbf2903993288a4b0e26555b6566ef70f",
        "masked_regression": "4158007e94bd81bb2320d25231cdc52e95cfc12f1356fe6c313d60b874bd4a49",
    },
}


def _training_digest(arrays, history) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = arrays[name]
        digest.update(f"{name} {arr.dtype} {arr.shape}".encode())
        digest.update(arr.tobytes())
    digest.update(repr(history).encode())
    return digest.hexdigest()


def _rows(history) -> list[tuple]:
    return [tuple(vars(row).values()) for row in history]


def _assert_pinned(table, case, digest):
    """``digest()`` against its entry for this process's OpenBLAS kernel."""
    got, core = digest(), corename()
    if core not in table:
        assert digest() == got
        pytest.skip(f"no pinned digests for the OpenBLAS {core} kernels")
    assert got == table[core][case]


def _pretrain_digest(case) -> str:
    """Checkpoint arrays and loss history of a small pre-training run on
    molgen molecules plus the golden corpus (edgeless ions, / and \\ bonds)."""
    corpus = unlabeled_corpus(48, seed=9) + [parse_smiles(g.smiles) for g in GOLDEN]
    if case == "gcn-dropout-val":
        cfg = PretrainConfig(
            epochs=2, batch_size=8, lr=5e-3, warm_epochs=0,
            encoder=EncoderConfig(
                backbone="gcn", num_layers=2, hidden_dim=16, latent_dim=8, dropout=0.1
            ),
            val_fraction=0.25, seed=5,
        )
    else:
        cfg = PretrainConfig(
            epochs=3, batch_size=8, lr=5e-3, warm_epochs=0,
            augment=AugmentSpec(strategy=case, **PIN_RATIOS),
            encoder=PIN_ENCODER, val_fraction=0.1, seed=4,
        )
    result = pretrain(corpus, cfg)
    return _training_digest(result.checkpoint.arrays, _rows(result.history))


def _finetune_digest(case) -> str:
    """Model arrays, history and test metric of a small fine-tuning run:
    one-task classification with every label seen ("plain", "compose_all"),
    and two tasks with missing labels masked."""
    augment = AugmentSpec(strategy=case) if case == "compose_all" else None
    dataset = (
        masked_dataset(60, seed=6, task_kind=case.removeprefix("masked_"))
        if case.startswith("masked_")
        else oxygen_dataset(60, seed=6)
    )
    result = finetune(
        dataset,
        FinetuneConfig(epochs=3, batch_size=32, hidden_dim=16, dropout=0.1, seed=3),
        encoder=PIN_ENCODER,
        augment=augment,
    )
    history = _rows(result.history) + [result.test_metric, result.best_epoch]
    return _training_digest(result.model.state_arrays(), history)


@pytest.mark.parametrize("case", sorted(PINNED_PRETRAIN["SkylakeX"]))
def test_pretrain_outputs_are_pinned(case):
    _assert_pinned(PINNED_PRETRAIN, case, lambda: _pretrain_digest(case))


@pytest.mark.parametrize("case", sorted(PINNED_FINETUNE["SkylakeX"]))
def test_finetune_outputs_are_pinned(case):
    _assert_pinned(PINNED_FINETUNE, case, lambda: _finetune_digest(case))
