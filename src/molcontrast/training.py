"""Optimization and training: Adam, cosine schedule, contrastive
pre-training, supervised fine-tuning, and binary checkpoints.

Both loops are deterministic functions of (data, config, seed).  Every
stochastic choice (validation split, epoch shuffles, augmentation draws,
dropout masks) runs on its own stream derived from the config seed and a
fixed tag, so no consumer can perturb another.

A checkpoint holds model parameters and the config that rebuilds the
model, and no optimizer state: it cannot resume a training run.

The checkpoint file layout, all little-endian:

    8 bytes   magic "MOLCLRCK"
    u32       format version
    u64       metadata length
    ...       UTF-8 JSON metadata: config dict + tensor directory
              (name, shape, byte offset into payload)
    ...       raw float32 tensor payload, concatenated
    u32       CRC-32 of the payload
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .augment import AugmentSpec, augment_pair, augment_view, derive_rng
from .autodiff import Tape, Tensor, backward
from .contrastive import ContrastiveConfig, nt_xent
from .datasets import (
    LabeledDataset,
    SplitAssignment,
    UndefinedMetric,
    mae,
    mean_task_metric,
    rmse,
    roc_auc,
    scaffold_split,
)
from .encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    HeadSpec,
    check_head_fields,
    frozen_batches,
    parameter_layout,
    predict,
    project,
    represent,
)
from .errors import ConfigError, DataError, NumericAbort
from .fileio import atomic_write, write_csv
from .graph import MoleculeGraph

__all__ = [
    "AdamState",
    "adam_step",
    "lr_at",
    "PretrainConfig",
    "EpochTrace",
    "PretrainResult",
    "pretrain",
    "FinetuneConfig",
    "REGRESSION_METRICS",
    "FinetuneEpochTrace",
    "TargetStats",
    "FinetuneResult",
    "finetune",
    "predict_molecules",
    "write_trace_csv",
    "Checkpoint",
    "CheckpointError",
    "CorruptCheckpointError",
    "CheckpointVersionError",
    "model_to_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

# Stream tags; every rng in this module is derive_rng(seed, tag, ...).
_TAG_SPLIT = 900
_TAG_INIT = 901
_TAG_SHUFFLE = 902
_TAG_AUGMENT = 903
_TAG_VAL_AUGMENT = 904
_TAG_DROPOUT = 905
_TAG_HEAD_INIT = 911
_TAG_FT_AUGMENT = 912


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, float64 for stable long runs."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float | Callable[[str], float],
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update in place; only parameters named in ``grads`` move.

    Weight decay is L2-coupled: wd * param is added to the gradient
    before the moment updates.  ``lr`` may be a callable mapping the
    parameter name to a rate, which is how head and backbone get
    different learning rates during fine-tuning.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in params:
        if name not in grads:
            continue
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} shape {p.data.shape}"
            )
        if weight_decay:
            g = g + weight_decay * p.data.astype(np.float64)
        if name not in state.m:
            state.m[name] = np.zeros(p.data.shape, dtype=np.float64)
            state.v[name] = np.zeros(p.data.shape, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        rate = lr(name) if callable(lr) else lr
        update = rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.data -= update.astype(p.data.dtype)


def lr_at(epoch: int, epochs: int, lr: float, warm_epochs: int = 0) -> float:
    """Flat rate for ``warm_epochs``, then cosine decay to 0 at ``epochs``."""
    if epoch < 0 or epoch > epochs:
        raise ValueError(f"epoch {epoch} outside [0, {epochs}]")
    if epoch < warm_epochs or epochs == warm_epochs:
        return lr
    span = epochs - warm_epochs
    return lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - warm_epochs) / span))


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = b"MOLCLRCK"
CHECKPOINT_VERSION = 1


class CheckpointError(DataError):
    """Checkpoint file cannot be read."""


class CorruptCheckpointError(CheckpointError):
    """Structure or checksum damage."""


class CheckpointVersionError(CheckpointError):
    """Format version not supported by this reader."""


@dataclass
class Checkpoint:
    """JSON-able config plus named float32 tensors."""

    config: dict
    arrays: dict[str, np.ndarray]
    version: int = CHECKPOINT_VERSION


def model_to_checkpoint(
    model: EncoderModel,
    epoch: int = 0,
    extra: Mapping[str, object] | None = None,
) -> Checkpoint:
    config: dict = {"encoder": asdict(model.config), "epoch": epoch}
    if model.head is not None:
        config["head"] = asdict(model.head)
    if extra:
        config.update(extra)
    arrays = {
        name: arr.astype(np.float32, copy=True)
        for name, arr in model.state_arrays().items()
    }
    return Checkpoint(config, arrays)


def model_from_checkpoint(ckpt: Checkpoint) -> EncoderModel:
    """A model owning copies of the checkpoint's parameters.

    Training updates parameters in place, so the copy keeps ``ckpt`` intact.
    The checkpoint must hold exactly the tensors, by name and shape, of the
    model its config builds (:func:`~molcontrast.encoder.parameter_layout`),
    all finite; anything else is a :class:`CheckpointError`.  Files of
    earlier versions still load: their Adam moments (``adam.*``) are
    skipped, and their encoder config's ``gin_epsilon`` must be 0.
    """
    encoder = ckpt.config.get("encoder")
    if not isinstance(encoder, dict):
        raise CheckpointError("checkpoint config has no encoder")
    encoder = dict(encoder)
    if encoder.pop("gin_epsilon", 0.0) != 0.0:
        raise CheckpointError("checkpoint has a GIN epsilon other than 0")
    head = ckpt.config.get("head")
    arrays = {n: a for n, a in ckpt.arrays.items() if not n.startswith("adam.")}
    params: dict[str, Tensor] = {}
    try:
        cfg = EncoderConfig(**encoder)
        spec = None if head is None else HeadSpec(**head)
        for name, shape in parameter_layout(cfg, spec):
            if name not in arrays:
                raise CheckpointError(f"checkpoint has no tensor {name}")
            if arrays[name].shape != shape:
                raise CheckpointError(
                    f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                    f"its config needs {shape}"
                )
            params[name] = ad.tensor(arrays[name].copy(), requires_grad=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint does not build a model: {exc}") from exc
    extra = sorted(set(arrays) - set(params))
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensors: {', '.join(extra)}")
    return EncoderModel(cfg, params, spec)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    payload = bytearray()
    directory = []
    for name, arr in ckpt.arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        directory.append(
            {"name": name, "shape": list(a.shape), "offset": len(payload)}
        )
        payload += a.tobytes()
    meta = json.dumps(
        {"config": ckpt.config, "tensors": directory}, sort_keys=True
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header = len(CHECKPOINT_MAGIC) + 4 + 8
    if len(data) < header:
        raise CorruptCheckpointError(f"{path}: truncated header")
    if data[:8] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic {data[:8]!r}")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, reader supports "
            f"{CHECKPOINT_VERSION}"
        )
    (meta_len,) = struct.unpack_from("<Q", data, 12)
    body = header + meta_len
    if len(data) < body + 4:
        raise CorruptCheckpointError(f"{path}: truncated metadata or payload")
    try:
        meta = json.loads(data[header:body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable metadata") from exc
    payload = memoryview(data)[body:-4]
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CorruptCheckpointError(f"{path}: payload checksum mismatch")
    if not (
        isinstance(meta, dict)
        and isinstance(meta.get("config"), dict)
        and isinstance(meta.get("tensors"), list)
    ):
        raise CorruptCheckpointError(f"{path}: metadata lacks a config or tensor list")
    arrays: dict[str, np.ndarray] = {}
    expected = 0
    for i, entry in enumerate(meta["tensors"]):
        if not _is_directory_entry(entry):
            raise CorruptCheckpointError(f"{path}: bad tensor directory entry {i}")
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        count = math.prod(shape)
        if offset + count * 4 > len(payload):
            raise CorruptCheckpointError(f"{path}: tensor {name} overruns payload")
        try:
            arrays[name] = (
                np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
                .reshape(shape)
                .copy()
            )
        except ValueError as exc:  # more dimensions than numpy supports
            raise CorruptCheckpointError(f"{path}: tensor {name}: {exc}") from exc
        expected = max(expected, offset + count * 4)
    if expected != len(payload):
        raise CorruptCheckpointError(f"{path}: payload length mismatch")
    return Checkpoint(meta["config"], arrays, version)


def _is_directory_entry(entry) -> bool:
    """Whether ``entry`` has a string name, a list of sizes and an offset,
    every number an int >= 0."""
    def size(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(size(d) for d in entry["shape"])
        and size(entry.get("offset"))
    )


# ---------------------------------------------------------------------------
# Pre-training


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 50
    batch_size: int = 512
    lr: float = 5e-4
    warm_epochs: int = 10
    weight_decay: float = 1e-5
    temperature: float = 0.1
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    val_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if not 0 <= self.warm_epochs <= self.epochs:
            raise ConfigError(
                f"warm_epochs {self.warm_epochs} outside [0, {self.epochs}]"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}"
            )


@dataclass(frozen=True)
class EpochTrace:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class PretrainResult:
    model: EncoderModel
    history: list[EpochTrace]
    checkpoint: Checkpoint


def write_trace_csv(path: str | Path, history: Sequence[object]) -> None:
    """One CSV row per epoch; columns are the trace dataclass fields."""
    if not history:
        raise ValueError("empty history")
    names = [f.name for f in fields(history[0])]
    write_csv(path, names, ([getattr(row, n) for n in names] for row in history))


def _epoch_batches(cfg, indices: np.ndarray, epoch: int, dropout: bool):
    """(offset, indices, dropout stream or None) of each batch of
    ``cfg.batch_size`` training molecules, in this epoch's shuffled order."""
    order = indices[derive_rng(cfg.seed, _TAG_SHUFFLE, epoch).permutation(len(indices))]
    for start in range(0, len(order), cfg.batch_size):
        drop_rng = derive_rng(cfg.seed, _TAG_DROPOUT, epoch, start) if dropout else None
        yield start, order[start : start + cfg.batch_size], drop_rng


def _optimizer_step(
    model: EncoderModel, tape: Tape, loss: Tensor, state: AdamState,
    lr: float | Callable[[str], float], weight_decay: float,
    kind: str, epoch: int, start: int,
) -> float:
    """Abort on a non-finite loss, else back-propagate it and take one Adam
    step on every parameter that received a gradient; returns the loss."""
    value = float(loss.data)
    if not math.isfinite(value):
        raise NumericAbort(
            f"non-finite {kind} loss at epoch {epoch}, batch offset {start}"
        )
    grads = backward(tape, loss)
    named = {name: grads[t] for name, t in model.params.items() if t in grads}
    adam_step(model.params, named, state, lr, weight_decay)
    return value


def _contrastive_batch(
    model: EncoderModel,
    graphs: Sequence[MoleculeGraph],
    indices: Sequence[int],
    cfg: PretrainConfig,
    epoch: int,
    tag: int,
    dropout_rng: np.random.Generator | None,
) -> tuple[Tape, Tensor]:
    views: list[MoleculeGraph] = []
    for i in indices:
        rng = derive_rng(cfg.seed, tag, epoch, int(i))
        a, b = augment_pair(graphs[int(i)], cfg.augment, rng, int(i))
        views.append(a.graph)
        views.append(b.graph)
    batch = GraphBatch.from_graphs(views)
    tape = Tape()
    training = dropout_rng is not None and cfg.encoder.dropout > 0
    h = represent(tape, model, batch, training=training, rng=dropout_rng)
    z = project(tape, model, h)
    loss = nt_xent(
        tape, z, ContrastiveConfig(cfg.temperature, len(indices))
    )
    return tape, loss


def pretrain(
    graphs: Sequence[MoleculeGraph],
    cfg: PretrainConfig,
    trace_path: str | Path | None = None,
) -> PretrainResult:
    """Contrastive pre-training over an unlabeled corpus.

    Splits 95/5 (by ``val_fraction``) into train/validation, then per
    epoch: shuffle, batch, two augmented views per molecule, encode,
    project, NT-Xent, backward, Adam.  Final batches smaller than 2
    molecules are dropped.  Returns the trained model, the per-epoch
    loss trace, and a checkpoint of the final parameters.
    """
    n = len(graphs)
    if n < 2:
        raise DataError(f"pre-training needs >= 2 molecules, got {n}")
    perm = derive_rng(cfg.seed, _TAG_SPLIT).permutation(n)
    n_val = min(int(n * cfg.val_fraction), n - 2)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    model = EncoderModel.initialize(cfg.encoder, derive_rng(cfg.seed, _TAG_INIT))
    state = AdamState()
    history: list[EpochTrace] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.epochs, cfg.lr, cfg.warm_epochs)
        total = 0.0
        seen = 0
        batches = _epoch_batches(cfg, train_idx, epoch, cfg.encoder.dropout > 0)
        for start, chunk, drop_rng in batches:
            if len(chunk) < 2:
                continue
            tape, loss = _contrastive_batch(
                model, graphs, chunk, cfg, epoch, _TAG_AUGMENT, drop_rng
            )
            value = _optimizer_step(
                model, tape, loss, state, lr, cfg.weight_decay,
                "contrastive", epoch, start,
            )
            total += value * len(chunk)
            seen += len(chunk)
        train_loss = total / seen if seen else float("nan")
        val_loss = float("nan")
        if len(val_idx) >= 2:
            frozen = model.frozen()  # nothing to record
            vals = []
            for start in range(0, len(val_idx), cfg.batch_size):
                chunk = val_idx[start : start + cfg.batch_size]
                if len(chunk) < 2:
                    continue
                _, loss = _contrastive_batch(
                    frozen, graphs, chunk, cfg, epoch, _TAG_VAL_AUGMENT, None
                )
                vals.append((float(loss.data), len(chunk)))
            if vals:
                val_loss = sum(v * w for v, w in vals) / sum(w for _, w in vals)
        history.append(EpochTrace(epoch, train_loss, val_loss, lr))
    ckpt = model_to_checkpoint(
        model, epoch=cfg.epochs, extra={"pretrain": _jsonable_config(cfg)}
    )
    if trace_path is not None:
        write_trace_csv(trace_path, history)
    return PretrainResult(model, history, ckpt)


def _jsonable_config(cfg: object) -> dict:
    out = asdict(cfg)  # type: ignore[call-overload]

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        return value

    return scrub(out)


# ---------------------------------------------------------------------------
# Fine-tuning

_BATCH_GRID = (32, 128, 256)
_LR_HEAD_GRID = (5e-4, 1e-3)
_LR_BASE_GRID = (5e-5, 1e-4, 2e-4, 5e-4)
_DROPOUT_GRID = (0.0, 0.1, 0.3, 0.5)
_NLAYER_GRID = (1, 2)
#: Model-selection metrics of a regression fine-tune, named as in ``datasets``.
REGRESSION_METRICS = ("rmse", "mae")


@dataclass(frozen=True)
class FinetuneConfig:
    """Supervised training settings; fields mirror the search grid.

    Off-grid values for the grid fields are rejected unless
    ``free_values`` is set, in which case they are accepted with a
    warning.  Values that no run can use (a learning rate that is not
    positive, a head that :class:`~molcontrast.encoder.HeadSpec` rejects)
    are rejected either way.
    """

    epochs: int = 100
    batch_size: int = 32
    lr_head: float = 5e-4
    lr_base: float = 1e-4
    dropout: float = 0.0
    n_layer: int = 1
    hidden_dim: int = 256
    activation: str = "relu"
    cosine_decay: bool = False
    regression_metric: str = "rmse"
    seed: int = 0
    free_values: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr_head", "lr_base"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        check_head_fields(
            self.n_layer, self.hidden_dim, self.activation, self.dropout, "n_layer"
        )
        if self.regression_metric not in REGRESSION_METRICS:
            raise ConfigError(
                f"regression_metric must be one of {REGRESSION_METRICS}, "
                f"got {self.regression_metric!r}"
            )
        grid = [
            ("batch_size", self.batch_size, _BATCH_GRID),
            ("lr_head", self.lr_head, _LR_HEAD_GRID),
            ("lr_base", self.lr_base, _LR_BASE_GRID),
            ("dropout", self.dropout, _DROPOUT_GRID),
            ("n_layer", self.n_layer, _NLAYER_GRID),
        ]
        for name, value, allowed in grid:
            if value in allowed:
                continue
            if not self.free_values:
                raise ConfigError(
                    f"{name}={value!r} is outside the search grid {allowed}; "
                    f"set free_values to allow it"
                )
            warnings.warn(
                f"{name}={value!r} is outside the search grid {allowed}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class FinetuneEpochTrace:
    epoch: int
    train_loss: float
    val_metric: float
    lr_head: float
    lr_base: float


@dataclass(frozen=True)
class TargetStats:
    """Per-task z-score statistics from the training split."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class FinetuneResult:
    model: EncoderModel
    history: list[FinetuneEpochTrace]
    best_epoch: int
    val_metric: float
    test_metric: float
    metric_name: str
    per_task_test: list[float | None]
    metrics: dict[str, float]
    target_stats: TargetStats | None
    split: SplitAssignment


def predict_molecules(
    model: EncoderModel,
    graphs: Sequence[MoleculeGraph],
    batch_size: int = 256,
    target_stats: TargetStats | None = None,
) -> np.ndarray:
    """Inference head outputs, one row per graph.

    Classification heads yield the class-1 probability per task;
    regression heads yield values, de-normalized when ``target_stats``
    is given.
    """
    if model.head is None:
        raise ValueError("model has no prediction head")
    rows = []
    for frozen, batch in frozen_batches(model, graphs, batch_size):
        tape = Tape()
        out = predict(tape, frozen, represent(tape, frozen, batch)).data
        rows.append(np.asarray(out, dtype=np.float64))
    raw = (
        np.concatenate(rows, axis=0)
        if rows
        else np.zeros((0, model.head.out_dim))
    )
    if model.head.task_kind == "classification":
        return ad.logistic(raw[:, 1::2] - raw[:, 0::2])
    if target_stats is not None:
        return raw * target_stats.std + target_stats.mean
    return raw


def _supervised_loss(
    model: EncoderModel,
    inputs: Sequence[MoleculeGraph],
    labels: np.ndarray,
    observed: np.ndarray,
    diff_basis: np.ndarray | None,
    dropout_rng: np.random.Generator | None,
) -> tuple[Tape, Tensor, int]:
    tape = Tape()
    batch = GraphBatch.from_graphs(inputs)
    training = dropout_rng is not None
    h = represent(tape, model, batch, training=training, rng=dropout_rng)
    out = predict(tape, model, h, training=training, rng=dropout_rng)
    mask = ad.constant(observed.astype(np.float32))
    count = int(observed.sum())
    if model.head.task_kind == "classification":
        # 2-logit softmax CE reduces to softplus((1-2y) * (l1 - l0)).
        d = ad.matmul_t(tape, out, ad.constant(diff_basis))
        sign = ad.constant((1.0 - 2.0 * labels).astype(np.float32))
        per = ad.softplus(tape, ad.mul(tape, d, sign))
    else:
        diff = ad.sub(tape, out, ad.constant(labels.astype(np.float32)))
        per = ad.add(
            tape, ad.relu(tape, diff), ad.relu(tape, ad.scale(tape, diff, -1.0))
        )
    masked = ad.mul(tape, per, mask)
    loss = ad.scale(tape, ad.sum(tape, masked), 1.0 / max(count, 1))
    return tape, loss, count


def finetune(
    dataset: LabeledDataset,
    cfg: FinetuneConfig,
    checkpoint: Checkpoint | None = None,
    encoder: EncoderConfig | None = None,
    split: SplitAssignment | None = None,
    augment: AugmentSpec | None = None,
    trace_path: str | Path | None = None,
) -> FinetuneResult:
    """Supervised training on a scaffold-split labeled dataset.

    Starts from a pre-trained checkpoint when given, otherwise from a
    random initialization, and always attaches a fresh head.  Trains on
    the train split only, evaluates validation every epoch, and reports
    the test metric at the best-validation epoch.  Classification uses
    per-task two-logit softmax cross-entropy with missing labels masked
    out; regression uses an L1 loss on z-scored targets.  ``augment``
    applies a stochastic graph augmentation to training inputs only.
    """
    graphs = dataset.graphs()
    labels, observed = dataset.label_arrays()
    n_tasks = labels.shape[1]
    if split is None:
        split = scaffold_split(graphs)
    if len(split.assignment) != len(graphs):
        raise DataError(
            f"split covers {len(split.assignment)} molecules, "
            f"dataset has {len(graphs)}"
        )
    if checkpoint is not None:
        model = model_from_checkpoint(checkpoint)
        if encoder is not None and model.config != encoder:
            raise ConfigError("encoder config conflicts with checkpoint")
    else:
        model = EncoderModel.initialize(
            encoder or EncoderConfig(), derive_rng(cfg.seed, _TAG_INIT)
        )
    model.add_head(
        HeadSpec(
            task_kind=dataset.task_kind,
            task_count=n_tasks,
            hidden_layers=cfg.n_layer,
            hidden_dim=cfg.hidden_dim,
            activation=cfg.activation,
            dropout=cfg.dropout,
        ),
        derive_rng(cfg.seed, _TAG_HEAD_INIT),
    )

    train_idx = np.array(split.train_indices, dtype=int)
    val_idx = np.array(split.valid_indices, dtype=int)
    test_idx = np.array(split.test_indices, dtype=int)

    stats: TargetStats | None = None
    train_targets = labels
    if dataset.task_kind == "regression":
        mean = np.zeros(n_tasks)
        std = np.ones(n_tasks)
        for t in range(n_tasks):
            seen = labels[train_idx, t][observed[train_idx, t]]
            if len(seen):
                mean[t] = seen.mean()
                s = seen.std()
                std[t] = s if s > 1e-12 else 1.0
        stats = TargetStats(mean, std)
        train_targets = (labels - mean) / std
        classify_basis = None
        # Selection metric first; the test split reports both, by function name.
        test_metrics = (
            (rmse, mae) if cfg.regression_metric == "rmse" else (mae, rmse)
        )
        better = lambda a, b: a < b  # noqa: E731
    else:
        basis = np.zeros((n_tasks, 2 * n_tasks), dtype=np.float32)
        for t in range(n_tasks):
            basis[t, 2 * t] = -1.0
            basis[t, 2 * t + 1] = 1.0
        classify_basis = basis
        test_metrics = (roc_auc,)
        better = lambda a, b: a > b  # noqa: E731

    def evaluate(indices: np.ndarray, *metrics) -> list[tuple[float, list]]:
        """Each metric's (mean, per task) over one prediction of ``indices``."""
        subset = [graphs[int(i)] for i in indices]
        scores = predict_molecules(model, subset, target_stats=stats)
        return [
            mean_task_metric(m, scores, labels[indices], observed[indices])
            for m in metrics
        ]

    state = AdamState()
    history: list[FinetuneEpochTrace] = []
    best_epoch = -1
    best_val = float("nan")
    best_arrays: dict[str, np.ndarray] | None = None
    use_dropout = cfg.dropout > 0 or model.config.dropout > 0

    for epoch in range(cfg.epochs):
        lr_head = (
            lr_at(epoch, cfg.epochs, cfg.lr_head) if cfg.cosine_decay else cfg.lr_head
        )
        lr_base = (
            lr_at(epoch, cfg.epochs, cfg.lr_base) if cfg.cosine_decay else cfg.lr_base
        )
        rate = lambda name: lr_head if name.startswith("head.") else lr_base  # noqa: E731
        total = 0.0
        seen = 0
        for start, chunk, drop_rng in _epoch_batches(cfg, train_idx, epoch, use_dropout):
            if not observed[chunk].any():
                continue
            inputs = []
            for i in chunk:
                g = graphs[int(i)]
                if augment is not None:
                    rng = derive_rng(cfg.seed, _TAG_FT_AUGMENT, epoch, int(i))
                    g = augment_view(g, augment, rng, int(i)).graph
                inputs.append(g)
            tape, loss, count = _supervised_loss(
                model,
                inputs,
                train_targets[chunk],
                observed[chunk],
                classify_basis,
                drop_rng,
            )
            value = _optimizer_step(
                model, tape, loss, state, rate, 0.0, "supervised", epoch, start
            )
            total += value * count
            seen += count
        train_loss = total / seen if seen else float("nan")
        try:
            [(val_metric, _)] = evaluate(val_idx, test_metrics[0])
        except UndefinedMetric:
            val_metric = float("nan")
        if math.isfinite(val_metric) and (
            best_arrays is None or better(val_metric, best_val)
        ):
            best_epoch = epoch
            best_val = val_metric
            best_arrays = {
                name: arr.copy() for name, arr in model.state_arrays().items()
            }
        history.append(
            FinetuneEpochTrace(epoch, train_loss, val_metric, lr_head, lr_base)
        )

    if best_arrays is None:
        raise DataError(
            "validation metric was undefined at every epoch; cannot pick a model"
        )
    for name, arr in best_arrays.items():
        model.params[name].data = arr
    scored = evaluate(test_idx, *test_metrics)
    test_metric, per_task = scored[0]
    metrics = {m.__name__: value for m, (value, _) in zip(test_metrics, scored)}
    metric_name = test_metrics[0].__name__
    if trace_path is not None:
        write_trace_csv(trace_path, history)
    return FinetuneResult(
        model,
        history,
        best_epoch,
        best_val,
        test_metric,
        metric_name,
        per_task,
        metrics,
        stats,
        split,
    )
