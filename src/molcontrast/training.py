"""Optimization and training: Adam, cosine schedule, contrastive
pre-training, supervised fine-tuning, and binary checkpoints.

Both loops are deterministic functions of (data, config, seed).  Every
stochastic choice (validation split, epoch shuffles, augmentation draws,
dropout masks) runs on its own stream derived from the config seed and a
fixed tag, so no consumer can perturb another.  Each training batch passes
its dropout stream, and dropout runs if and only if a stream is passed
(validation and inference pass none); a rate of 0 draws nothing from it.

Neither loop writes a file: each returns its per-epoch history, which
:func:`write_trace_csv` writes as CSV, and a checkpoint (pre-training) or
model (fine-tuning) that :func:`save_checkpoint` writes.  Learning rates,
weight decay and the temperature must be finite.

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
import threading
import warnings
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .augment import AugmentSpec, _pack_rows, derive_rng, draw_view
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
    frozen_forward,
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

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
# A step runs over tiles of this many elements, so that a tile's scratch
# rows and moment slices stay in cache between its dozen passes.
_ADAM_TILE = 1 << 15
# Steps over fewer elements run on the calling thread: fixture-size steps
# (~65k elements) ran slower on the pool.
_ADAM_POOLED = 1 << 20


@dataclass
class AdamState:
    """First/second moment accumulators, float64 for stable long runs.

    ``m`` and ``v`` are flat buffers laid out over the parameters in the
    order of the mapping passed to the first :func:`adam_step`, one
    contiguous slice per name; ``layout`` holds each name and shape in that
    order, and every later step must pass parameters of that layout.  The
    state holds no scratch memory: each thread that runs tiles keeps its
    own scratch rows across steps (:func:`_adam_rows`).
    """

    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    layout: tuple[tuple[str, tuple[int, ...]], ...] = ()


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float | Callable[[str], float],
    weight_decay: float = 0.0,
) -> str | None:
    """One Adam update in place; only parameters named in ``grads`` move.
    Returns the first name, in the order of ``params``, whose updated
    values are not all finite (a non-finite gradient always leaves some),
    or None.

    Weight decay is L2-coupled: wd * param is added to the gradient
    before the moment updates.  ``lr`` may be a callable mapping the
    parameter name to a rate, which is how head and backbone get
    different learning rates during fine-tuning.

    Parameters are C-contiguous float32 arrays.  The first step fixes the
    layout of ``state``'s flat moments over ``params``.  Every gradient
    shape, that layout and each parameter named in ``grads`` are checked
    before anything moves, so a step that raises ``ValueError`` changes
    neither the parameters nor ``state``.  The update then runs over tiles
    of ``_ADAM_TILE`` elements, in runs of adjacent names with one rate;
    from ``_ADAM_POOLED`` elements on, the tiles are split across the
    :func:`set_threads` workers.  Adam is elementwise, so every element
    sees the same operations in the same order however the tiles are cut
    or run.  Each tile checks its new parameter values for NaN and Inf
    while they are in cache, so finding a bad update costs no second pass.
    """
    layout = tuple((name, p.data.shape) for name, p in params.items())
    if state.layout and state.layout != layout:
        raise ValueError("parameters do not match the layout of this Adam state")
    runs: list[tuple[object, list]] = []  # (rate, [(offset, name, param, grad), ...])
    offset = end = 0
    for name, p in params.items():
        at, offset = offset, offset + p.data.size
        if name not in grads:
            continue
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} shape {p.data.shape}"
            )
        if p.data.dtype != np.float32 or not p.data.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not a C-contiguous float32 array")
        rate = lr(name) if callable(lr) else lr
        # A run holds one rate object, so no two rates that compare equal
        # but differ in bits (0.0 and -0.0) meet in one tile.
        if not runs or runs[-1][0] is not rate or end != at:
            runs.append((rate, []))
        runs[-1][1].append((at, name, p.data.reshape(-1), g.reshape(-1)))
        end = offset
    if not state.layout:
        state.layout = layout
        state.m = np.zeros(offset)
        state.v = np.zeros(offset)
    state.step += 1
    t = state.step
    tiles = [tile for run in runs for tile in _tiles(*run)]
    bad: list[tuple[int, str]] = []  # (flat offset, name) of non-finite pieces
    args = (tiles, state, 1.0 - _BETA1**t, 1.0 - _BETA2**t, weight_decay, bad)
    pool, parts = ad._free_pool(), 1
    if pool is not None and sum(hi - lo for lo, hi, *_ in tiles) >= _ADAM_POOLED:
        parts = min(ad._workers, len(tiles))
    chunks = np.array_split(np.arange(len(tiles)), parts)
    ad._run_parts(pool, _adam_tiles, [(c, *args) for c in chunks])
    return min(bad)[1] if bad else None


def _tiles(rate, segments: list):
    """Cut a run of adjacent parameters into tiles of at most
    ``_ADAM_TILE`` elements: ``(lo, hi, rate, pieces)`` over the flat
    moments, each piece ``(at, name, param, grad, a, b)`` copying elements
    ``a:b`` of the flattened parameter ``name`` and its gradient to tile
    offset ``at``."""
    lo, at, pieces = segments[0][0], 0, []
    for _, name, param, grad in segments:
        a = 0
        while a < param.size:
            b = min(param.size, a + _ADAM_TILE - at)
            pieces.append((at, name, param, grad, a, b))
            at, a = at + b - a, b
            if at == _ADAM_TILE:
                yield lo, lo + at, rate, pieces
                lo, at, pieces = lo + at, 0, []
    if at:
        yield lo, lo + at, rate, pieces


_scratch = threading.local()


def _adam_rows() -> tuple[np.ndarray, ...]:
    """The calling thread's scratch rows for :func:`_adam_tiles` (three
    float64, two float32 and one bool row of ``_ADAM_TILE`` elements),
    allocated on its first step and reused by every later one, unless
    ``_ADAM_TILE`` has since grown past them: rows allocated afresh each
    step were unmapped or trimmed and faulted in again on every step."""
    rows = getattr(_scratch, "rows", None)
    if rows is None or len(rows[0]) < _ADAM_TILE:
        rows = _scratch.rows = (
            *(np.empty(_ADAM_TILE) for _ in range(3)),
            *(np.empty(_ADAM_TILE, np.float32) for _ in range(2)),
            np.empty(_ADAM_TILE, bool),
        )
    return rows


def _adam_tiles(
    which: np.ndarray, tiles: list, state: AdamState, bc1: float, bc2: float,
    weight_decay: float, bad: list, errors: dict,
) -> None:
    """The Adam update of ``tiles[i]`` for every ``i`` in ``which``, under
    the numpy error state ``errors``; appends ``(flat offset, name)`` to
    ``bad`` for each piece whose new values are not all finite.

    Each tile copies its gradient slices into a float64 row and its
    parameter slices into a float32 row, runs the operations of the
    per-parameter update on the same operands in the same order with
    ``out=`` ufuncs, and writes the parameters back.
    """
    rows = _adam_rows()
    tiny = np.finfo(np.float32).tiny
    with np.errstate(**errors):
        for i in which:
            lo, hi, rate, pieces = tiles[i]
            n = hi - lo
            g, t, u, p, c, flush = (r[:n] for r in rows)
            m, v = state.m[lo:hi], state.v[lo:hi]
            for at, _, param, grad, a, b in pieces:
                g[at : at + b - a] = grad[a:b]
                p[at : at + b - a] = param[a:b]
            if weight_decay:
                np.copyto(t, p)
                np.multiply(weight_decay, t, out=t)
                np.add(g, t, out=g)
            np.multiply(m, _BETA1, out=m)
            np.multiply(1.0 - _BETA1, g, out=t)
            np.add(m, t, out=m)
            np.multiply(v, _BETA2, out=v)
            np.multiply(1.0 - _BETA2, g, out=t)
            np.multiply(t, g, out=t)
            np.add(v, t, out=v)
            np.divide(m, bc1, out=t)
            np.multiply(rate, t, out=t)
            np.divide(v, bc2, out=u)
            np.sqrt(u, out=u)
            np.add(u, _ADAM_EPS, out=u)
            np.divide(t, u, out=t)
            np.copyto(c, t, casting="same_kind")
            np.subtract(p, c, out=p)
            # Decay sinks idle weights into subnormals, which slow float32 products.
            np.abs(p, out=c)
            if not np.isfinite(c.max()):  # max() keeps a NaN
                bad.extend(
                    (lo + at, name)
                    for at, name, _, _, a, b in pieces
                    if not np.isfinite(p[at : at + b - a]).all()
                )
            np.less(c, tiny, out=flush)
            p[flush] = 0
            for at, _, param, _, a, b in pieces:
                param[a:b] = p[at : at + b - a]


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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
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
    expected = 0  # tensors lie end to end in directory order, as saved
    for i, entry in enumerate(meta["tensors"]):
        if not _is_directory_entry(entry):
            raise CorruptCheckpointError(f"{path}: bad tensor directory entry {i}")
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name in arrays:
            raise CorruptCheckpointError(f"{path}: tensor {name} listed twice")
        if offset != expected:
            raise CorruptCheckpointError(f"{path}: tensor {name} at {offset}, not {expected}")
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
        expected = offset + count * 4
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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
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


def _epoch_batches(cfg, indices: np.ndarray, epoch: int):
    """(offset, indices, dropout stream) of each batch of ``cfg.batch_size``
    training molecules, in this epoch's shuffled order."""
    order = indices[derive_rng(cfg.seed, _TAG_SHUFFLE, epoch).permutation(len(indices))]
    for start in range(0, len(order), cfg.batch_size):
        drop_rng = derive_rng(cfg.seed, _TAG_DROPOUT, epoch, start)
        yield start, order[start : start + cfg.batch_size], drop_rng


def _train_epoch(
    model: EncoderModel, state: AdamState, cfg, indices: np.ndarray, epoch: int,
    lr: float | Callable[[str], float], weight_decay: float, kind: str, build: Callable,
) -> float:
    """One epoch of Adam steps over the batches of ``indices``; returns the
    :func:`_weighted_mean` of the batch losses.

    ``build(chunk, dropout_rng)`` records a batch's forward pass and returns
    ``(tape, loss, weight)``, or None to skip the batch.  A non-finite loss
    aborts, and so does an update that leaves a parameter non-finite, which
    a non-finite gradient always does (:func:`adam_step` names the first
    such parameter).  :func:`backward` frees each activation as it walks
    the tape, so the step's tape is gone before the Adam step, and its
    gradients before the next batch is built.
    """
    losses = []
    for start, chunk, drop_rng in _epoch_batches(cfg, indices, epoch):
        with np.errstate(all="ignore"):  # the loss and the update are checked
            built = build(chunk, drop_rng)
            if built is None:
                continue
            tape, loss, weight = built
            where = f"at epoch {epoch}, batch offset {start}"
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericAbort(f"non-finite {kind} loss {where}")
            grads = backward(tape, loss)
            del built, tape, loss  # backward emptied the tape; drop it before the step
            named = {name: grads[t] for name, t in model.params.items() if t in grads}
            bad = adam_step(model.params, named, state, lr, weight_decay)
        if bad is not None:
            raise NumericAbort(f"non-finite {kind} update of {bad} {where}")
        del grads, named  # free this step before the next forward
        losses.append((value, weight))
    return _weighted_mean(losses)


def _weighted_mean(losses: Sequence[tuple[float, int]]) -> float:
    """Mean of (loss, weight) pairs by weight; NaN when there are none."""
    seen = sum(w for _, w in losses)
    return sum(v * w for v, w in losses) / seen if seen else float("nan")


def _contrastive_batch(
    model: EncoderModel,
    pack: GraphBatch,
    rows: tuple,
    indices: Sequence[int],
    cfg: PretrainConfig,
    epoch: int,
    tag: int,
    dropout_rng: np.random.Generator | None,
) -> tuple[Tape, Tensor]:
    """NT-Xent over two views of each molecule ``i`` of ``pack``, drawn in
    turn by :func:`~molcontrast.augment.draw_view` on the pack's ``rows``
    from the molecule's stream for this epoch and gathered from ``pack``."""
    views = []
    for i in map(int, indices):
        rng = derive_rng(cfg.seed, tag, epoch, i)
        views += [draw_view(rows, i, cfg.augment, rng) for _ in range(2)]
    batch = pack.gather(np.repeat(indices, 2), *zip(*views))
    tape = Tape()
    z = project(tape, model, represent(tape, model, batch, dropout_rng))
    return tape, nt_xent(tape, z, ContrastiveConfig(cfg.temperature, len(indices)))


def pretrain(graphs: Sequence[MoleculeGraph], cfg: PretrainConfig) -> PretrainResult:
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
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    model = EncoderModel.initialize(cfg.encoder, derive_rng(cfg.seed, _TAG_INIT))
    pack = GraphBatch.from_graphs(graphs)  # no graph is read after this
    rows = _pack_rows(pack)
    state = AdamState()
    history: list[EpochTrace] = []

    def build(chunk, drop_rng):  # a training batch of the current epoch
        if len(chunk) < 2:
            return None
        tape, loss = _contrastive_batch(
            model, pack, rows, chunk, cfg, epoch, _TAG_AUGMENT, drop_rng
        )
        return tape, loss, len(chunk)

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.epochs, cfg.lr, cfg.warm_epochs)
        train_loss = _train_epoch(
            model, state, cfg, train_idx, epoch, lr, cfg.weight_decay, "contrastive", build
        )
        frozen = model.frozen()  # nothing to record
        vals = []
        for start in range(0, len(val_idx), cfg.batch_size):
            chunk = val_idx[start : start + cfg.batch_size]
            if len(chunk) >= 2:
                loss = _contrastive_batch(
                    frozen, pack, rows, chunk, cfg, epoch, _TAG_VAL_AUGMENT, None
                )[1]
                vals.append((float(loss.data), len(chunk)))
        history.append(EpochTrace(epoch, train_loss, _weighted_mean(vals), lr))
    ckpt = model_to_checkpoint(
        model, epoch=cfg.epochs, extra={"pretrain": _jsonable_config(cfg)}
    )
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
    finite and positive, a head that :class:`~molcontrast.encoder.HeadSpec`
    rejects) are rejected either way.
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
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
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
                stacklevel=3,  # the caller of the dataclass's __init__
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
    target_stats: TargetStats | None = None,
) -> np.ndarray:
    """Inference head outputs, one row per graph.

    Classification heads yield the class-1 probability per task;
    regression heads yield values, de-normalized when ``target_stats``
    is given.
    """
    if model.head is None:
        raise ValueError("model has no prediction head")

    def forward(frozen: EncoderModel, batch: GraphBatch) -> Tensor:
        tape = Tape()
        return predict(tape, frozen, represent(tape, frozen, batch))

    raw = frozen_forward(model, graphs, forward, model.head.out_dim).astype(np.float64)
    if model.head.task_kind == "classification":
        return ad.logistic(raw[:, 1::2] - raw[:, 0::2])
    if target_stats is not None:
        return raw * target_stats.std + target_stats.mean
    return raw


def _masked_loss(
    tape: Tape, out: Tensor, labels: np.ndarray, observed: np.ndarray, task_kind: str
) -> Tensor:
    """Mean over the observed labels of the per-label loss, in one record.

    Classification reads ``out`` as two logits per task, ``(l0, l1)``; the
    two-logit softmax cross-entropy is ``softplus((1 - 2y) * (l1 - l0))``,
    with ``l1 - l0`` the product of ``out`` with a -1/+1 basis built from
    its width.  Regression takes ``|out - y|`` as ``relu(d) + relu(-d)``.
    The forward runs the expressions of the chain of generic records this
    replaced, with its float32 basis, sign, label and mask constants and
    its float64 sum, and the backward runs that chain's gradient
    expressions in its order, so loss and gradient equal the chain's bit
    for bit (``tests/supervised_oracle.py`` keeps it).
    """
    od = out.data
    dtype = od.dtype
    mask = observed.astype(np.float32)
    factor = dtype.type(1.0 / max(int(observed.sum()), 1))
    if task_kind == "classification":
        tasks = np.arange(od.shape[1] // 2)
        basis = np.zeros((tasks.size, 2 * tasks.size), dtype=np.float32)
        basis[tasks, 2 * tasks] = -1.0
        basis[tasks, 2 * tasks + 1] = 1.0
        sign = (1.0 - 2.0 * labels).astype(np.float32)
        x = ad._matmul(od, basis.T) * sign
        per = np.where(x > 30, x, np.log1p(np.exp(np.minimum(x, 30)))).astype(dtype)

        def per_grad(gp: np.ndarray) -> np.ndarray:
            gx = (gp * ad.logistic(x)).astype(dtype)
            return ad._matmul(gx * sign, basis)
    else:
        diff = od - labels.astype(np.float32)
        neg = diff * dtype.type(-1.0)
        pos = np.maximum(diff, 0)
        per = pos + np.maximum(neg, 0)
        bits = np.packbits(pos > 0, axis=None), np.packbits(neg > 0, axis=None)

        def per_grad(gp: np.ndarray) -> np.ndarray:
            # The chain handed one gradient to both ReLUs: the negated
            # branch's gate first, then the direct one's added into it.
            gd = ad._gate(gp, bits[1], False)
            np.multiply(gd, dtype.type(-1.0), out=gd)
            return np.add(gd, ad._gate(gp, bits[0], True), out=gd)

    loss = Tensor(np.asarray((per * mask).astype(np.float64).sum(), dtype=dtype) * factor)

    def bwd(g: np.ndarray, owned: bool):
        g = ad._mul(g, factor, owned)
        return (per_grad(np.broadcast_to(g, mask.shape).astype(dtype) * mask),)

    tape._record(loss, (out,), bwd)
    return loss


def _supervised_loss(
    model: EncoderModel,
    batch: GraphBatch,
    labels: np.ndarray,
    observed: np.ndarray,
    dropout_rng: np.random.Generator,
) -> tuple[Tape, Tensor, int]:
    tape = Tape()
    h = represent(tape, model, batch, dropout_rng)
    out = predict(tape, model, h, dropout_rng)
    loss = _masked_loss(tape, out, labels, observed, model.head.task_kind)
    return tape, loss, int(observed.sum())


def finetune(
    dataset: LabeledDataset,
    cfg: FinetuneConfig,
    checkpoint: Checkpoint | None = None,
    encoder: EncoderConfig | None = None,
    split: SplitAssignment | None = None,
    augment: AugmentSpec | None = None,
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

    pack = GraphBatch.from_graphs(graphs)
    rows = _pack_rows(pack) if augment is not None else None
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
        # Selection metric first; the test split reports both, by function name.
        test_metrics = (
            (rmse, mae) if cfg.regression_metric == "rmse" else (mae, rmse)
        )
        better = lambda a, b: a < b  # noqa: E731
    else:
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

    def build(chunk, drop_rng):  # a training batch of the current epoch
        if not observed[chunk].any():
            return None
        edits = ()  # the molecules themselves
        if augment is not None:
            edits = zip(*(
                draw_view(rows, i, augment, derive_rng(cfg.seed, _TAG_FT_AUGMENT, epoch, i))
                for i in map(int, chunk)
            ))
        return _supervised_loss(
            model, pack.gather(chunk, *edits), train_targets[chunk],
            observed[chunk], drop_rng,
        )

    state = AdamState()
    history: list[FinetuneEpochTrace] = []
    best_epoch = -1
    best_val = float("nan")
    best_arrays: dict[str, np.ndarray] | None = None

    for epoch in range(cfg.epochs):
        lr_head, lr_base = (
            lr_at(epoch, cfg.epochs, peak) if cfg.cosine_decay else peak
            for peak in (cfg.lr_head, cfg.lr_base)
        )
        rate = lambda name: lr_head if name.startswith("head.") else lr_base  # noqa: E731
        train_loss = _train_epoch(
            model, state, cfg, train_idx, epoch, rate, 0.0, "supervised", build
        )
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
    return FinetuneResult(
        model, history, best_epoch, best_val, test_metric, metric_name, per_task,
        metrics, stats, split,
    )
