"""Graph encoders (GIN and GCN variants), readout, and the two heads.

The encoder embeds atomic number and chirality, runs a fixed number of
message-passing layers with per-layer bond-type and bond-direction
embeddings, mean-pools node states into a per-molecule representation
``h``, and maps it through either the contrastive projection head or a
task prediction head.  There is deliberately no batch normalization
anywhere; small desk-scale batches make it a liability and nothing here
needs it.

GIN layer:  ``h_v' = MLP(h_v + sum_u (h_u + e_uv))`` with an
inner ``linear -> ReLU -> linear`` MLP (width doubles then returns), and a
trailing ReLU on every layer except the last.

GCN layer:  self-loops are added with the reserved SELF_LOOP bond type and
messages are rescaled by ``1 / sqrt(deg_hat_u * deg_hat_v)`` (degrees
counting the self-loop) before a single linear map, again with no ReLU on
the final layer.

Every stack of affine maps (GIN's inner MLP, GCN's single map, and the
projection and prediction heads) runs through one ``_mlp``, which reads
``{prefix}weight{s}`` and ``{prefix}bias{s}`` for each suffix ``s``;
``parameter_layout`` lists the same names and shapes through the matching
``_mlp_layout``.

Dropout, between layers and after each hidden head layer, runs if and only
if a stream ``rng`` is passed (training steps pass one) and its rate is
above 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, NumericAbort
from .graph import (
    BondDirection,
    BondType,
    MoleculeGraph,
    NUM_ATOM_TYPES,
    NUM_BOND_DIRECTIONS,
    NUM_BOND_TYPES,
    NUM_CHIRALITY_TYPES,
    flip_direction,
)

__all__ = [
    "BACKBONES",
    "EncoderConfig",
    "HeadSpec",
    "check_head_fields",
    "parameter_layout",
    "GraphBatch",
    "EncoderModel",
    "embed_nodes",
    "gin_layer",
    "gcn_layer",
    "encode_nodes",
    "readout",
    "represent",
    "project",
    "predict",
    "frozen_forward",
    "embed_molecules",
]

BACKBONES = ("gin", "gcn")
TASK_KINDS = ("classification", "regression")
ACTIVATIONS = ("relu", "softplus")
#: Molecules per batch of an inference pass.
INFERENCE_BATCH = 256
#: ``flip_direction`` as a lookup table over direction values.
_FLIPPED_DIRECTION = np.array(
    [int(flip_direction(BondDirection(d))) for d in range(NUM_BOND_DIRECTIONS)],
    dtype=np.int64,
)


@dataclass(frozen=True)
class EncoderConfig:
    backbone: str = "gin"
    num_layers: int = 5
    hidden_dim: int = 512
    latent_dim: int = 256
    dropout: float = 0.0  # between conv layers, when a dropout stream is passed

    def __post_init__(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_dim < 1 or self.latent_dim < 1:
            raise ConfigError("hidden_dim and latent_dim must be positive")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class HeadSpec:
    """Prediction head layout for fine-tuning."""

    task_kind: str
    task_count: int
    hidden_layers: int = 1
    hidden_dim: int = 256
    activation: str = "relu"
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"task_kind must be one of {TASK_KINDS}")
        if self.task_count < 1:
            raise ConfigError("task_count must be >= 1")
        check_head_fields(
            self.hidden_layers, self.hidden_dim, self.activation, self.dropout
        )

    @property
    def out_dim(self) -> int:
        # Two logits per classification task; one value per regression task.
        return 2 * self.task_count if self.task_kind == "classification" else self.task_count


def check_head_fields(
    hidden_layers: int,
    hidden_dim: int,
    activation: str,
    dropout: float,
    layers_field: str = "hidden_layers",
) -> None:
    """The checks on a head's layout, shared by :class:`HeadSpec` and the
    fine-tuning config, which names the layer count ``layers_field``."""
    if hidden_layers < 1:
        raise ConfigError(f"{layers_field} must be >= 1, got {hidden_layers}")
    if hidden_dim < 1:
        raise ConfigError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if not 0 <= dropout < 1:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")


class EdgeSet:
    """The plans of one directed edge list, and optional per-edge weights."""

    def __init__(self, num_nodes: int, src, dst, etype, edir, coeff=None):
        self.src = ad.IndexPlan(src, num_nodes)
        self.dst = ad.IndexPlan(dst, num_nodes)
        self.type = ad.IndexPlan(etype, NUM_BOND_TYPES)
        self.dir = ad.IndexPlan(edir, NUM_BOND_DIRECTIONS)
        self.coeff = coeff


class GraphBatch:
    """A list of molecule graphs flattened into index arrays.

    Undirected bonds are materialized as two directed edges; the direction
    feature is flipped on the reversed copy so `/` and `\\` markers stay
    orientation-consistent.

    The index arrays are fixed for the life of a batch, so the
    :class:`~molcontrast.autodiff.IndexPlan` of each (validated ids and
    their scatter schedule) is built on first use and cached here: the
    atom, chirality and graph plans, and two :class:`EdgeSet`s, the bonds
    (:attr:`bond_edges`, for GIN) and the bonds plus one self-loop per atom
    (:attr:`gcn_edges`, for GCN).  Every layer, forward and backward, then
    shares one copy of that index work.
    """

    def __init__(
        self,
        node_atomic: np.ndarray,
        node_chirality: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_type: np.ndarray,
        edge_dir: np.ndarray,
        node_graph: np.ndarray,
        num_graphs: int,
    ):
        self.node_atomic = node_atomic
        self.node_chirality = node_chirality
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_type = edge_type
        self.edge_dir = edge_dir
        self.node_graph = node_graph
        self.num_graphs = num_graphs

    @property
    def num_nodes(self) -> int:
        return self.node_atomic.shape[0]

    @classmethod
    def from_graphs(cls, graphs: Sequence[MoleculeGraph]) -> "GraphBatch":
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        atoms = [a for g in graphs for a in g.nodes]
        bonds = [e for g in graphs for e in g.edges]

        def column(values, count: int) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64, count=count)

        sizes = column((len(g.nodes) for g in graphs), len(graphs))
        offset = np.repeat(
            np.cumsum(sizes) - sizes, column((len(g.edges) for g in graphs), len(graphs))
        )
        u = column((e.u for e in bonds), len(bonds)) + offset
        v = column((e.v for e in bonds), len(bonds)) + offset
        direction = column((e.direction for e in bonds), len(bonds))
        # Each bond becomes u -> v then v -> u; the reversed copy sees the
        # flipped direction marker.
        return cls(
            column((a.atomic_number for a in atoms), len(atoms)),
            column((a.chirality for a in atoms), len(atoms)),
            np.stack([u, v], axis=1).ravel(),
            np.stack([v, u], axis=1).ravel(),
            np.repeat(column((e.bond_type for e in bonds), len(bonds)), 2),
            np.stack([direction, _FLIPPED_DIRECTION[direction]], axis=1).ravel(),
            np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
            len(graphs),
        )

    @cached_property
    def atom_plan(self) -> ad.IndexPlan:
        return ad.IndexPlan(self.node_atomic, NUM_ATOM_TYPES)

    @cached_property
    def chirality_plan(self) -> ad.IndexPlan:
        return ad.IndexPlan(self.node_chirality, NUM_CHIRALITY_TYPES)

    @cached_property
    def graph_plan(self) -> ad.IndexPlan:
        return ad.IndexPlan(self.node_graph, self.num_graphs)

    @cached_property
    def bond_edges(self) -> EdgeSet:
        return EdgeSet(
            self.num_nodes, self.edge_src, self.edge_dst, self.edge_type, self.edge_dir
        )

    @cached_property
    def gcn_edges(self) -> EdgeSet:
        """The bonds plus a SELF_LOOP edge per atom, each weighted by
        ``1 / sqrt(deg_hat_u * deg_hat_v)`` (degrees counting the loop)."""
        n = self.num_nodes
        loop = np.arange(n, dtype=np.int64)
        src = np.concatenate([self.edge_src, loop])
        dst = np.concatenate([self.edge_dst, loop])
        etype = np.concatenate(
            [self.edge_type, np.full(n, int(BondType.SELF_LOOP), dtype=np.int64)]
        )
        edir = np.concatenate(
            [self.edge_dir, np.full(n, int(BondDirection.NONE), dtype=np.int64)]
        )
        deg = np.bincount(self.edge_dst, minlength=n).astype(np.float64) + 1.0
        coeff = 1.0 / np.sqrt(deg[src] * deg[dst])
        return EdgeSet(n, src, dst, etype, edir, coeff)

    @cached_property
    def bonds_by_source(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The directed bonds as a CSR table ``(src, dst, type, start)``,
        sorted by source atom: atom ``v``'s bonds are rows
        ``start[v]:start[v + 1]``.  The fingerprints and scaffold keys walk
        it; the encoder never does, so training never builds it."""
        order = np.argsort(self.edge_src, kind="stable")
        start = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_src, minlength=self.num_nodes), out=start[1:])
        return self.edge_src[order], self.edge_dst[order], self.edge_type[order], start


#: Parameter-name suffixes of the GIN inner MLP and of the projection head.
_TWO_LAYER = ("1", "2")


def _mlp_layout(prefix: str, suffixes: Sequence[str], widths: Sequence[int]):
    """The parameters :func:`_mlp` reads, in order: ``{prefix}weight{s}``
    (``widths[i]`` by ``widths[i + 1]``) then ``{prefix}bias{s}`` for the
    ``i``-th suffix ``s``."""
    for s, fan_in, fan_out in zip(suffixes, widths, widths[1:]):
        yield f"{prefix}weight{s}", (fan_in, fan_out)
        yield f"{prefix}bias{s}", (fan_out,)


def _head_suffixes(head: HeadSpec) -> tuple[str, ...]:
    return (*map(str, range(head.hidden_layers)), "_out")


def _head_layout(input_dim: int, head: HeadSpec):
    widths = (input_dim, *[head.hidden_dim] * head.hidden_layers, head.out_dim)
    return _mlp_layout("head.", _head_suffixes(head), widths)


def parameter_layout(
    config: EncoderConfig, head: HeadSpec | None = None
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The name and shape of every parameter of a model built from
    ``config`` (and ``head``), in initialization order."""
    h = config.hidden_dim
    yield "atom_embedding", (NUM_ATOM_TYPES, h)
    yield "chirality_embedding", (NUM_CHIRALITY_TYPES, h)
    for k in range(config.num_layers):
        yield f"layers.{k}.bond_type_embedding", (NUM_BOND_TYPES, h)
        yield f"layers.{k}.bond_direction_embedding", (NUM_BOND_DIRECTIONS, h)
        if config.backbone == "gin":
            yield from _mlp_layout(f"layers.{k}.mlp.", _TWO_LAYER, (h, 2 * h, h))
        else:
            yield from _mlp_layout(f"layers.{k}.", ("",), (h, h))
    yield from _mlp_layout("projection.", _TWO_LAYER, (h, h, config.latent_dim))
    if head is not None:
        yield from _head_layout(h, head)


def _draw(layout, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh float32 parameters for ``layout``, drawn in its order:
    embeddings from N(0, 0.1), weights from U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    and zero biases (which draw nothing)."""
    params = {}
    for name, shape in layout:
        if name.endswith("embedding"):
            arr = rng.normal(0.0, 0.1, size=shape)
        elif len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, size=shape)
        else:
            arr = np.zeros(shape)
        params[name] = ad.tensor(arr.astype(np.float32), requires_grad=True)
    return params


class EncoderModel:
    """Named parameter store plus its configuration.

    Parameter names are stable; they are the tensor directory keys in
    checkpoints and the keys of every gradient map.
    """

    def __init__(
        self,
        config: EncoderConfig,
        params: dict[str, Tensor],
        head: HeadSpec | None = None,
    ):
        self.config = config
        self.params = params
        self.head = head

    @classmethod
    def initialize(
        cls, config: EncoderConfig, rng: np.random.Generator | int
    ) -> "EncoderModel":
        rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
        return cls(config, _draw(parameter_layout(config), rng))

    def add_head(self, head: HeadSpec, rng: np.random.Generator | int) -> None:
        rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
        # The new head replaces an earlier one, including layers it lacks.
        for name in [n for n in self.params if n.startswith("head.")]:
            del self.params[name]
        self.params.update(_draw(_head_layout(self.config.hidden_dim, head), rng))
        self.head = head

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def frozen(self) -> "EncoderModel":
        """This model with non-trainable parameters sharing its arrays.

        No array is copied.  No op on a frozen model's parameters is
        connected to a tensor that needs a gradient, so a forward pass on a
        recording tape records nothing and frees each intermediate as soon
        as the next op has used it: that is the inference path.
        """
        params = {name: Tensor(t.data) for name, t in self.params.items()}
        return EncoderModel(self.config, params, self.head)


def embed_nodes(tape: Tape, model: EncoderModel, batch: GraphBatch) -> Tensor:
    """Initial node states: atomic-number plus chirality embeddings."""
    a = ad.embedding_lookup(tape, model.params["atom_embedding"], batch.atom_plan)
    c = ad.embedding_lookup(
        tape, model.params["chirality_embedding"], batch.chirality_plan
    )
    return ad.add(tape, a, c)


def _aggregate(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, edges: EdgeSet
) -> Tensor:
    """``sum_u (h_u + e_uv)`` per node over ``edges``, each message scaled
    by its edge weight when the set has weights (GCN)."""
    return ad.message_sum(
        tape,
        states,
        edges.src,
        edges.dst,
        model.params[f"layers.{k}.bond_type_embedding"],
        edges.type,
        model.params[f"layers.{k}.bond_direction_embedding"],
        edges.dir,
        edges.coeff,
    )


def _mlp(
    tape: Tape,
    model: EncoderModel,
    x: Tensor,
    prefix: str,
    suffixes: Sequence[str],
    act: Callable[[Tape, Tensor], Tensor] = ad.relu,
    rng: np.random.Generator | None = None,
    rate: float = 0.0,
) -> Tensor:
    """One ``linear`` per suffix ``s``, on ``{prefix}weight{s}`` and
    ``{prefix}bias{s}`` (see :func:`_mlp_layout`).  Between each two run
    ``act`` and then, when given a stream ``rng``, dropout at ``rate``."""
    for i, s in enumerate(suffixes):
        if i:
            x = act(tape, x)
            if rng is not None:
                x = ad.dropout(tape, x, rate, rng)
        x = ad.linear(
            tape, x, model.params[f"{prefix}weight{s}"], model.params[f"{prefix}bias{s}"]
        )
    return x


def gin_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    agg = _aggregate(tape, model, k, states, batch.bond_edges)
    out = _mlp(tape, model, ad.add(tape, states, agg), f"layers.{k}.mlp.", _TWO_LAYER)
    if k < model.config.num_layers - 1:
        out = ad.relu(tape, out)
    return out


def gcn_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    agg = _aggregate(tape, model, k, states, batch.gcn_edges)
    out = _mlp(tape, model, agg, f"layers.{k}.", ("",))
    if k < model.config.num_layers - 1:
        out = ad.relu(tape, out)
    return out


def encode_nodes(
    tape: Tape,
    model: EncoderModel,
    batch: GraphBatch,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run all message-passing layers, with dropout after every layer but
    the last when given a stream ``rng``; returns per-node states."""
    cfg = model.config
    layer = gin_layer if cfg.backbone == "gin" else gcn_layer
    states = embed_nodes(tape, model, batch)
    for k in range(cfg.num_layers):
        states = layer(tape, model, k, states, batch)
        if rng is not None and k < cfg.num_layers - 1:
            states = ad.dropout(tape, states, cfg.dropout, rng)
    return states


def readout(tape: Tape, states: Tensor, batch: GraphBatch) -> Tensor:
    """Mean-pool node states per molecule; empty graphs are an error."""
    return ad.segment_mean(tape, states, batch.graph_plan)


def represent(
    tape: Tape,
    model: EncoderModel,
    batch: GraphBatch,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-molecule representation ``h``: encode (with dropout when given
    a stream ``rng``) then mean-pool."""
    states = encode_nodes(tape, model, batch, rng)
    return readout(tape, states, batch)


def project(tape: Tape, model: EncoderModel, h: Tensor) -> Tensor:
    """Contrastive projection ``g(h)``: linear -> ReLU -> linear."""
    return _mlp(tape, model, h, "projection.", _TWO_LAYER)


def predict(
    tape: Tape,
    model: EncoderModel,
    h: Tensor,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Task head output: logit pairs (classification) or values (regression),
    with dropout after every hidden layer when given a stream ``rng``."""
    head = model.head
    if head is None:
        raise ValueError("model has no prediction head; call add_head first")
    act = ad.relu if head.activation == "relu" else ad.softplus
    return _mlp(tape, model, h, "head.", _head_suffixes(head), act, rng, head.dropout)


def frozen_forward(
    model: EncoderModel,
    graphs: Sequence[MoleculeGraph],
    forward: Callable[[EncoderModel, GraphBatch], Tensor],
    width: int,
) -> np.ndarray:
    """``forward(frozen, batch).data`` stacked over the batches of
    :data:`INFERENCE_BATCH` ``graphs`` (``width`` columns), with ``frozen``
    the model's :meth:`EncoderModel.frozen` copy, on which nothing is
    recorded.

    Finite but huge parameters can overflow, so each pass runs with numpy's
    floating-point warnings off and a NaN or Inf output raises
    :class:`NumericAbort` instead.
    """
    frozen = model.frozen()
    chunks = [np.zeros((0, width), dtype=np.float32)]
    for start in range(0, len(graphs), INFERENCE_BATCH):
        batch = GraphBatch.from_graphs(graphs[start : start + INFERENCE_BATCH])
        with np.errstate(all="ignore"):
            chunks.append(forward(frozen, batch).data)
        if not np.isfinite(chunks[-1]).all():
            raise NumericAbort(
                f"non-finite model output for molecules {start} to "
                f"{start + batch.num_graphs - 1}"
            )
    return np.concatenate(chunks, axis=0)


def embed_molecules(model: EncoderModel, graphs: Sequence[MoleculeGraph]) -> np.ndarray:
    """Inference representations ``h`` for a list of graphs, in order."""
    forward = lambda frozen, batch: represent(Tape(), frozen, batch)  # noqa: E731
    return frozen_forward(model, graphs, forward, model.config.hidden_dim)
