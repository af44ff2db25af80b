"""Graph encoders (GIN and GCN variants), readout, and the two heads.

The encoder embeds atomic number and chirality, runs a fixed number of
message-passing layers with per-layer bond-type and bond-direction
embeddings, mean-pools node states into a per-molecule representation
``h``, and maps it through either the contrastive projection head or a
task prediction head.  There is deliberately no batch normalization
anywhere; small desk-scale batches make it a liability and nothing here
needs it.

GIN layer:  ``h_v' = MLP((1 + eps) * h_v + sum_u (h_u + e_uv))`` with an
inner ``linear -> ReLU -> linear`` MLP (width doubles then returns), and a
trailing ReLU on every layer except the last.

GCN layer:  self-loops are added with the reserved SELF_LOOP bond type and
messages are rescaled by ``1 / sqrt(deg_hat_u * deg_hat_v)`` (degrees
counting the self-loop) before a single linear map, again with no ReLU on
the final layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError
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
    "embed_molecules",
]

BACKBONES = ("gin", "gcn")
TASK_KINDS = ("classification", "regression")
ACTIVATIONS = ("relu", "softplus")


@dataclass(frozen=True)
class EncoderConfig:
    backbone: str = "gin"
    num_layers: int = 5
    hidden_dim: int = 512
    latent_dim: int = 256
    gin_epsilon: float = 0.0
    dropout: float = 0.0  # applied between conv layers, fine-tuning only

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
        if self.hidden_layers < 1:
            raise ConfigError("hidden_layers must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def out_dim(self) -> int:
        # Two logits per classification task; one value per regression task.
        return 2 * self.task_count if self.task_kind == "classification" else self.task_count


class GraphBatch:
    """A list of molecule graphs flattened into index arrays.

    Undirected bonds are materialized as two directed edges; the direction
    feature is flipped on the reversed copy so `/` and `\\` markers stay
    orientation-consistent.

    The index arrays are fixed for the life of a batch, so everything
    derived from them is built on first use and cached here: one
    :class:`~molcontrast.autodiff.IndexPlan` per index array (validated ids
    and their scatter schedule, see :meth:`plan`) and the GCN self-loop
    arrays (:meth:`gcn_arrays`).  Every layer, forward and backward, then
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
        self._cache: dict[str, object] = {}

    @property
    def num_nodes(self) -> int:
        return self.node_atomic.shape[0]

    @classmethod
    def from_graphs(cls, graphs: Sequence[MoleculeGraph]) -> "GraphBatch":
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        atomic: list[int] = []
        chir: list[int] = []
        src: list[int] = []
        dst: list[int] = []
        etype: list[int] = []
        edir: list[int] = []
        membership: list[int] = []
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
        return cls(
            np.asarray(atomic, dtype=np.int64),
            np.asarray(chir, dtype=np.int64),
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(etype, dtype=np.int64),
            np.asarray(edir, dtype=np.int64),
            np.asarray(membership, dtype=np.int64),
            len(graphs),
        )

    def _cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def gcn_arrays(self) -> tuple[np.ndarray, ...]:
        """Edge arrays extended with self-loops plus normalization weights."""
        return self._cached("gcn_arrays", self._build_gcn_arrays)

    def _build_gcn_arrays(self) -> tuple[np.ndarray, ...]:
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
        return (src, dst, etype, edir, coeff)

    def plan(self, name: str) -> ad.IndexPlan:
        """The cached plan of one index array.

        ``name`` is an index attribute (``node_atomic``, ``node_chirality``,
        ``node_graph``, ``edge_src``, ``edge_dst``, ``edge_type``,
        ``edge_dir``) or ``gcn_src``, ``gcn_dst``, ``gcn_type``, ``gcn_dir``
        for the self-loop edge set of :meth:`gcn_arrays`.
        """
        return self._cached("plan." + name, lambda: self._build_plan(name))

    def _build_plan(self, name: str) -> ad.IndexPlan:
        n = self.num_nodes
        if name.startswith("gcn_"):
            column = ("src", "dst", "type", "dir").index(name[4:])
            ids = self.gcn_arrays()[column]
            name = "edge_" + name[4:]
        else:
            ids = getattr(self, name)
        rows = {
            "node_atomic": NUM_ATOM_TYPES,
            "node_chirality": NUM_CHIRALITY_TYPES,
            "node_graph": self.num_graphs,
            "edge_src": n,
            "edge_dst": n,
            "edge_type": NUM_BOND_TYPES,
            "edge_dir": NUM_BOND_DIRECTIONS,
        }[name]
        return ad.IndexPlan(ids, rows)


def _uniform_linear(rng: np.random.Generator, fan_in: int, fan_out: int):
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
    b = np.zeros(fan_out, dtype=np.float32)
    return w, b


def _embedding(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return (rng.normal(0.0, 0.1, size=(rows, dim))).astype(np.float32)


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
        h = config.hidden_dim
        p: dict[str, np.ndarray] = {}
        p["atom_embedding"] = _embedding(rng, NUM_ATOM_TYPES, h)
        p["chirality_embedding"] = _embedding(rng, NUM_CHIRALITY_TYPES, h)
        for k in range(config.num_layers):
            p[f"layers.{k}.bond_type_embedding"] = _embedding(rng, NUM_BOND_TYPES, h)
            p[f"layers.{k}.bond_direction_embedding"] = _embedding(
                rng, NUM_BOND_DIRECTIONS, h
            )
            if config.backbone == "gin":
                w1, b1 = _uniform_linear(rng, h, 2 * h)
                w2, b2 = _uniform_linear(rng, 2 * h, h)
                p[f"layers.{k}.mlp.weight1"] = w1
                p[f"layers.{k}.mlp.bias1"] = b1
                p[f"layers.{k}.mlp.weight2"] = w2
                p[f"layers.{k}.mlp.bias2"] = b2
            else:
                w, b = _uniform_linear(rng, h, h)
                p[f"layers.{k}.weight"] = w
                p[f"layers.{k}.bias"] = b
        w1, b1 = _uniform_linear(rng, h, h)
        w2, b2 = _uniform_linear(rng, h, config.latent_dim)
        p["projection.weight1"] = w1
        p["projection.bias1"] = b1
        p["projection.weight2"] = w2
        p["projection.bias2"] = b2
        params = {
            name: ad.tensor(arr, requires_grad=True) for name, arr in p.items()
        }
        return cls(config, params)

    def add_head(self, head: HeadSpec, rng: np.random.Generator | int) -> None:
        rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
        dims = [self.config.hidden_dim] + [head.hidden_dim] * head.hidden_layers
        for i in range(head.hidden_layers):
            w, b = _uniform_linear(rng, dims[i], dims[i + 1])
            self.params[f"head.weight{i}"] = ad.tensor(w, requires_grad=True)
            self.params[f"head.bias{i}"] = ad.tensor(b, requires_grad=True)
        w, b = _uniform_linear(rng, dims[-1], head.out_dim)
        self.params["head.weight_out"] = ad.tensor(w, requires_grad=True)
        self.params["head.bias_out"] = ad.tensor(b, requires_grad=True)
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
    a = ad.embedding_lookup(
        tape, model.params["atom_embedding"], batch.plan("node_atomic")
    )
    c = ad.embedding_lookup(
        tape, model.params["chirality_embedding"], batch.plan("node_chirality")
    )
    return ad.add(tape, a, c)


def _aggregate(
    tape: Tape,
    model: EncoderModel,
    k: int,
    states: Tensor,
    batch: GraphBatch,
    self_loops: bool,
) -> Tensor:
    """``sum_u (h_u + e_uv)`` per node, GCN-normalized over self-loop edges."""
    prefix = "gcn_" if self_loops else "edge_"
    return ad.message_sum(
        tape,
        states,
        batch.plan(prefix + "src"),
        batch.plan(prefix + "dst"),
        model.params[f"layers.{k}.bond_type_embedding"],
        batch.plan(prefix + "type"),
        model.params[f"layers.{k}.bond_direction_embedding"],
        batch.plan(prefix + "dir"),
        batch.gcn_arrays()[4] if self_loops else None,
    )


def gin_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    cfg = model.config
    agg = _aggregate(tape, model, k, states, batch, self_loops=False)
    combined = ad.add(tape, ad.scale(tape, states, 1.0 + cfg.gin_epsilon), agg)
    hidden = ad.relu(
        tape,
        ad.linear(
            tape,
            combined,
            model.params[f"layers.{k}.mlp.weight1"],
            model.params[f"layers.{k}.mlp.bias1"],
        ),
    )
    out = ad.linear(
        tape,
        hidden,
        model.params[f"layers.{k}.mlp.weight2"],
        model.params[f"layers.{k}.mlp.bias2"],
    )
    if k < cfg.num_layers - 1:
        out = ad.relu(tape, out)
    return out


def gcn_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    cfg = model.config
    agg = _aggregate(tape, model, k, states, batch, self_loops=True)
    out = ad.linear(
        tape,
        agg,
        model.params[f"layers.{k}.weight"],
        model.params[f"layers.{k}.bias"],
    )
    if k < cfg.num_layers - 1:
        out = ad.relu(tape, out)
    return out


def encode_nodes(
    tape: Tape,
    model: EncoderModel,
    batch: GraphBatch,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run all message-passing layers; returns per-node states."""
    cfg = model.config
    layer = gin_layer if cfg.backbone == "gin" else gcn_layer
    states = embed_nodes(tape, model, batch)
    for k in range(cfg.num_layers):
        states = layer(tape, model, k, states, batch)
        if training and cfg.dropout > 0 and k < cfg.num_layers - 1:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            states = ad.dropout(tape, states, cfg.dropout, rng)
    return states


def readout(tape: Tape, states: Tensor, batch: GraphBatch) -> Tensor:
    """Mean-pool node states per molecule; empty graphs are an error."""
    return ad.segment_mean(tape, states, batch.plan("node_graph"))


def represent(
    tape: Tape,
    model: EncoderModel,
    batch: GraphBatch,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-molecule representation ``h``: encode then mean-pool."""
    states = encode_nodes(tape, model, batch, training=training, rng=rng)
    return readout(tape, states, batch)


def project(tape: Tape, model: EncoderModel, h: Tensor) -> Tensor:
    """Contrastive projection ``g(h)``: linear -> ReLU -> linear."""
    hidden = ad.relu(
        tape,
        ad.linear(
            tape, h, model.params["projection.weight1"], model.params["projection.bias1"]
        ),
    )
    return ad.linear(
        tape, hidden, model.params["projection.weight2"], model.params["projection.bias2"]
    )


def predict(
    tape: Tape,
    model: EncoderModel,
    h: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Task head output: logit pairs (classification) or values (regression)."""
    head = model.head
    if head is None:
        raise ValueError("model has no prediction head; call add_head first")
    act = ad.relu if head.activation == "relu" else ad.softplus
    x = h
    for i in range(head.hidden_layers):
        x = act(
            tape,
            ad.linear(
                tape, x, model.params[f"head.weight{i}"], model.params[f"head.bias{i}"]
            ),
        )
        if training and head.dropout > 0:
            if rng is None:
                raise ValueError("training with dropout requires an rng")
            x = ad.dropout(tape, x, head.dropout, rng)
    return ad.linear(
        tape, x, model.params["head.weight_out"], model.params["head.bias_out"]
    )


def embed_molecules(
    model: EncoderModel,
    graphs: Sequence[MoleculeGraph],
    batch_size: int = 256,
) -> np.ndarray:
    """Inference representations ``h`` for a list of graphs, in order.

    Runs on :meth:`EncoderModel.frozen`, so nothing is recorded.
    """
    if not graphs:
        return np.zeros((0, model.config.hidden_dim), dtype=np.float32)
    frozen = model.frozen()
    chunks = []
    for start in range(0, len(graphs), batch_size):
        batch = GraphBatch.from_graphs(graphs[start : start + batch_size])
        h = represent(Tape(), frozen, batch)
        chunks.append(h.data)
    return np.concatenate(chunks, axis=0)
