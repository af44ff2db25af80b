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

In both, the bond term ``sum_u c_uv e_uv`` is linear in the bond-type and
bond-direction tables, so it enters per atom: ``EdgeSet.bond_counts`` (each
atom's summed edge weights per type and direction) times the two tables.

Every stack of affine maps (GIN's inner MLP, GCN's single map, and the
projection and prediction heads) runs through one ``_mlp``, which reads
``{prefix}weight{s}`` and ``{prefix}bias{s}`` for each suffix ``s``;
``parameter_layout`` lists the same names and shapes through the matching
``_mlp_layout``.  Each activation (ReLU, or a head's softplus) is fused
into the ``linear`` before it, and GIN's self term into its aggregate, so
every layer output is one array, and the tape holds it only while a
backward still reads it.

Dropout, between layers and after each hidden head layer, runs if and only
if a stream ``rng`` is passed (training steps pass one) and its rate is
above 0.

A :class:`GraphBatch` stores what its graphs store: each atom's number and
chirality, each bond once (endpoints within its molecule, type and
direction), and where each molecule's atoms and bonds start.  The two
directed edges of each bond and each atom's molecule, which the layers,
the readout and the fingerprints read, are derived on first use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, NumericAbort
from .graph import (
    MASK_ATOMIC_NUMBER,
    BondDirection,
    BondType,
    Chirality,
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
#: Molecules per batch of an inference pass.  Two workers' batches in
#: flight hold as many molecules as one batch of 256 did.
INFERENCE_BATCH = 128
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
        for name in ("num_layers", "hidden_dim", "latent_dim"):
            _check_count(name, getattr(self, name))
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
        _check_count("task_count", self.task_count)
        check_head_fields(
            self.hidden_layers, self.hidden_dim, self.activation, self.dropout
        )

    @property
    def out_dim(self) -> int:
        # Two logits per classification task; one value per regression task.
        return 2 * self.task_count if self.task_kind == "classification" else self.task_count


def _check_count(name: str, value) -> None:
    """A layer count or width must be an ``int`` (not a ``bool``) >= 1: a
    float such as 16.0 would pass a comparison, then fail as an array shape."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def check_head_fields(
    hidden_layers: int,
    hidden_dim: int,
    activation: str,
    dropout: float,
    layers_field: str = "hidden_layers",
) -> None:
    """The checks on a head's layout, shared by :class:`HeadSpec` and the
    fine-tuning config, which names the layer count ``layers_field``."""
    _check_count(layers_field, hidden_layers)
    _check_count("hidden_dim", hidden_dim)
    if activation not in ACTIVATIONS:
        raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if not 0 <= dropout < 1:
        raise ConfigError(f"dropout must be in [0, 1), got {dropout}")


class EdgeSet:
    """The plans of one directed edge list's ends, its optional per-edge
    weights, and ``bond_counts``: row ``v`` sums the weights (1 without) of
    the edges into ``v`` per bond type, then per direction, in float64 and
    edge order, stored in float32 so that every layer shares the one array."""

    def __init__(self, num_nodes: int, src, dst, etype, edir, coeff=None):
        self.src = ad.IndexPlan(src, num_nodes)
        self.dst = ad.IndexPlan(dst, num_nodes)
        self.coeff = coeff
        weights = np.ones(len(self.dst)) if coeff is None else coeff
        counts = np.zeros((num_nodes, NUM_BOND_TYPES + NUM_BOND_DIRECTIONS))
        np.add.at(counts[:, :NUM_BOND_TYPES], (self.dst.ids, etype), weights)
        np.add.at(counts[:, NUM_BOND_TYPES:], (self.dst.ids, edir), weights)
        self.bond_counts = counts.astype(np.float32)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of ``counts`` consecutive runs starts, then one past the
    last."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _spans(start: np.ndarray, ids: np.ndarray):
    """The rows ``start[i]:start[i + 1]`` of each ``i`` in ``ids``, in
    order, and the :func:`_offsets` of the spans among them."""
    counts = start[ids + 1] - start[ids]
    out = _offsets(counts)
    return np.arange(out[-1]) + np.repeat(start[ids] - out[:-1], counts), out


@dataclass(eq=False)
class GraphBatch:
    """A list of molecule graphs flattened into index arrays.

    A batch stores what its graphs store, as int64 arrays: each atom's
    number and chirality, each bond once in its graph's edge order (its
    endpoints, numbered within its molecule, its type and its direction),
    and where each molecule's atoms and bonds start, then one past the
    last.

    What the layers read is derived from these on first use and cached
    here.  :attr:`edge_src`, :attr:`edge_dst`, :attr:`edge_type` and
    :attr:`edge_dir` hold each bond as two directed edges, ``u -> v`` then
    ``v -> u``, with atom rows numbered within the batch and the direction
    flipped on the reversed copy so `/` and `\\` markers stay
    orientation-consistent; :attr:`node_graph` holds each atom's molecule.
    The :class:`~molcontrast.autodiff.IndexPlan` of each index array
    (validated ids and their scatter schedule) is cached the same way: the
    atom, chirality and graph plans, and two :class:`EdgeSet`s, the bonds
    (:attr:`bond_edges`, for GIN) and the bonds plus one self-loop per atom
    (:attr:`gcn_edges`, for GCN).  Every layer, forward and backward, then
    shares one copy of that index work.

    Training packs its corpus once with :meth:`from_graphs`, draws each
    view on the pack's rows in :meth:`bonds_by_source` order, held for the
    run, and :meth:`gather` copies each step's views out of the pack by the
    stored offsets, array for array what :meth:`from_graphs` gives for the
    view graphs.  A pack that is only gathered from derives nothing.
    """

    node_atomic: np.ndarray
    node_chirality: np.ndarray
    bond_u: np.ndarray
    bond_v: np.ndarray
    bond_type: np.ndarray
    bond_dir: np.ndarray
    atom_start: np.ndarray
    bond_start: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.node_atomic.shape[0]

    @property
    def num_graphs(self) -> int:
        return len(self.atom_start) - 1

    @classmethod
    def from_graphs(cls, graphs: Sequence[MoleculeGraph]) -> "GraphBatch":
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        atoms = [a for g in graphs for a in g.nodes]
        bonds = [e for g in graphs for e in g.edges]

        def column(values, count: int) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64, count=count)

        return cls(
            column((a.atomic_number for a in atoms), len(atoms)),
            column((a.chirality for a in atoms), len(atoms)),
            column((e.u for e in bonds), len(bonds)),
            column((e.v for e in bonds), len(bonds)),
            column((e.bond_type for e in bonds), len(bonds)),
            column((e.direction for e in bonds), len(bonds)),
            _offsets(column((len(g.nodes) for g in graphs), len(graphs))),
            _offsets(column((len(g.edges) for g in graphs), len(graphs))),
        )

    def gather(
        self, ids: Sequence[int], masked: Sequence = (), dropped: Sequence = ()
    ) -> "GraphBatch":
        """The batch :meth:`from_graphs` builds from views of this batch's
        molecules: view ``k`` is molecule ``ids[k]`` with its atoms
        ``masked[k]`` set to the mask token (atomic number 119, chirality
        cleared) and its bonds at positions ``dropped[k]`` of its edge list
        deleted.  Indices are local to the molecule; without ``masked`` and
        ``dropped``, the views are the molecules."""
        ids = np.asarray(ids, dtype=np.int64)
        (atom_rows, atom_start), (bond_rows, bond_start) = (
            _spans(start, ids) for start in (self.atom_start, self.bond_start)
        )
        node_atomic = self.node_atomic[atom_rows]
        node_chirality = self.node_chirality[atom_rows]
        hit = [a + base for base, atoms in zip(atom_start.tolist(), masked) for a in atoms]
        node_atomic[hit] = MASK_ATOMIC_NUMBER
        node_chirality[hit] = int(Chirality.UNSPECIFIED)
        keep = np.ones(len(bond_rows), dtype=bool)
        keep[[p + base for base, ps in zip(bond_start.tolist(), dropped) for p in ps]] = False
        rows = bond_rows[keep]
        return GraphBatch(
            node_atomic,
            node_chirality,
            self.bond_u[rows],
            self.bond_v[rows],
            self.bond_type[rows],
            self.bond_dir[rows],
            atom_start,
            _offsets(keep)[bond_start],
        )

    @cached_property
    def _directed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each bond as ``u -> v`` then ``v -> u``, its atoms moved to their
        rows in the batch; the reversed copy sees the flipped direction
        marker."""
        offset = np.repeat(self.atom_start[:-1], np.diff(self.bond_start))
        u, v, d = self.bond_u + offset, self.bond_v + offset, self.bond_dir

        def pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.stack([a, b], axis=1).ravel()

        flipped = _FLIPPED_DIRECTION[d]
        return pairs(u, v), pairs(v, u), np.repeat(self.bond_type, 2), pairs(d, flipped)

    edge_src = property(lambda self: self._directed[0])
    edge_dst = property(lambda self: self._directed[1])
    edge_type = property(lambda self: self._directed[2])
    edge_dir = property(lambda self: self._directed[3])

    @cached_property
    def node_graph(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_graphs, dtype=np.int64), np.diff(self.atom_start))

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
        etype = np.concatenate([self.edge_type, np.full(n, int(BondType.SELF_LOOP))])
        edir = np.concatenate([self.edge_dir, np.full(n, int(BondDirection.NONE))])
        deg = np.bincount(self.edge_dst, minlength=n).astype(np.float64) + 1.0
        coeff = 1.0 / np.sqrt(deg[src] * deg[dst])
        return EdgeSet(n, src, dst, etype, edir, coeff)

    def bonds_by_source(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The directed bonds as a CSR table ``(src, dst, type, start)``,
        sorted by source, then destination, then bond order: atom ``v``'s
        bonds are rows ``start[v]:start[v + 1]``, its neighbours ascending.
        Built on each call, cached nowhere; the fingerprints and the
        scaffold keys walk it."""
        code = self._directed_codes()
        order = np.argsort(code, kind="stable")
        src, dst = np.divmod(code[order], self.num_nodes)
        dst += np.repeat(self.atom_start[:-1], np.diff(self.atom_start))[src]
        start = _offsets(np.bincount(src, minlength=self.num_nodes))
        return src, dst, np.tile(self.bond_type, 2)[order], start

    def _directed_codes(self) -> np.ndarray:
        """Each bond as two directed edges, ``u -> v`` for every bond, then
        ``v -> u``, each one int64 ``src * num_nodes + dst``: the source's
        atom row in the batch, the destination's number within its molecule,
        so sorting orders them as :meth:`bonds_by_source` and the walk of
        ``augment._pack_rows`` read them.  At most 12 bytes an edge."""
        n, m = self.num_nodes, len(self.bond_u)
        code = np.empty(2 * m, dtype=np.int64)
        fwd, rev = code[:m], code[m:]
        offset = np.repeat(self.atom_start[:-1], np.diff(self.bond_start))
        np.add(self.bond_u, offset, out=fwd)
        np.add(self.bond_v, offset, out=rev)
        fwd *= n
        fwd += self.bond_v
        rev *= n
        rev += self.bond_u
        return code


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


def _parameter_count(config: EncoderConfig | None, head: HeadSpec | None = None) -> int:
    """The number of values in ``parameter_layout(config, head)``, in closed
    form over Python ints, so that a config of 10**12 layers is counted
    without listing them.  With no ``config`` (an encoder that a checkpoint
    fixes), the head's alone, on an input of width 1."""
    count, width = 0, 1
    if config is not None:
        h, latent = config.hidden_dim, config.latent_dim
        layer = (NUM_BOND_TYPES + NUM_BOND_DIRECTIONS) * h
        layer += 4 * h * h + 3 * h if config.backbone == "gin" else h * h + h
        count = (NUM_ATOM_TYPES + NUM_CHIRALITY_TYPES) * h + config.num_layers * layer
        count += h * h + h + h * latent + latent
        width = h
    if head is not None:
        k, out = head.hidden_dim, head.out_dim
        count += width * k + k + (head.hidden_layers - 1) * (k * k + k) + k * out + out
    return count


def _memory_bytes() -> int:
    """This machine's physical memory, or, where the system does not say,
    the largest array numpy can index."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        pages = page_size = -1
    if pages > 0 and page_size > 0:
        return pages * page_size
    return int(np.iinfo(np.intp).max)


def _check_model_size(config: EncoderConfig | None, head: HeadSpec | None = None) -> None:
    """Refuse a model whose float32 parameters (see :func:`_parameter_count`)
    need more bytes than :func:`_memory_bytes`, before anything is drawn."""
    count = _parameter_count(config, head)
    limit = _memory_bytes()
    if 4 * count > limit:
        raise ConfigError(
            f"the model has {count:,} parameters, {4 * count:,} bytes as float32, "
            f"more than this machine's {limit:,} bytes of memory"
        )


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
    """Initial node states: atomic-number plus chirality embeddings, summed
    into the first gather in one record whose backward scatter-adds the
    gradient into each table."""
    tables = (model.params["atom_embedding"], model.params["chirality_embedding"])
    plans = (batch.atom_plan, batch.chirality_plan)
    atom, chirality = (t.data[p.ids] for t, p in zip(tables, plans))
    out = Tensor(np.add(atom, chirality, out=atom))

    def bwd(g: np.ndarray, owned: bool):
        return tuple(ad._scatter_add(g, p) for p in plans)

    tape._record(out, tables, bwd)
    return out


def _aggregate(
    tape: Tape,
    model: EncoderModel,
    k: int,
    states: Tensor,
    edges: EdgeSet,
    add_self: bool = False,
) -> Tensor:
    """``sum_u (h_u + e_uv)`` per node over ``edges``, each message scaled
    by its edge weight when the set has weights (GCN), plus the node's own
    state ``h_v`` when ``add_self`` (GIN), in one tape record."""
    tables = [model.params[f"layers.{k}.bond_{t}_embedding"] for t in ("type", "direction")]
    # A float64 tape (the gradient oracles) gets its own exact copy.
    counts = edges.bond_counts.astype(states.data.dtype, copy=False)
    return ad.message_sum(
        tape, states, edges.src, edges.dst, counts, tables, edges.coeff, add_self
    )


def _mlp(
    tape: Tape,
    model: EncoderModel,
    x: Tensor,
    prefix: str,
    suffixes: Sequence[str],
    act: str = "relu",
    rng: np.random.Generator | None = None,
    rate: float = 0.0,
    act_last: bool = False,
) -> Tensor:
    """One ``linear`` per suffix ``s``, on ``{prefix}weight{s}`` and
    ``{prefix}bias{s}`` (see :func:`_mlp_layout`).  Between each two run
    ``act`` (an ``ad.linear`` activation name) and then, when given a
    stream ``rng``, dropout at ``rate``; after the last run ``act`` only
    when ``act_last``.  Each activation runs inside its ``linear``'s
    record."""
    for i, s in enumerate(suffixes):
        if i and rng is not None:
            x = ad.dropout(tape, x, rate, rng)
        x = ad.linear(
            tape,
            x,
            model.params[f"{prefix}weight{s}"],
            model.params[f"{prefix}bias{s}"],
            act if act_last or i < len(suffixes) - 1 else None,
        )
    return x


def gin_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    agg = _aggregate(tape, model, k, states, batch.bond_edges, add_self=True)
    inner = k < model.config.num_layers - 1
    return _mlp(tape, model, agg, f"layers.{k}.mlp.", _TWO_LAYER, act_last=inner)


def gcn_layer(
    tape: Tape, model: EncoderModel, k: int, states: Tensor, batch: GraphBatch
) -> Tensor:
    agg = _aggregate(tape, model, k, states, batch.gcn_edges)
    inner = k < model.config.num_layers - 1
    return _mlp(tape, model, agg, f"layers.{k}.", ("",), act_last=inner)


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
    return _mlp(
        tape, model, h, "head.", _head_suffixes(head), head.activation, rng, head.dropout
    )


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

    Batches are cut at multiples of :data:`INFERENCE_BATCH` from the start
    whatever the thread count, since a row's bits may depend on its place in
    a product's row tiles.  The batches are split into contiguous runs in
    corpus order, one for each ``set_threads`` worker but never more runs
    than batches; the calling thread runs the last, which is the longest.
    Each batch writes its rows into one output at its offset, so the output
    does not depend on the thread count.

    Finite but huge parameters can overflow, so each pass runs with numpy's
    floating-point warnings off and a NaN or Inf output raises
    :class:`NumericAbort` instead.  A run stops at its first failing batch,
    and the first failing run's exception is raised, so what the first
    failing batch in corpus order raised is raised.
    """
    frozen = model.frozen()
    out = np.empty((len(graphs), width), dtype=np.float32)
    starts = range(0, len(graphs), INFERENCE_BATCH)
    pool = ad._free_pool()
    parts = max(1, min(ad._workers, len(starts))) if pool is not None else 1
    cuts = [len(starts) * i // parts for i in range(parts + 1)]
    with np.errstate(all="ignore"):
        ad._run_parts(
            pool,
            _forward_batches,
            [(starts[lo:hi], INFERENCE_BATCH, graphs, frozen, forward, out)
             for lo, hi in zip(cuts, cuts[1:])],
        )
    return out


def _forward_batches(
    starts: range,
    size: int,
    graphs: Sequence[MoleculeGraph],
    frozen: EncoderModel,
    forward: Callable[[EncoderModel, GraphBatch], Tensor],
    out: np.ndarray,
    errors: dict,
) -> None:
    """One part of :func:`frozen_forward`: the batch of ``size`` graphs at
    each of ``starts``, its rows written into ``out``; stops at the first
    batch that raises or gives a non-finite output."""
    with np.errstate(**errors):
        for start in starts:
            batch = GraphBatch.from_graphs(graphs[start : start + size])
            rows = forward(frozen, batch).data
            if not np.isfinite(rows).all():
                raise NumericAbort(
                    f"non-finite model output for molecules {start} to "
                    f"{start + batch.num_graphs - 1}"
                )
            out[start : start + len(rows)] = rows


def embed_molecules(model: EncoderModel, graphs: Sequence[MoleculeGraph]) -> np.ndarray:
    """Inference representations ``h`` for a list of graphs, in order."""
    forward = lambda frozen, batch: represent(Tape(), frozen, batch)  # noqa: E731
    return frozen_forward(model, graphs, forward, model.config.hidden_dim)
