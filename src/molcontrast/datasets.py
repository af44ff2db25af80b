"""Labeled datasets, scaffold-based splitting, and evaluation metrics.

The scaffold of a molecule is what remains after iteratively deleting
degree <= 1 atoms (ring systems plus the linkers between them); acyclic
molecules reduce to the empty scaffold.  Scaffold identity is a 64-bit key
from three rounds of Weisfeiler-Leman refinement over atomic numbers and
bond types, deliberately ignoring chirality, so distinct SMILES spellings
of one scaffold collide.  Splitting assigns whole scaffold groups greedily
to train, then validation, then test, largest group first, so no scaffold
ever spans two splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import TASK_KINDS, GraphBatch
from .errors import DataError
from .fingerprints import _CHUNK, _fnv1a64_many, _refine_batch, fnv1a64
from .graph import BondEdge, MoleculeGraph
from .smiles import CorpusFailure, _read_smiles_csv

__all__ = [
    "LabeledRecord",
    "LabeledDataset",
    "load_labeled_csv",
    "murcko_scaffold",
    "scaffold_key",
    "scaffold_keys",
    "Split",
    "SplitAssignment",
    "scaffold_split",
    "UndefinedMetric",
    "roc_auc",
    "rmse",
    "mae",
    "mean_task_metric",
]


@dataclass(frozen=True)
class LabeledRecord:
    index: int
    smiles: str
    graph: MoleculeGraph
    labels: tuple[float, ...]
    observed: tuple[bool, ...]


@dataclass
class LabeledDataset:
    task_kind: str  # one of encoder.TASK_KINDS
    task_names: tuple[str, ...]
    records: list[LabeledRecord]

    @property
    def task_count(self) -> int:
        return len(self.task_names)

    def __len__(self) -> int:
        return len(self.records)

    def graphs(self) -> list[MoleculeGraph]:
        return [r.graph for r in self.records]

    def label_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Labels and observation mask as [n, tasks] float/bool arrays."""
        labels = np.array([r.labels for r in self.records], dtype=np.float64)
        observed = np.array([r.observed for r in self.records], dtype=bool)
        return labels, observed


def load_labeled_csv(
    path: str | Path, task_kind: str
) -> tuple[LabeledDataset, list[CorpusFailure]]:
    """Read a labeled CSV: a ``smiles`` column, every other column a task.

    Blank cells are missing labels.  Unparseable rows are skipped and
    reported.  Classification labels must be 0 or 1 where present.
    """
    if task_kind not in TASK_KINDS:
        raise DataError(f"unknown task kind {task_kind!r}")
    columns, parsed, failures = _read_smiles_csv(path)
    task_names = tuple(columns)
    if not task_names:
        raise DataError(f"no label columns in {path}")
    records: list[LabeledRecord] = []
    for row, record in parsed:
        labels: list[float] = []
        observed: list[bool] = []
        for column in task_names:
            cell = (record.get(column) or "").strip()
            if not cell:
                labels.append(0.0)
                observed.append(False)
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"row {row.index}, column {column}: bad label {cell!r}"
                ) from exc
            if task_kind == "classification" and value not in (0.0, 1.0):
                raise DataError(
                    f"row {row.index}, column {column}: classification label "
                    f"must be 0 or 1, got {cell!r}"
                )
            labels.append(value)
            observed.append(True)
        records.append(
            LabeledRecord(
                row.index, row.smiles, row.graph, tuple(labels), tuple(observed)
            )
        )
    return LabeledDataset(task_kind, task_names, records), failures


# -- scaffolds ---------------------------------------------------------


def murcko_scaffold(g: MoleculeGraph) -> MoleculeGraph:
    """Iteratively delete degree <= 1 atoms; returns the reindexed core.

    Ring atoms always keep degree >= 2, so the fixed point is the ring
    systems plus their linkers.  Acyclic inputs give the empty graph.
    Surviving nodes keep their features and relative order.
    """
    degree = [len(row) for row in g.adjacency]
    alive = [True] * g.num_nodes
    queue = [v for v in range(g.num_nodes) if degree[v] <= 1]
    while queue:
        v = queue.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in g.adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] <= 1:
                    queue.append(u)
    index = {}
    nodes = []
    for v in range(g.num_nodes):
        if alive[v]:
            index[v] = len(nodes)
            nodes.append(g.nodes[v])
    edges = tuple(
        BondEdge(index[e.u], index[e.v], e.bond_type, e.direction)
        for e in g.edges
        if alive[e.u] and alive[e.v]
    )
    return MoleculeGraph(tuple(nodes), edges)


_EMPTY_SCAFFOLD_KEY = fnv1a64(b"empty-scaffold")
_WL_ROUNDS = 3


def scaffold_keys(graphs: Sequence[MoleculeGraph]) -> list[int]:
    """:func:`scaffold_key` of every molecule; each refinement round hashes
    every scaffold atom of a chunk of molecules at once."""
    keys: list[int] = []
    for lo in range(0, len(graphs), _CHUNK):
        cores = [murcko_scaffold(g) for g in graphs[lo : lo + _CHUNK]]
        rings = [core for core in cores if core.num_nodes]
        summaries = []
        if rings:  # a chunk of acyclic molecules has nothing to batch
            b = GraphBatch.from_graphs(rings)
            labels = _fnv1a64_many([str(z).encode() for z in b.node_atomic.tolist()])
            for _ in range(_WL_ROUNDS):
                labels = _refine_batch(b, labels)
            per_core = np.split(labels, np.cumsum(b.graph_plan.counts)[:-1])
            summaries = [
                f"{core.num_nodes}|{core.num_edges}|"
                + ",".join(map(str, sorted(part.tolist())))
                for part, core in zip(per_core, rings)
            ]
        ring_keys = iter(_fnv1a64_many([t.encode() for t in summaries]).tolist())
        keys += [
            next(ring_keys) if core.num_nodes else _EMPTY_SCAFFOLD_KEY
            for core in cores
        ]
    return keys


def scaffold_key(g: MoleculeGraph) -> int:
    """64-bit scaffold identity; relabeling-invariant, chirality-blind."""
    return scaffold_keys([g])[0]


# -- splitting ---------------------------------------------------------


class Split(IntEnum):
    TRAIN = 0
    VALID = 1
    TEST = 2


@dataclass
class SplitAssignment:
    assignment: tuple[Split, ...]

    def indices(self, split: Split) -> list[int]:
        return [i for i, s in enumerate(self.assignment) if s == split]

    @property
    def train_indices(self) -> list[int]:
        return self.indices(Split.TRAIN)

    @property
    def valid_indices(self) -> list[int]:
        return self.indices(Split.VALID)

    @property
    def test_indices(self) -> list[int]:
        return self.indices(Split.TEST)


def _fractions_problem(fractions: Sequence[float]) -> str | None:
    """Why ``fractions`` cannot be split fractions, or None if they can."""
    if len(fractions) != 3 or not all(f > 0 for f in fractions):
        return f"fractions must be three positive values, got {fractions}"
    if abs(sum(fractions) - 1.0) > 1e-9:
        return f"fractions must sum to 1, got {fractions}"
    return None


def scaffold_split(
    graphs: list[MoleculeGraph],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> SplitAssignment:
    """Greedy whole-group scaffold split.

    Groups are sorted by size descending (key ascending on ties) and
    assigned to train until the cumulative count reaches ``f_train * n``,
    then to validation until ``(f_train + f_valid) * n``, then to test.
    Every count therefore deviates from its target by less than the
    largest group size.
    """
    problem = _fractions_problem(fractions)
    if problem is not None:
        raise DataError(problem)
    n = len(graphs)
    groups: dict[int, list[int]] = {}
    for i, key in enumerate(scaffold_keys(graphs)):
        groups.setdefault(key, []).append(i)
    if len(groups) < 3:
        raise DataError(
            f"only {len(groups)} scaffold group(s); cannot populate three splits"
        )
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    train_cut = fractions[0] * n
    valid_cut = (fractions[0] + fractions[1]) * n
    assignment: list[Split] = [Split.TRAIN] * n
    placed = 0
    for key, members in ordered:
        if placed < train_cut:
            where = Split.TRAIN
        elif placed < valid_cut:
            where = Split.VALID
        else:
            where = Split.TEST
        for i in members:
            assignment[i] = where
        placed += len(members)
    result = SplitAssignment(tuple(assignment))
    for split in Split:
        if not result.indices(split):
            raise DataError(
                f"scaffold split left the {split.name.lower()} set empty; "
                "dataset has too few scaffold groups"
            )
    return result


# -- metrics -----------------------------------------------------------


class UndefinedMetric(DataError):
    """Raised when a metric has no value (e.g. single-class ROC-AUC)."""


def roc_auc(scores, labels) -> float:
    """Mann-Whitney ROC-AUC with tie credit 0.5.

    ``labels`` are binary; raises :class:`UndefinedMetric` when only one
    class is present, and ``ValueError`` on a NaN score.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores {s.shape} and labels {y.shape} must be equal 1-d")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN, which has no rank")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("ROC-AUC undefined: only one class present")
    # Average 1-based ranks inside tie groups, so each tied pair counts 0.5.
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def rmse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise UndefinedMetric("RMSE undefined on empty input")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise UndefinedMetric("MAE undefined on empty input")
    return float(np.mean(np.abs(p - t)))


def mean_task_metric(
    metric,
    predictions: np.ndarray,
    labels: np.ndarray,
    observed: np.ndarray,
) -> tuple[float, list[float | None]]:
    """Apply a per-task metric column-wise and average the defined ones.

    Returns ``(mean, per_task)`` with ``None`` for tasks where the metric
    is undefined; raises :class:`UndefinedMetric` if none are defined.
    """
    per_task: list[float | None] = []
    values = []
    for t in range(predictions.shape[1]):
        mask = observed[:, t]
        if not mask.any():
            per_task.append(None)
            continue
        try:
            value = metric(predictions[mask, t], labels[mask, t])
        except UndefinedMetric:
            per_task.append(None)
            continue
        per_task.append(value)
        values.append(value)
    if not values:
        raise UndefinedMetric("metric undefined for every task")
    return float(np.mean(values)), per_task
