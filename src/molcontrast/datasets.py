"""Labeled datasets, scaffold-based splitting, and evaluation metrics.

A labeled dataset holds the rows of its CSV that parsed (each row's index,
SMILES and graph, as :func:`smiles.parse_corpus` returns them) and two
[rows, tasks] arrays filled as the CSV is read, one row at a time: float64
labels, 0.0 where a cell is blank, and a bool mask of the cells that held
a label.

The scaffold of a molecule is what remains after iteratively deleting
degree <= 1 atoms (ring systems plus the linkers between them); acyclic
molecules reduce to the empty scaffold.  Scaffold identity is a 64-bit key
from three rounds of Weisfeiler-Leman refinement over atomic numbers and
bond types, deliberately ignoring chirality, so distinct SMILES spellings
of one scaffold collide.  Both the deletion and the refinement run on a
chunk of molecules packed as one :class:`~molcontrast.encoder.GraphBatch`,
walking its ``bonds_by_source()`` table for all molecules at once; no core
is built as a graph of its own.  Splitting assigns whole scaffold groups
greedily to train, then validation, then test, largest group first, so no
scaffold ever spans two splits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import TASK_KINDS, GraphBatch, _offsets, _spans
from .errors import DataError
from .fingerprints import _CHUNK, _fnv1a64_many, _refine_batch, fnv1a64
from .graph import MoleculeGraph
from .smiles import CorpusFailure, CorpusRow, _column_positions, _read_smiles_csv

__all__ = [
    "LabeledDataset",
    "load_labeled_csv",
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


@dataclass(eq=False)
class LabeledDataset:
    """The rows of a labeled CSV that parsed, and their labels.

    ``labels[i, t]`` is row ``rows[i]``'s label for task ``task_names[t]``,
    0.0 where its cell is blank, and ``observed[i, t]`` says whether the
    cell held a label.  No ``__eq__`` is generated: it would compare arrays.
    """

    task_kind: str  # one of encoder.TASK_KINDS
    task_names: tuple[str, ...]
    rows: list[CorpusRow]
    labels: np.ndarray  # float64 [rows, tasks]
    observed: np.ndarray  # bool [rows, tasks]

    @property
    def task_count(self) -> int:
        return len(self.task_names)

    def __len__(self) -> int:
        return len(self.rows)

    def graphs(self) -> list[MoleculeGraph]:
        return [r.graph for r in self.rows]

    def label_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored ``labels`` and ``observed`` arrays, not copies."""
        return self.labels, self.observed


def load_labeled_csv(
    path: str | Path, task_kind: str
) -> tuple[LabeledDataset, list[CorpusFailure]]:
    """Read a labeled CSV: a ``smiles`` column, every other column a task.

    Blank cells are missing labels.  Unparseable rows are skipped and
    reported.  Classification labels must be 0 or 1 where present, and
    regression labels finite numbers; cells are checked row by row, each
    row's tasks in column order, and the first bad one is a data error,
    raised once the whole file has been read.  Each row's labels are read
    as the row is parsed, into buffers that grow in place.
    """
    if task_kind not in TASK_KINDS:
        raise DataError(f"unknown task kind {task_kind!r}")
    task_names: tuple[str, ...] = ()
    labels, observed = array("d"), bytearray()
    bad: list[DataError] = []  # the first bad label, raised after the read

    def cell_reader(fields: list[str]):
        nonlocal task_names
        task_names = tuple(c for c in fields if c != "smiles")
        at = _column_positions(fields)
        columns = [(t, column, at[column]) for t, column in enumerate(task_names)]

        def read(row: CorpusRow, cells: list[str]) -> None:
            values, seen = [0.0] * len(columns), bytearray(len(columns))
            for t, column, j in columns:
                cell = cells[j].strip() if j < len(cells) else ""
                if cell and not bad:
                    try:
                        values[t], seen[t] = _label(task_kind, cell), 1
                    except ValueError as exc:
                        bad.append(DataError(f"row {row.index}, column {column}: {exc}"))
            labels.extend(values)
            observed.extend(seen)

        return read

    _, rows, failures = _read_smiles_csv(path, cell_reader)
    if not task_names:
        raise DataError(f"no label columns in {path}")
    if bad:
        raise bad[0]
    return LabeledDataset(
        task_kind,
        task_names,
        rows,
        np.frombuffer(labels).reshape(-1, len(task_names)),  # float64, as array("d")
        np.frombuffer(observed, dtype=bool).reshape(-1, len(task_names)),
    ), failures


def _label(task_kind: str, cell: str) -> float:
    """The label in a non-blank cell, or a ``ValueError`` that says what is
    wrong with it."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"bad label {cell!r}") from None
    if task_kind == "classification" and value not in (0.0, 1.0):
        raise ValueError(f"classification label must be 0 or 1, got {cell!r}")
    if not math.isfinite(value):
        raise ValueError(f"regression label must be a finite number, got {cell!r}")
    return value


# -- scaffolds ---------------------------------------------------------


def _murcko_mask(b: GraphBatch) -> np.ndarray:
    """Whether each atom of a batch is in its molecule's Murcko core, bool
    [atoms]: what remains after deleting, again and again, every atom with
    at most one distinct live neighbour, all molecules at once.

    A bond listed twice between two atoms counts that neighbour once.  Ring
    atoms always keep two live neighbours, so the core is the ring systems
    plus their linkers; an acyclic molecule has no core atom.  Each round
    deletes the atoms that the previous round left with one live neighbour
    or none, so a chain costs its length, not its length times the chunk.
    """
    n = b.num_nodes
    src, dst, _, _ = b.bonds_by_source()
    src, dst = np.divmod(np.unique(src * n + dst), n)  # each neighbour once
    ptr = _offsets(np.bincount(src, minlength=n))
    degree, alive = np.diff(ptr), np.ones(n, dtype=bool)
    leaves = np.flatnonzero(degree <= 1)
    while len(leaves):
        alive[leaves] = False
        nbr = dst[_spans(ptr, leaves)[0]]
        nbr = nbr[alive[nbr]]
        np.subtract.at(degree, nbr, 1)
        leaves = np.unique(nbr[degree[nbr] <= 1])
    return alive


_EMPTY_SCAFFOLD_KEY = fnv1a64(b"empty-scaffold")
_WL_ROUNDS = 3


def _core_batch(pack: GraphBatch, core: np.ndarray) -> GraphBatch:
    """The batch of every molecule's core: the atoms ``core`` marks, in
    order, and the bonds between them, numbered within each core."""
    inside = core[pack.edge_src[::2]] & core[pack.edge_dst[::2]]
    atom_start, bond_start = _offsets(core)[pack.atom_start], _offsets(inside)[pack.bond_start]
    base = np.repeat(atom_start[:-1], np.diff(bond_start))  # each bond's core's first row
    rank = np.cumsum(core) - 1  # each core atom's row in the batch
    return GraphBatch(
        *(column[core] for column in (pack.node_atomic, pack.node_chirality)),
        *(rank[ends[::2][inside]] - base for ends in (pack.edge_src, pack.edge_dst)),
        *(column[inside] for column in (pack.bond_type, pack.bond_dir)),
        atom_start,
        bond_start,
    )


def scaffold_keys(graphs: Sequence[MoleculeGraph]) -> list[int]:
    """64-bit scaffold identity of every molecule, relabeling-invariant and
    chirality-blind.

    Each chunk of molecules is packed once; its cores are read off the pack
    as one batch, whose refinement rounds hash every core atom of the chunk
    at once.  A core's key hashes ``"{atoms}|{bonds}|{sorted labels}"``."""
    keys: list[int] = []
    for lo in range(0, len(graphs), _CHUNK):
        pack = GraphBatch.from_graphs(graphs[lo : lo + _CHUNK])
        b = _core_batch(pack, _murcko_mask(pack))
        labels = _fnv1a64_many([str(z).encode() for z in b.node_atomic.tolist()])
        rows = b.bonds_by_source()
        for _ in range(_WL_ROUNDS):
            labels = _refine_batch(rows, labels)
        atoms, bonds = np.diff(b.atom_start).tolist(), np.diff(b.bond_start).tolist()
        summaries = [
            f"{n}|{m}|" + ",".join(map(str, sorted(part.tolist())))
            for n, m, part in zip(atoms, bonds, np.split(labels, b.atom_start[1:-1]))
        ]
        hashed = _fnv1a64_many([t.encode() for t in summaries]).tolist()
        keys += [key if n else _EMPTY_SCAFFOLD_KEY for n, key in zip(atoms, hashed)]
    return keys


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
