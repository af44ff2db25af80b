"""Synthetic molecule generators for tests.

Molecules are built from oxygen-free ring cores plus randomized
substituents, so the contains-oxygen label depends only on the
substituents and every scaffold group mixes both classes.  Labels are
computed from the parsed graph, never from the construction recipe.

:func:`scaled_molecules` goes past the recipe's few thousand molecules by
joining two of them through a short linker; it writes each SMILES from its
index alone, so a million rows stream to a CSV in bounded memory.
"""

from __future__ import annotations

import csv
from functools import cache
from math import gcd
from pathlib import Path
from typing import Iterator

import numpy as np

from molcontrast.datasets import LabeledDataset
from molcontrast.graph import MoleculeGraph
from molcontrast.smiles import CorpusRow, parse_smiles, parse_with_diagnostics

# Each core is free of oxygen; {x} and {y} take substituents.
CORES = (
    "c1ccc({x})cc1",
    "{y}c1ccc({x})cc1",
    "c1cc({x})ccn1",
    "C1CCC({x})CC1",
    "{y}C1CCC({x})CC1",
    "C1CC({x})CC1",
    "c1cc({x})cs1",
    "C1CC({x})CN1",
    "C1=CC({x})CCC1",
    "c1nc({x})cnc1{y}",
)

OXY_SUBSTITUENTS = (
    "O", "CO", "OC", "OCC", "CCO", "COC", "CCCO", "OCCC",
    "C(=O)O", "C(=O)C", "C(=O)OC", "OC(C)C", "C(=O)N", "COCC", "OCC(C)C",
)
PLAIN_SUBSTITUENTS = (
    "C", "CC", "CCC", "CCCC", "N", "CN", "NC", "CCN", "NCC",
    "Cl", "Br", "F", "I", "C#N", "CC#N", "C(C)C", "CC(C)C", "S", "SC", "CCS",
)


# Every distinct SMILES the recipe can write; asking for more would draw
# forever.
RECIPE = sorted({
    core.format(x=x, y=y)
    for core in CORES
    for x in OXY_SUBSTITUENTS + PLAIN_SUBSTITUENTS
    for y in OXY_SUBSTITUENTS + PLAIN_SUBSTITUENTS
})
MAX_MOLECULES = len(RECIPE)

# What :func:`scaled_molecules` puts between its two halves.  Each starts
# with ``[`` and ends with ``]``, which no recipe SMILES holds, so a joined
# SMILES splits back into its three parts one way only.
LINKERS = ("[CH2]", "[NH]", "[CH2][CH2]", "[CH2][NH][CH2]")


def contains_oxygen(g: MoleculeGraph) -> bool:
    return any(node.atomic_number == 8 for node in g.nodes)


def make_molecules(n: int, seed: int) -> list[tuple[str, MoleculeGraph]]:
    """``n`` unique parseable molecules, deterministic in ``seed``; at most
    :data:`MAX_MOLECULES`."""
    if n > MAX_MOLECULES:
        raise ValueError(f"the recipe writes {MAX_MOLECULES} distinct molecules, not {n}")
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[tuple[str, MoleculeGraph]] = []
    while len(out) < n:
        core = CORES[rng.integers(len(CORES))]
        fills = {}
        for slot in ("x", "y"):
            if "{" + slot + "}" not in core:
                continue
            pool = (
                OXY_SUBSTITUENTS if rng.random() < 0.5 else PLAIN_SUBSTITUENTS
            )
            fills[slot] = pool[rng.integers(len(pool))]
        smiles = core.format(**fills)
        if smiles in seen:
            continue
        seen.add(smiles)
        out.append((smiles, parse_smiles(smiles)))
    return out


def _rows(n: int, seed: int) -> list[CorpusRow]:
    return [CorpusRow(i, s, g) for i, (s, g) in enumerate(make_molecules(n, seed))]


def oxygen_dataset(n: int, seed: int) -> LabeledDataset:
    rows = _rows(n, seed)
    labels = np.array([float(contains_oxygen(r.graph)) for r in rows]).reshape(n, 1)
    return LabeledDataset(
        "classification", ("has_oxygen",), rows, labels, np.ones((n, 1), dtype=bool)
    )


def unlabeled_corpus(n: int, seed: int) -> list[MoleculeGraph]:
    return [graph for _, graph in make_molecules(n, seed)]


def write_corpus_csv(path: str | Path, n: int, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles"])
        for smiles, _ in make_molecules(n, seed):
            writer.writerow([smiles])


def write_labeled_csv(path: str | Path, n: int, seed: int) -> None:
    dataset = oxygen_dataset(n, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "has_oxygen"])
        for row, label in zip(dataset.rows, dataset.labels[:, 0]):
            writer.writerow([row.smiles, int(label)])


def masked_dataset(n: int, seed: int, task_kind: str) -> LabeledDataset:
    """Two tasks per molecule with about a fifth of the labels missing (0.0,
    as the CSV loader stores a blank cell): contains oxygen and contains
    nitrogen for classification, heavy-atom and bond counts for
    regression."""
    rows = _rows(n, seed)
    if task_kind == "classification":
        values = [
            (contains_oxygen(r.graph), any(a.atomic_number == 7 for a in r.graph.nodes))
            for r in rows
        ]
        names = ("has_oxygen", "has_nitrogen")
    else:
        values = [(r.graph.num_nodes, r.graph.num_edges) for r in rows]
        names = ("atoms", "bonds")
    observed = np.random.default_rng(seed + 1).random((n, 2)) >= 0.2
    labels = np.where(observed, np.array(values, dtype=float).reshape(n, 2), 0.0)
    return LabeledDataset(task_kind, names, rows, labels, observed)


@cache
def _halves() -> tuple[list[str], list[str]]:
    """The recipe SMILES whose last atom, and those whose first atom, takes
    one more single bond without a valence warning."""
    def clean(smiles: str) -> bool:
        return not parse_with_diagnostics(smiles)[1]

    return (
        [s for s in RECIPE if clean(s + "C")],
        [s for s in RECIPE if clean("C" + s)],
    )


def scaled_molecules(n: int, seed: int) -> Iterator[str]:
    """``n`` distinct SMILES, deterministic in ``seed``, made one at a time.

    Row ``i`` is ``left + linker + right``, decoded from ``(a * i + c) mod
    N`` over the ``N`` combinations of the two halves and :data:`LINKERS`,
    with ``a`` coprime to ``N``; both are drawn from ``seed``, so the rows
    are a seeded permutation of the combinations and no seen-set is kept.
    """
    left, right = _halves()
    total = len(left) * len(right) * len(LINKERS)
    if n > total:
        raise ValueError(f"scaled_molecules writes {total} distinct molecules, not {n}")
    rng = np.random.default_rng(seed)
    a = 0
    while gcd(a, total) != 1:
        a = int(rng.integers(1, total))
    c = int(rng.integers(total))
    for i in range(n):
        rest, k = divmod((a * i + c) % total, len(LINKERS))
        l, r = divmod(rest, len(right))
        yield left[l] + LINKERS[k] + right[r]


def write_scaled_csv(path: str | Path, n: int, seed: int) -> None:
    """Stream :func:`scaled_molecules` to a one-column ``smiles`` CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles"])
        writer.writerows([smiles] for smiles in scaled_molecules(n, seed))
