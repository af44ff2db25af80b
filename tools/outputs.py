"""Check that the CLI's outputs are unchanged against a git revision.

    python tools/outputs.py REV [--expect-changed GLOB ...]

Run from anywhere inside the repository.  Writes two unlabeled corpora
(120 molecules, and 400, whose inference batches ``embed`` runs on the
default threads and on one, and which a whole-bin ``retrieve`` and one
that samples 30 bins of 9 fingerprint, with the query, in two chunks of
256), a labeled dataset and a two-task labeled
dataset with blank (missing) labels with the working tree's
``tests/molgen.py``, and a hand-written corpus of clean rows, one
malformed row per parse-failure kind and one row that parses with a
valence warning, whose ``embed`` run shows the parser's skip count
(stderr) and the graphs of the rows it keeps, and a corpus of molecules
of thousands of atoms, longer than the parser's cache of shared bond
edges holds, whose ``embed`` run covers edges built again after the cache
evicted them.  ``pretrain``, ``retrieve`` and ``split`` run on both of these
too, so the augmentation, ring and scaffold walks see fragments and
molecules thousands of atoms deep; the long corpus has two scaffold groups, so its split exits 2 once
its keys are computed.  It then runs
one fixed matrix of ``molcontrast`` commands twice: first on the working
tree's ``src/``, then on ``src/`` of ``git archive REV`` exported to a
temporary directory.  Each tree runs in its own directory, and every path
a command is given is relative and reads the same in both, so the paths
that ``config_resolved.txt`` records match too.  Both trees together take
about 20 s on a 2-vCPU machine; the one wide pre-training run, whose Adam
steps run on the worker threads, takes under 1 s of each tree's share.

Prints each run's exit code and stderr in both trees, then the sha256 of
each output file as ``equal`` or ``different``.  Under each CSV that differs
but has the same header and row count in both trees, it prints the largest
relative difference ``|a - b| / max(|a|, |b|, 0.01)`` over its numeric cells
and the column where it occurs, so a re-baseline shows how far values moved.
The floor on the denominator keeps cells near zero from dominating: below
0.01 the figure is an absolute difference scaled by 100, so loss files and
embedding columns that cross zero read on one scale.
A file that differs, or
that one tree wrote and the other did not, is allowed when its path below
the run directory (``pretrain_gin/loss.csv``) or its name (``loss.csv``)
matches an ``--expect-changed`` glob; a different exit code or stderr is
never allowed.  Stdout is not compared: it only summarises the files.
Exits 1 when any difference is not allowed, 2 when REV cannot be exported.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from molcontrast.augment import STRATEGIES  # noqa: E402
from molgen import masked_dataset, write_corpus_csv, write_labeled_csv  # noqa: E402

CORPUS = "../data/corpus.csv"
# Four inference batches of 128 molecules, which run on the worker threads.
# A whole-bin retrieve fingerprints the query and the 400 molecules in two
# chunks of 256; a retrieve that samples 30 bins of 9 picks 270 to 279
# molecules, so the query and its picks take two chunks too.
LARGE = "../data/large.csv"
LABELED = "../data/labeled.csv"
# Two classification tasks, about a fifth of the cells blank.
MASKED = "../data/masked.csv"
MIXED = "../data/mixed.csv"
# Clean rows around one row per parse-failure kind (unknown atom, bad bond,
# bad charge, unclosed ring, unclosed branch) and a pentavalent carbon,
# which parses with a valence warning.  Then clean rows through each branch
# of the parser's loop: a bond symbol at a ring opening only, at the closing
# only and at both; ``/`` and ``\`` across a closure, where the closing
# symbol flips; ``%nn`` closures with bond symbols; branches that start with
# a bond symbol; fragments; a bracket atom with every field; ``Cl`` and
# ``Br`` next to ``C`` and ``B``.
MIXED_SMILES = (
    "CCO", "C[Xq]", "c1ccc(cc1)O", "CC==C", "C[C+-]", "N#CC(=O)[O-]",
    "C(C)(C)(C)(C)C", "C1CC", "F/C=C\\Cl", "CC(C", "[C@@H](F)(Cl)Br",
    "C=1CCCCC1", "C1CCCCC=1", "C=1CCCCC=1", "C/1CCCCC\\1", "C1CCCCC/1", "F/C=C/1.C\\1",
    "C=%12CCCCC%12", "C%10CCCCC=%10", "C#%11CC#%11", "OC(=O)c1ccccc1", "CC(/F)=C/C",
    "c1ccccc1.CCO.[Na+]", "[13CH3:2]C[15NH2+:1]C", "ClCBr", "BrB(Cl)C", "ClC(Br)=CBr",
    "BBrCCl",
)
# Thousands of atoms each: chains, a branched chain and a ladder whose ends
# are zipped together by 90 two-digit ring closures, every other one double.
LONG = "../data/long.csv"
LONG_SMILES = (
    "C" * 3000,
    "CCN" * 1400 + "O",
    "C(F)" * 2000,
    "".join(f"C{'=' if k % 2 == 0 else ''}%{10 + k}" for k in range(90))
    + "C" * 4320
    + "".join(f"C%{10 + k}" for k in reversed(range(90))),
)
_ENCODER = ["--layers", "2", "--hidden", "32", "--latent", "16"]
_TRAIN = ["--epochs", "3", "--batch", "16", "--warm-epochs", "1", *_ENCODER]
_FINETUNE = ["finetune", "--data", LABELED, "--epochs", "4", "--batch", "32",
             "--head-hidden", "16"]
_ABLATE = ["--pretrain-epochs", "1", "--warm-epochs", "0", "--finetune-epochs", "2",
           "--batch", "16", "--finetune-batch", "32", *_ENCODER]
_RETRIEVE = ["retrieve", "--checkpoint", "pretrain_gin/checkpoint.bin",
             "--query", "CCOc1ccc(C)cc1"]

# (run name, argv); each run writes to --out <run name>.  Later runs read
# the checkpoints of the first three pre-training runs.
MATRIX: tuple[tuple[str, list[str]], ...] = (
    ("pretrain_gin", ["pretrain", "--data", CORPUS, *_TRAIN, "--val-fraction", "0"]),
    ("pretrain_gin_dropout", ["pretrain", "--data", CORPUS, *_TRAIN, "--dropout", "0.2",
                              "--val-fraction", "0.2"]),
    ("pretrain_gcn", ["pretrain", "--data", CORPUS, *_TRAIN, "--backbone", "gcn",
                      "--dropout", "0.2", "--val-fraction", "0.2"]),
    # Over 2^20 parameters (1,389,712), so each Adam step runs its tiles on
    # the worker threads.
    ("pretrain_wide", ["pretrain", "--data", CORPUS, "--epochs", "2", "--batch", "32",
                       "--warm-epochs", "1", "--layers", "2", "--hidden", "384",
                       "--latent", "16", "--val-fraction", "0"]),
    # Augmentation beyond the default strategy: compose_all on fragments and
    # ions, whose subgraph walk restarts from a fresh origin, and
    # subgraph_random on molecules of thousands of atoms, whose walk reads
    # neighbour rows far past index 255.
    ("pretrain_mixed", ["pretrain", "--data", MIXED, *_TRAIN, "--strategy", "compose_all",
                        "--val-fraction", "0.2"]),
    ("pretrain_long", ["pretrain", "--data", LONG, *_TRAIN, "--strategy", "subgraph_random",
                       "--val-fraction", "0"]),
    ("finetune_classification", [*_FINETUNE, "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("finetune_augment_cosine", [*_FINETUNE, "--augment", "--cosine-decay",
                                 "--checkpoint", "pretrain_gin_dropout/checkpoint.bin"]),
    ("finetune_regression", [*_FINETUNE, "--task", "regression", "--augment",
                             "--checkpoint", "pretrain_gcn/checkpoint.bin"]),
    ("finetune_masked", ["finetune", "--data", MASKED, "--epochs", "4", "--batch", "32",
                         "--head-hidden", "16", "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    # Two softplus hidden layers with dropout: each layer's activation runs
    # inside its linear record.
    ("finetune_softplus", [*_FINETUNE, "--activation", "softplus", "--n-layer", "2",
                           "--dropout", "0.1", "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("embed", ["embed", "--data", CORPUS, "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("embed_mixed", ["embed", "--data", MIXED, "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("embed_long", ["embed", "--data", LONG, "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("embed_large", ["embed", "--data", LARGE, "--checkpoint", "pretrain_gin/checkpoint.bin"]),
    ("embed_large_threads_1", ["embed", "--data", LARGE, "--checkpoint",
                               "pretrain_gin/checkpoint.bin", "--threads", "1"]),
    ("retrieve_sampled", [*_RETRIEVE, "--data", CORPUS, "--bins", "5",
                          "--samples-per-bin", "4"]),
    ("retrieve_whole_bin", [*_RETRIEVE, "--data", CORPUS, "--bins", "5"]),
    ("retrieve_large", [*_RETRIEVE, "--data", LARGE, "--bins", "5"]),
    ("retrieve_large_sampled", [*_RETRIEVE, "--data", LARGE, "--bins", "30",
                                "--samples-per-bin", "9"]),
    ("retrieve_mixed", [*_RETRIEVE, "--data", MIXED, "--bins", "5"]),
    ("retrieve_long", [*_RETRIEVE, "--data", LONG, "--bins", "2"]),
    *(
        (f"augment_{strategy}", ["augment", "--data", CORPUS, "--index", "7",
                                 "--views", "3", "--strategy", strategy])
        for strategy in STRATEGIES
    ),
    ("split", ["split", "--data", CORPUS]),
    ("split_mixed", ["split", "--data", MIXED]),
    ("split_long", ["split", "--data", LONG]),
    ("gradcheck", ["gradcheck"]),
    ("ablate_temp", ["ablate_temp", "--data", LABELED, *_ABLATE]),
    ("ablate_aug", ["ablate_aug", "--data", LABELED, *_ABLATE]),
    # Documented aborts: two configuration errors (exit 1) and a numeric
    # abort (exit 3), an Adam update that overflows float32.
    ("abort_views_0", ["augment", "--smiles", "CCO", "--views", "0"]),
    ("abort_missing_data", ["pretrain", *_TRAIN]),
    ("abort_update_overflow", ["pretrain", "--data", CORPUS, *_TRAIN, "--lr", "1e39"]),
)


def write_inputs(data: Path) -> None:
    """The corpora and labeled datasets that the runs read."""
    data.mkdir(parents=True)
    write_corpus_csv(data / "corpus.csv", 120, seed=1)
    write_corpus_csv(data / "large.csv", 400, seed=2)
    write_labeled_csv(data / "labeled.csv", 90, seed=6)
    with open(data / "mixed.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["smiles"], *([s] for s in MIXED_SMILES)])
    with open(data / "long.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["smiles"], *([s] for s in LONG_SMILES)])
    masked = masked_dataset(90, seed=4, task_kind="classification")
    with open(data / "masked.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([
            ["smiles", *masked.task_names],
            *(
                [row.smiles, *(int(v) if seen else "" for v, seen in zip(labels, observed))]
                for row, labels, observed in zip(masked.rows, masked.labels, masked.observed)
            ),
        ])


def run_matrix(src: Path, cwd: Path) -> dict[str, tuple[int, str]]:
    """Run every command of :data:`MATRIX` on the package in ``src``, in
    ``cwd``; returns each run's exit code and stderr."""
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {}
    for name, argv in MATRIX:
        proc = subprocess.run(
            [sys.executable, "-m", "molcontrast.cli", *argv, "--out", name],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        runs[name] = (proc.returncode, proc.stderr)
    return runs


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file below ``root``, by its path relative to it."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def expected(path: str, globs: Sequence[str]) -> bool:
    name = path.rsplit("/", 1)[-1]
    return any(fnmatch.fnmatchcase(path, g) or fnmatch.fnmatchcase(name, g) for g in globs)


_FLOOR = 1e-2  # smallest denominator of a relative difference


def largest_difference(new: Path, old: Path) -> tuple[float, str] | None:
    """The largest relative difference ``|a - b| / max(|a|, |b|, 0.01)``
    between the numeric cells of two CSV files, and its column; ``inf``
    where only one cell is NaN or either is infinite.  None when the headers
    or row counts differ, or no numeric cell does.  The denominator's floor
    is the one ``autodiff``'s gradient check uses."""
    rows_new, rows_old = (list(csv.reader(p.read_text().splitlines())) for p in (new, old))
    if not rows_new or rows_new[0] != rows_old[0] or len(rows_new) != len(rows_old):
        return None
    largest = None
    for row_new, row_old in zip(rows_new[1:], rows_old[1:]):
        for column, x, y in zip(rows_new[0], row_new, row_old):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            finite = math.isfinite(x) and math.isfinite(y)
            rel = abs(x - y) / max(abs(x), abs(y), _FLOOR) if finite else math.inf
            if largest is None or rel > largest[0]:
                largest = (rel, column)
    return largest


def compare_files(
    new: Path, old: Path, globs: Sequence[str]
) -> tuple[list[str], int, int]:
    """One line per file below either root, ``equal`` or ``different``
    with its digests, and under a differing CSV its largest numeric
    difference (see :func:`largest_difference`); returns the lines, the
    number of files that differ and the number of those that no glob in
    ``globs`` allows."""
    a, b = digests(new), digests(old)
    lines, changed, unexpected = [], 0, 0
    for path in sorted(a.keys() | b.keys()):
        da, db = a.get(path, "absent"), b.get(path, "absent")
        if da == db:
            lines.append(f"equal      {path}  {da}")
            continue
        changed += 1
        allowed = expected(path, globs)
        unexpected += not allowed
        note = "expected" if allowed else "NOT EXPECTED"
        lines.append(f"different  {path}  {da} | {db}  ({note})")
        if path.endswith(".csv") and path in a and path in b:
            largest = largest_difference(new / path, old / path)
            if largest is not None:
                lines.append(
                    f"    largest relative difference {largest[0]:.3g} in column {largest[1]}"
                )
    return lines, changed, unexpected


def compare_runs(
    new: dict[str, tuple[int, str]], old: dict[str, tuple[int, str]]
) -> tuple[list[str], int]:
    """One block per run: exit codes, then stderr (both trees' when they
    differ); returns the lines and the number of runs that differ."""
    lines, differ = [], 0
    for name, (code, err) in new.items():
        old_code, old_err = old[name]
        same = code == old_code and err == old_err
        differ += not same
        lines.append(
            f"{name}: exit {code} | {old_code}, stderr "
            + ("equal" if err == old_err else "different")
            + ("" if same else "  (NOT EXPECTED)")
        )
        lines += [f"    {line}" for line in err.splitlines()]
        if err != old_err:
            lines += [f"  | {line}" for line in old_err.splitlines()]
    return lines, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument(
        "--expect-changed", nargs="+", default=[], metavar="GLOB",
        help="output files allowed to differ, by path below the run directory or by name",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        tmp = Path(tmp)
        export = tmp / "export"
        export.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev], capture_output=True
        )
        if archive.returncode != 0:
            print(f"cannot export {args.rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(export)], input=archive.stdout, check=True)
        write_inputs(tmp / "data")
        new_runs = run_matrix(ROOT / "src", tmp / "new")
        old_runs = run_matrix(export / "src", tmp / "old")
        run_lines, runs_differ = compare_runs(new_runs, old_runs)
        file_lines, changed, unexpected = compare_files(
            tmp / "new", tmp / "old", args.expect_changed
        )
    print(f"== runs: exit code and stderr, working tree | {args.rev}")
    print("\n".join(run_lines))
    print(f"== files: sha256, working tree | {args.rev}")
    print("\n".join(file_lines))
    print(
        f"== {sum(not line.startswith(' ') for line in file_lines)} files, "
        f"{changed} different, {unexpected} not expected; "
        f"{runs_differ} of {len(new_runs)} runs differ in exit code or stderr"
    )
    return 1 if unexpected or runs_differ else 0


if __name__ == "__main__":
    sys.exit(main())
