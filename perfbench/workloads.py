"""Workload definitions, input generation and the untraced measurement loop.

Every workload runs the same chain of library calls a user makes with the
CLI (parse a SMILES file, pre-train, save and reload the checkpoint, embed
the corpus, retrieve neighbours, fine-tune on a labeled set), so every
end-to-end metric is measured on every workload.  The workloads differ in
where the time goes; see README.md.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from molgen import make_molecules, write_labeled_csv
import molcontrast.training as training_module
from molcontrast.augment import AugmentSpec, augment_pair, derive_rng
from molcontrast.autodiff import Tape
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.datasets import load_labeled_csv, roc_auc, scaffold_split
from molcontrast.encoder import (
    EncoderConfig,
    EncoderModel,
    GraphBatch,
    embed_molecules,
    project,
    represent,
)
from molcontrast.fingerprints import retrieval_analysis
from molcontrast.smiles import SmilesParseError, parse_smiles, parse_corpus
from molcontrast.training import (
    Checkpoint,
    FinetuneConfig,
    PretrainConfig,
    finetune,
    load_checkpoint,
    model_from_checkpoint,
    predict_molecules,
    pretrain,
    save_checkpoint,
)

SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.01
# The probe loop's time on an idle core of the 2.1 GHz Xeon the benchmark
# was tuned on; scaled times read as wall times on that machine when idle.
PROBE_REFERENCE_S = 100e-6
MALFORMED_SHARE = 0.05
RETRIEVE_BINS = 20
# The CLI's --samples-per-bin.  Scoring whole bins costs ~3 s a query at
# 2,000 molecules, which would not fit 20 queries into one run.
RETRIEVE_SAMPLES_PER_BIN = 10

FIXTURE_ENCODER = EncoderConfig(num_layers=3, hidden_dim=64, latent_dim=32)
PAPER_ENCODER = EncoderConfig(num_layers=5, hidden_dim=512, latent_dim=256)
SUBGRAPH_25 = AugmentSpec(strategy="subgraph", subgraph_ratio=0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_size: int  # molecules in the corpus CSV, before malformed rows
    pretrain_size: int  # leading corpus molecules that pretrain() sees
    pretrain_in_loop: bool  # False: pre-train the checkpoint once in set-up
    encoder: EncoderConfig
    batch_size: int
    lr: float
    pretrain_epochs: int
    labeled_size: int
    finetune_epochs: int
    parse_reps: int  # parse_corpus calls per cycle
    embed_reps: int  # embed_molecules calls per cycle
    queries: int  # retrieval queries per cycle
    min_cycles: int

    def pretrain_config(self, seed: int) -> PretrainConfig:
        return PretrainConfig(
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            warm_epochs=0,
            temperature=0.1,
            augment=SUBGRAPH_25,
            encoder=self.encoder,
            seed=seed,
        )

    def finetune_config(self, seed: int) -> FinetuneConfig:
        return FinetuneConfig(
            epochs=self.finetune_epochs, batch_size=32, hidden_dim=64, seed=seed
        )

    def smoke(self) -> "Workload":
        """The same chain on inputs small enough for a test suite."""
        return replace(
            self,
            corpus_size=40,
            pretrain_size=40,
            batch_size=8,
            labeled_size=100,
            finetune_epochs=1,
            parse_reps=1,
            embed_reps=1,
            queries=1,
            min_cycles=2,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-fixture config: ~120 steps an epoch of ~16 ms each,
        # bound by Python dispatch in augment, batching and the tape.
        Workload(
            name="pretrain_fixture",
            corpus_size=2000,
            pretrain_size=2000,
            pretrain_in_loop=True,
            encoder=FIXTURE_ENCODER,
            batch_size=16,
            lr=1e-3,
            pretrain_epochs=1,
            labeled_size=400,
            finetune_epochs=5,
            parse_reps=3,
            embed_reps=1,
            queries=1,
            min_cycles=2,
        ),
        # Paper-default config: ~2 s steps bound by float64 matmuls and
        # np.add.at scatters.  269 molecules leave 256 after the 5%
        # validation split: two full batches of 128 an epoch.
        Workload(
            name="pretrain_paper",
            corpus_size=269,
            pretrain_size=269,
            pretrain_in_loop=True,
            encoder=PAPER_ENCODER,
            batch_size=128,
            lr=5e-4,
            pretrain_epochs=2,
            labeled_size=400,
            finetune_epochs=1,
            parse_reps=20,
            embed_reps=3,
            queries=2,
            min_cycles=2,
        ),
        # Read side of a fixture-config checkpoint: parsing with malformed
        # rows, embedding, fingerprint retrieval and fine-tuning.  The
        # checkpoint is pre-trained in set-up on 512 molecules.
        Workload(
            name="downstream",
            corpus_size=2000,
            pretrain_size=512,
            pretrain_in_loop=False,
            encoder=FIXTURE_ENCODER,
            batch_size=16,
            lr=1e-3,
            pretrain_epochs=2,
            labeled_size=400,
            finetune_epochs=5,
            parse_reps=3,
            embed_reps=2,
            queries=5,
            min_cycles=4,
        ),
    )
}

# name -> unit; BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": "s",
    "train_mol_per_s": "mol/s",
    "finetune_mol_per_s": "mol/s",
    "parse_mol_per_s": "rows/s",
    "embed_mol_per_s": "mol/s",
    "retrieve_query_s_p50": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Bookkeeping


def _probe_loop() -> int:
    s = 0
    for i in range(3000):
        s += i
    return s


class Ledger:
    """Counts library calls and their failures, collects check results, and
    times calls with a speed probe.

    The machines this runs on are shared: the same work takes up to 1.7x
    longer while a neighbour is busy, in swings lasting seconds.  Both
    Python and BLAS code slow down together, so while ``probing()`` is
    active a SIGALRM handler times a fixed pure-Python loop every
    ``PROBE_INTERVAL_S``, and ``timed()`` divides each call's wall time by
    the slowdown of the probe during that call, relative to
    ``PROBE_REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list] = {}  # name -> [passes, first failure]
        self.probe_s: list[float] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(name, [0, None])
        if ok:
            entry[0] += 1
        elif entry[1] is None:
            entry[1] = detail or "failed"

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(f is None for _, f in self.checks.values())

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        _probe_loop()
        self.probe_s.append(time.perf_counter() - t0)

    @contextmanager
    def probing(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and its wall time scaled to the reference
        speed."""
        # Start from a full collection, so the collections inside the call
        # are the ones its own allocations cause, not the previous call's.
        gc.collect()
        first = len(self.probe_s)
        self._probe()
        t0 = time.perf_counter()
        out = self.call(fn, *args, **kwargs)
        wall = time.perf_counter() - t0
        self._probe()
        slowdown = statistics.mean(self.probe_s[first:]) / PROBE_REFERENCE_S
        return out, wall / slowdown


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def checkpoint_digest(ckpt: Checkpoint) -> str:
    return digest(ckpt.arrays[k] for k in sorted(ckpt.arrays))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trained_per_epoch(n: int, cfg: PretrainConfig) -> int:
    """Molecules pretrain() trains on per epoch: it drops a last batch of 1."""
    train = len(split_and_order(n, cfg, 0)[1])
    return train - (1 if train % cfg.batch_size == 1 else 0)


# ---------------------------------------------------------------------------
# Inputs


def malformed(smiles: str, rng: np.random.Generator) -> str:
    """A variant of ``smiles`` that the parser must reject."""
    variants = (smiles + "(", "(" + smiles, smiles + "%", smiles + "[Xq]")
    for i in rng.permutation(len(variants)):
        text = variants[int(i)]
        try:
            parse_smiles(text)
        except SmilesParseError:
            return text
    raise AssertionError(f"no malformed variant of {smiles!r} fails to parse")


@dataclass
class Inputs:
    corpus_csv: Path
    labeled_csv: Path
    checkpoint_path: Path
    smiles: list[str]
    injected: int


def write_corpus(path: Path, smiles: list[str], seed: int) -> int:
    """The corpus CSV with a seeded share of malformed rows mixed in."""
    rng = np.random.default_rng([seed, 1])
    n_bad = max(1, int(len(smiles) * MALFORMED_SHARE))
    bad_at = set(rng.choice(len(smiles), size=n_bad, replace=False).tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles"])
        for i, s in enumerate(smiles):
            if i in bad_at:
                writer.writerow([malformed(s, rng)])
            writer.writerow([s])
    return n_bad


def setup(w: Workload, seed: int, work: Path, ledger: Ledger, pre_stats: dict) -> Inputs:
    """Generate and write the inputs; downstream also pre-trains, saves and
    loads its checkpoint."""
    molecules = make_molecules(w.corpus_size, seed)
    smiles = [s for s, _ in molecules]
    inputs = Inputs(
        corpus_csv=work / "corpus.csv",
        labeled_csv=work / "labeled.csv",
        checkpoint_path=work / "checkpoint.bin",
        smiles=smiles,
        injected=write_corpus(work / "corpus.csv", smiles, seed),
    )
    write_labeled_csv(inputs.labeled_csv, w.labeled_size, seed + 1)
    if not w.pretrain_in_loop:
        graphs = [g for _, g in molecules[: w.pretrain_size]]
        ckpt = run_pretrain(w, seed, graphs, ledger, pre_stats)
        save_and_load(ckpt, inputs.checkpoint_path, ledger)
    return inputs


# ---------------------------------------------------------------------------
# Phases; each records throughput samples and checks its outputs


def run_pretrain(w: Workload, seed: int, graphs, ledger: Ledger, stats: dict) -> Checkpoint:
    cfg = w.pretrain_config(seed)
    result, dt = ledger.timed(pretrain, graphs, cfg)
    stats.setdefault("train_mol_per_s", []).append(
        cfg.epochs * trained_per_epoch(len(graphs), cfg) / dt
    )
    losses = [(h.train_loss, h.val_loss) for h in result.history]
    key = (tuple(losses), checkpoint_digest(result.checkpoint))
    if "pretrain_first" not in stats:  # repeats are checked bit-identical
        check_loss_falls(ledger, graphs, cfg, result.history, result.model)
    first = stats.setdefault("pretrain_first", key)
    ledger.check("pretrain repeats bit-identical", key == first, "history or weights differ")
    return result.checkpoint


def split_and_order(n: int, cfg: PretrainConfig, epoch: int):
    """pretrain()'s validation indices and its epoch's training order."""
    perm = derive_rng(cfg.seed, training_module._TAG_SPLIT).permutation(n)
    n_val = min(int(n * cfg.val_fraction), n - 2)
    train_idx = perm[n_val:]
    shuffle = derive_rng(cfg.seed, training_module._TAG_SHUFFLE, epoch)
    return perm[:n_val], train_idx[shuffle.permutation(len(train_idx))]


def first_batch_loss(model, graphs, cfg: PretrainConfig) -> float:
    """NT-Xent of ``model`` on pretrain()'s first training batch, with the
    augmentation that batch gets in epoch 0."""
    chunk = split_and_order(len(graphs), cfg, 0)[1][: cfg.batch_size]
    views = []
    for i in chunk:
        rng = derive_rng(cfg.seed, training_module._TAG_AUGMENT, 0, int(i))
        a, b = augment_pair(graphs[int(i)], cfg.augment, rng, int(i))
        views += [a.graph, b.graph]
    tape = Tape()
    z = project(tape, model, represent(tape, model, GraphBatch.from_graphs(views)))
    return float(nt_xent(tape, z, ContrastiveConfig(cfg.temperature, len(chunk))).data)


def check_loss_falls(ledger: Ledger, graphs, cfg: PretrainConfig, history, trained) -> None:
    """Losses are finite, and training lowered the loss on the first batch.
    (Epoch means are too noisy a test at two batches an epoch.)"""
    initial = EncoderModel.initialize(
        cfg.encoder, derive_rng(cfg.seed, training_module._TAG_INIT)
    )
    before = first_batch_loss(initial, graphs, cfg)
    after = first_batch_loss(trained, graphs, cfg)
    losses = [v for h in history for v in (h.train_loss, h.val_loss)]
    ledger.check(
        "pretrain loss finite and falling",
        all(math.isfinite(v) for v in losses + [before, after]) and after < before,
        f"history {losses}; first batch {before} before, {after} after",
    )


def save_and_load(ckpt: Checkpoint, path: Path, ledger: Ledger) -> Checkpoint:
    ledger.call(save_checkpoint, path, ckpt)
    loaded = ledger.call(load_checkpoint, path)
    ledger.check(
        "checkpoint round-trips",
        checkpoint_digest(loaded) == checkpoint_digest(ckpt),
        "loaded tensors differ from saved",
    )
    return loaded


def run_parse(inputs: Inputs, ledger: Ledger, stats: dict):
    parsed, dt = ledger.timed(parse_corpus, inputs.corpus_csv)
    rows = len(parsed.rows) + len(parsed.failures)
    stats.setdefault("parse_mol_per_s", []).append(rows / dt)
    ledger.check(
        "malformed rows rejected exactly",
        len(parsed.failures) == inputs.injected,
        f"{len(parsed.failures)} rows failed, {inputs.injected} injected",
    )
    ledger.check(
        "parsed rows match the corpus",
        [r.smiles for r in parsed.rows] == inputs.smiles,
        "parsed SMILES differ from the generated corpus",
    )
    return parsed.graphs


def run_embed(model, graphs, ledger: Ledger, stats: dict) -> np.ndarray:
    reps, dt = ledger.timed(embed_molecules, model, graphs)
    stats.setdefault("embed_mol_per_s", []).append(len(graphs) / dt)
    key = digest([reps])
    first = stats.setdefault("embed_first", key)
    ledger.check("embedding repeats byte-identical", key == first, "embeddings differ")
    ledger.check("embeddings finite", bool(np.isfinite(reps).all()), "non-finite embedding")
    return reps


def query_indices(seed: int, cycle: int, n: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 2, cycle])
    return [int(i) for i in rng.choice(n, size=count, replace=False)]


def check_self_hit(ledger: Ledger, report, qi: int, reps: np.ndarray) -> None:
    # An isomorphic duplicate in the corpus embeds identically and may sort
    # first; it is an equally correct top-1.
    top = report.neighbors[0]
    ok = top.cosine_distance <= 1e-6 and (
        top.corpus_index == qi or np.array_equal(reps[top.corpus_index], reps[qi])
    )
    ledger.check(
        "query's top-1 neighbour is itself at distance 0",
        ok,
        f"query {qi}: top-1 {top.corpus_index} at {top.cosine_distance}",
    )


def run_queries(seed, cycle, w, model, graphs, reps, ledger: Ledger, stats: dict) -> None:
    for qi in query_indices(seed, cycle, len(graphs), w.queries):
        report, dt = ledger.timed(
            retrieval_analysis,
            graphs[qi],
            graphs,
            model,
            bins=RETRIEVE_BINS,
            samples_per_bin=RETRIEVE_SAMPLES_PER_BIN,
            seed=seed,
        )
        stats.setdefault("retrieve_query_s", []).append(dt)
        check_self_hit(ledger, report, qi, reps)


def run_finetune(w: Workload, seed: int, inputs: Inputs, ckpt, ledger: Ledger, stats: dict) -> None:
    dataset, failures = ledger.call(load_labeled_csv, inputs.labeled_csv, "classification")
    ledger.check("labeled CSV parses fully", not failures, f"{len(failures)} rows failed")
    split = ledger.call(scaffold_split, dataset.graphs())
    cfg = w.finetune_config(seed)
    before = checkpoint_digest(ckpt)
    result, dt = ledger.timed(finetune, dataset, cfg, checkpoint=ckpt, split=split)
    # Known defect, reported rather than gated: finetune() trains tensors
    # that alias the checkpoint's arrays, so the caller's checkpoint changes.
    stats["finetune_mutates_checkpoint"] = checkpoint_digest(ckpt) != before
    stats.setdefault("finetune_mol_per_s", []).append(
        len(split.train_indices) * cfg.epochs / dt
    )
    test = split.test_indices
    graphs = dataset.graphs()
    scores = ledger.call(predict_molecules, result.model, [graphs[i] for i in test])
    labels = dataset.label_arrays()[0][test, 0]
    auc = ledger.call(roc_auc, scores[:, 0], labels)
    ledger.check(
        "finetune AUC finite and reproduced by predict_molecules",
        math.isfinite(auc) and auc == result.test_metric,
        f"AUC {auc} vs finetune's {result.test_metric}",
    )
    first = stats.setdefault("auc_first", auc)
    ledger.check("finetune AUC identical on rerun", auc == first, f"AUC {auc} vs {first}")


def run_cycle(w: Workload, seed: int, cycle: int, inputs: Inputs, ledger: Ledger, stats: dict) -> None:
    for _ in range(w.parse_reps):
        graphs = run_parse(inputs, ledger, stats)
    # Each cycle reads the checkpoint from disk, as the CLI's embed, retrieve
    # and finetune commands do.
    if w.pretrain_in_loop:
        trained = run_pretrain(w, seed, graphs[: w.pretrain_size], ledger, stats)
        ckpt = save_and_load(trained, inputs.checkpoint_path, ledger)
    else:
        ckpt = ledger.call(load_checkpoint, inputs.checkpoint_path)
    model = model_from_checkpoint(ckpt)
    for _ in range(w.embed_reps):
        reps = run_embed(model, graphs, ledger, stats)
    run_queries(seed, cycle, w, model, graphs, reps, ledger, stats)
    run_finetune(w, seed, inputs, ckpt, ledger, stats)


def measure(w: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> dict[str, float]:
    """Set up ``SETUP_REPEATS`` times, then run closed-loop cycles until
    ``seconds`` would be exceeded (at least ``w.min_cycles``)."""
    stats: dict = {}
    setup_s = []
    with ledger.probing():
        for _ in range(SETUP_REPEATS):
            inputs, dt = ledger.timed(setup, w, seed, work, ledger, stats)
            setup_s.append(dt)
        start = time.perf_counter()
        cycle = 0
        last = 0.0
        while cycle < w.min_cycles or (time.perf_counter() - start) + last <= seconds:
            t0 = time.perf_counter()
            run_cycle(w, seed, cycle, inputs, ledger, stats)
            last = time.perf_counter() - t0
            cycle += 1
    med = statistics.median
    return {
        "setup_s": med(setup_s),
        "train_mol_per_s": med(stats["train_mol_per_s"]),
        "finetune_mol_per_s": med(stats["finetune_mol_per_s"]),
        "parse_mol_per_s": med(stats["parse_mol_per_s"]),
        "embed_mol_per_s": med(stats["embed_mol_per_s"]),
        "retrieve_query_s_p50": med(stats["retrieve_query_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "cycles": cycle,
        "queries": len(stats["retrieve_query_s"]),
        "pretrain_calls": len(stats["train_mol_per_s"]),
        "finetune_mutates_checkpoint": stats["finetune_mutates_checkpoint"],
        "slowdown": med(ledger.probe_s) / PROBE_REFERENCE_S,
    }
