"""The traced run: per-layer timings from spans around calls into each module.

The pre-training loop and ``retrieval_analysis`` are rebuilt here from the
library's public functions, with a span around each call, and checked
against the library's own result on the same inputs.  Nothing inside
``molcontrast`` is patched.  Spans live in memory and are written out when
the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import molcontrast.training as training_module
from molcontrast import autodiff as ad
from molcontrast.augment import augment_pair, derive_rng
from molcontrast.autodiff import Tape, backward
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.datasets import load_labeled_csv, roc_auc, scaffold_split
from molcontrast.encoder import (
    EncoderModel,
    GraphBatch,
    embed_molecules,
    embed_nodes,
    gin_layer,
    project,
    readout,
)
from molcontrast.fingerprints import (
    NeighborHit,
    circular_fp,
    cosine_distance,
    dice,
    path_fp,
    retrieval_analysis,
)
from molcontrast.smiles import parse_corpus
from molcontrast.training import (
    AdamState,
    EpochTrace,
    adam_step,
    finetune,
    load_checkpoint,
    lr_at,
    model_from_checkpoint,
    predict_molecules,
    pretrain,
    save_checkpoint,
)

from workloads import (
    RETRIEVE_BINS,
    RETRIEVE_SAMPLES_PER_BIN,
    Ledger,
    Workload,
    check_loss_falls,
    check_self_hit,
    checkpoint_digest,
    query_indices,
    setup,
    split_and_order,
)

PARSE_REPS = 3
TRACED_QUERIES = 3
OP_REPS = 5
OPS = ("linear", "segment_sum", "segment_mean", "embedding_lookup")
SHARED_LAYERS = 3  # encoder layers every workload has; all are in the trace file

# name -> (unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = {
    "smiles.parse_corpus.s": ("s", "lower"),
    "smiles.rows_failed": ("count", "lower"),
    "augment.augment_pair.s": ("s", "lower"),
    "encoder.from_graphs.s": ("s", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    "encoder.embed_nodes.s": ("s", "lower"),
    **{f"encoder.layer.{k}.s": ("s", "lower") for k in range(SHARED_LAYERS)},
    "encoder.layers.s": ("s", "lower"),
    "encoder.readout.s": ("s", "lower"),
    "encoder.project.s": ("s", "lower"),
    "contrastive.nt_xent.s": ("s", "lower"),
    "autodiff.tape_records": ("count", "lower"),
    "autodiff.backward.s": ("s", "lower"),
    **{
        f"autodiff.{op}.{d}_s": ("s", "lower")
        for op in OPS
        for d in ("fwd", "bwd")
    },
    "training.adam_step.s": ("s", "lower"),
    "training.predict_molecules.s": ("s", "lower"),
    "training.load_checkpoint.s": ("s", "lower"),
    "training.save_checkpoint.s": ("s", "lower"),
    "training.checkpoint_bytes": ("bytes", "lower"),
    "datasets.load_labeled_csv.s": ("s", "lower"),
    "datasets.scaffold_split.s": ("s", "lower"),
    "datasets.roc_auc.s": ("s", "lower"),
    "fingerprints.circular_fp.s": ("s", "lower"),
    "fingerprints.path_fp.s": ("s", "lower"),
    "fingerprints.dice.s": ("s", "lower"),
    "fingerprints.cosine_distance.s": ("s", "lower"),
    "encoder.embed_molecules.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Spans (name, start, end, parent) and counts attached to a span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """A count on the innermost open span."""
        self.spans[self._stack[-1]].setdefault("counts", {})[name] = value

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def per_parent(self, parent: str, child: str) -> list[float]:
        """For each span named ``parent``, the summed durations of its
        direct children named ``child``."""
        totals = {i: 0.0 for i, s in enumerate(self.spans) if s["name"] == parent}
        for s in self.spans:
            if s["parent"] in totals and s["name"] == child:
                totals[s["parent"]] += s["end"] - s["start"]
        return list(totals.values())

    def counts(self, parent: str, name: str) -> list[float]:
        return [s["counts"][name] for s in self.spans if s["name"] == parent]


# ---------------------------------------------------------------------------
# Rebuilt pre-training loop (mirrors training.pretrain)


def _contrastive_batch(tr, model, graphs, indices, cfg, epoch, tag):
    views = []
    for i in indices:
        rng = derive_rng(cfg.seed, tag, epoch, int(i))
        with tr.span("augment.augment_pair"):
            a, b = augment_pair(graphs[int(i)], cfg.augment, rng, int(i))
        views += [a.graph, b.graph]
    with tr.span("encoder.from_graphs"):
        batch = GraphBatch.from_graphs(views)
    tape = Tape()
    # The benchmark configs use the GIN backbone without dropout, so this is
    # represent() followed by project().
    with tr.span("encoder.embed_nodes"):
        states = embed_nodes(tape, model, batch)
    for k in range(cfg.encoder.num_layers):
        with tr.span(f"encoder.layer.{k}"):
            states = gin_layer(tape, model, k, states, batch)
    with tr.span("encoder.readout"):
        h = readout(tape, states, batch)
    with tr.span("encoder.project"):
        z = project(tape, model, h)
    ccfg = ContrastiveConfig(cfg.temperature, len(indices))
    with tr.span("loss"):
        loss = nt_xent(tape, z, ccfg)
    tr.count("graph.nodes", batch.num_nodes)
    tr.count("graph.edges", int(batch.edge_src.shape[0]))
    tr.count("autodiff.tape_records", len(tape))
    return tape, loss, z, ccfg, batch


def traced_pretrain(tr: Tracer, graphs, cfg):
    """``pretrain(graphs, cfg)`` rebuilt with spans; returns the history,
    the trained model and the last training batch."""
    if cfg.encoder.backbone != "gin" or cfg.encoder.dropout > 0:
        raise ValueError("the rebuilt loop covers GIN without dropout only")
    t = training_module
    model = EncoderModel.initialize(cfg.encoder, derive_rng(cfg.seed, t._TAG_INIT))
    state = AdamState()
    history = []
    batch = None
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.epochs, cfg.lr, cfg.warm_epochs)
        val_idx, order = split_and_order(len(graphs), cfg, epoch)
        total = 0.0
        seen = 0
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            if len(chunk) < 2:
                continue
            with tr.span("step"):
                tape, loss, z, ccfg, batch = _contrastive_batch(
                    tr, model, graphs, chunk, cfg, epoch, t._TAG_AUGMENT
                )
                value = float(loss.data)
                with tr.span("contrastive.nt_xent"):
                    side = Tape()
                    zs = ad.tensor(z.data, requires_grad=True)
                    backward(side, nt_xent(side, zs, ccfg))
                with tr.span("autodiff.backward"):
                    grads = backward(tape, loss)
                named = {
                    name: grads[p] for name, p in model.params.items() if p in grads
                }
                with tr.span("training.adam_step"):
                    adam_step(model.params, named, state, lr, cfg.weight_decay)
            total += value * len(chunk)
            seen += len(chunk)
        train_loss = total / seen if seen else float("nan")
        val_loss = float("nan")
        if len(val_idx) >= 2:
            vals = []
            for start in range(0, len(val_idx), cfg.batch_size):
                chunk = val_idx[start : start + cfg.batch_size]
                if len(chunk) < 2:
                    continue
                with tr.span("val_step"):
                    _, loss, _, _, _ = _contrastive_batch(
                        tr, model, graphs, chunk, cfg, epoch, t._TAG_VAL_AUGMENT
                    )
                vals.append((float(loss.data), len(chunk)))
            if vals:
                val_loss = sum(v * w for v, w in vals) / sum(w for _, w in vals)
        history.append(EpochTrace(epoch, train_loss, val_loss, lr))
    return history, model, batch


# ---------------------------------------------------------------------------
# Rebuilt retrieval (mirrors fingerprints.retrieval_analysis)


def traced_retrieval(tr, query, corpus, model, bins, samples_per_bin, seed, top_k=9):
    with tr.span("encoder.embed_molecules"):
        reps = embed_molecules(model, list(corpus))
    with tr.span("encoder.embed_molecules"):
        q = embed_molecules(model, [query])[0]
    with tr.span("fingerprints.cosine_distance"):
        distances = np.array([cosine_distance(q, r) for r in reps])
    order = np.argsort(distances, kind="mergesort")

    def fps(g):
        with tr.span("fingerprints.circular_fp"):
            fc = circular_fp(g)
        with tr.span("fingerprints.path_fp"):
            fp = path_fp(g)
        return fc, fp

    query_fps = fps(query)
    cache = {}

    def scored(idx):
        if idx not in cache:
            cache[idx] = fps(corpus[idx])
        fc, fp = cache[idx]
        with tr.span("fingerprints.dice"):
            dc = dice(query_fps[0], fc)
        with tr.span("fingerprints.dice"):
            dp = dice(query_fps[1], fp)
        return dc, dp

    rng = np.random.default_rng(seed)
    for members in np.array_split(order, bins):
        chosen = members
        if samples_per_bin is not None and samples_per_bin < len(members):
            chosen = rng.choice(members, size=samples_per_bin, replace=False)
        for idx in chosen:
            scored(int(idx))
    neighbors = []
    for rank, idx in enumerate(order[:top_k]):
        dc, dp = scored(int(idx))
        neighbors.append(NeighborHit(rank, int(idx), float(distances[idx]), dc, dp))
    return neighbors


# ---------------------------------------------------------------------------
# Op timings at the shapes of a recorded training batch


def op_timings(model, batch: GraphBatch, seed: int) -> dict[str, float]:
    """Median forward and backward time of each op, at the node, edge and
    graph counts of ``batch``.  Backward is ``backward()`` of ``ad.sum`` of
    the op's output: the op's own backward plus one broadcast of the output
    shape."""
    rng = np.random.default_rng([seed, 3])
    width = model.config.hidden_dim
    n, e = batch.num_nodes, int(batch.edge_src.shape[0])
    x = ad.tensor(rng.standard_normal((n, width)), requires_grad=True)
    msg = ad.tensor(rng.standard_normal((e, width)), requires_grad=True)
    w1 = model.params["layers.0.mlp.weight1"]
    b1 = model.params["layers.0.mlp.bias1"]
    cases = {
        "linear": lambda tape: ad.linear(tape, x, w1, b1),
        "segment_sum": lambda tape: ad.segment_sum(tape, msg, batch.edge_dst, n),
        "segment_mean": lambda tape: ad.segment_mean(
            tape, x, batch.node_graph, batch.num_graphs
        ),
        "embedding_lookup": lambda tape: ad.embedding_lookup(tape, x, batch.edge_src),
    }
    out = {}
    for name, op in cases.items():
        fwd, bwd = [], []
        for _ in range(OP_REPS):
            tape = Tape()
            t0 = time.perf_counter()
            y = op(tape)
            t1 = time.perf_counter()
            loss = ad.sum(tape, y)
            t2 = time.perf_counter()
            backward(tape, loss)
            t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        out[f"autodiff.{name}.fwd_s"] = statistics.median(fwd)
        out[f"autodiff.{name}.bwd_s"] = statistics.median(bwd)
    return out


# ---------------------------------------------------------------------------
# The traced run


def _same_history(a, b) -> bool:
    def key(h):
        return [(e.epoch, e.train_loss, repr(e.val_loss), e.lr) for e in h]

    return key(a) == key(b)


def measure_traced(w: Workload, seed: int, work: Path, ledger: Ledger):
    """Per-layer metrics, the fidelity checks and the tracing overhead.
    Returns (metrics, extra) where extra holds what only the trace file
    records: every encoder layer and the spans."""
    tr = Tracer()
    inputs = setup(w, seed, work, ledger, {})
    cfg = w.pretrain_config(seed)

    for _ in range(PARSE_REPS):
        with tr.span("smiles.parse_corpus"):
            parsed = ledger.call(parse_corpus, inputs.corpus_csv)
    ledger.check(
        "malformed rows rejected exactly",
        len(parsed.failures) == inputs.injected,
        f"{len(parsed.failures)} rows failed, {inputs.injected} injected",
    )
    graphs = parsed.graphs
    pre_graphs = graphs[: w.pretrain_size]

    t0 = time.perf_counter()
    reference = ledger.call(pretrain, pre_graphs, cfg)
    untraced = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tr.span("pretrain"):
        history, trained, batch = traced_pretrain(tr, pre_graphs, cfg)
    traced = time.perf_counter() - t0
    ledger.check(
        "traced pre-training loop matches pretrain()",
        _same_history(history, reference.history)
        and checkpoint_digest(training_module.model_to_checkpoint(trained))
        == checkpoint_digest(training_module.model_to_checkpoint(reference.model)),
        f"traced {history} vs pretrain() {reference.history}",
    )
    check_loss_falls(ledger, pre_graphs, cfg, history, trained)

    with tr.span("training.save_checkpoint"):
        ledger.call(save_checkpoint, inputs.checkpoint_path, reference.checkpoint)
    with tr.span("training.load_checkpoint"):
        ckpt = ledger.call(load_checkpoint, inputs.checkpoint_path)
    model = model_from_checkpoint(ckpt)

    reps = embed_molecules(model, graphs)
    for qi in query_indices(seed, 0, len(graphs), TRACED_QUERIES):
        kwargs = dict(
            bins=RETRIEVE_BINS, samples_per_bin=RETRIEVE_SAMPLES_PER_BIN, seed=seed
        )
        t0 = time.perf_counter()
        report = ledger.call(retrieval_analysis, graphs[qi], graphs, model, **kwargs)
        untraced += time.perf_counter() - t0
        t0 = time.perf_counter()
        with tr.span("query"):
            neighbors = traced_retrieval(tr, graphs[qi], graphs, model, **kwargs)
        traced += time.perf_counter() - t0
        ledger.check(
            "traced retrieval matches retrieval_analysis",
            neighbors == report.neighbors,
            f"query {qi}: neighbours differ",
        )
        check_self_hit(ledger, report, qi, reps)

    with tr.span("datasets.load_labeled_csv"):
        dataset, _ = ledger.call(load_labeled_csv, inputs.labeled_csv, "classification")
    with tr.span("datasets.scaffold_split"):
        split = ledger.call(scaffold_split, dataset.graphs())
    with tr.span("training.finetune"):
        result = ledger.call(
            finetune, dataset, w.finetune_config(seed), checkpoint=ckpt, split=split
        )
    test = split.test_indices
    test_graphs = [dataset.graphs()[i] for i in test]
    with tr.span("training.predict_molecules"):
        scores = ledger.call(predict_molecules, result.model, test_graphs)
    with tr.span("datasets.roc_auc"):
        auc = ledger.call(roc_auc, scores[:, 0], dataset.label_arrays()[0][test, 0])
    ledger.check(
        "finetune AUC finite and reproduced by predict_molecules",
        math.isfinite(auc) and auc == result.test_metric,
        f"AUC {auc} vs finetune's {result.test_metric}",
    )

    med = statistics.median
    step = lambda child: med(tr.per_parent("step", child))  # noqa: E731
    per_query = lambda child: med(tr.per_parent("query", child))  # noqa: E731
    layer_steps = [
        tr.per_parent("step", f"encoder.layer.{k}")
        for k in range(cfg.encoder.num_layers)
    ]
    layers = {f"encoder.layer.{k}.s": med(v) for k, v in enumerate(layer_steps)}
    metrics = {
        "smiles.parse_corpus.s": med(tr.durations("smiles.parse_corpus")),
        "smiles.rows_failed": len(parsed.failures),
        "augment.augment_pair.s": step("augment.augment_pair"),
        "encoder.from_graphs.s": step("encoder.from_graphs"),
        "graph.nodes": float(np.mean(tr.counts("step", "graph.nodes"))),
        "graph.edges": float(np.mean(tr.counts("step", "graph.edges"))),
        "encoder.embed_nodes.s": step("encoder.embed_nodes"),
        **{f"encoder.layer.{k}.s": med(layer_steps[k]) for k in range(SHARED_LAYERS)},
        "encoder.layers.s": med([sum(parts) for parts in zip(*layer_steps)]),
        "encoder.readout.s": step("encoder.readout"),
        "encoder.project.s": step("encoder.project"),
        "contrastive.nt_xent.s": step("contrastive.nt_xent"),
        "autodiff.tape_records": float(np.mean(tr.counts("step", "autodiff.tape_records"))),
        "autodiff.backward.s": step("autodiff.backward"),
        **op_timings(trained, batch, seed),
        "training.adam_step.s": step("training.adam_step"),
        "training.predict_molecules.s": med(tr.durations("training.predict_molecules")),
        "training.load_checkpoint.s": med(tr.durations("training.load_checkpoint")),
        "training.save_checkpoint.s": med(tr.durations("training.save_checkpoint")),
        "training.checkpoint_bytes": inputs.checkpoint_path.stat().st_size,
        "datasets.load_labeled_csv.s": med(tr.durations("datasets.load_labeled_csv")),
        "datasets.scaffold_split.s": med(tr.durations("datasets.scaffold_split")),
        "datasets.roc_auc.s": med(tr.durations("datasets.roc_auc")),
        "fingerprints.circular_fp.s": per_query("fingerprints.circular_fp"),
        "fingerprints.path_fp.s": per_query("fingerprints.path_fp"),
        "fingerprints.dice.s": per_query("fingerprints.dice"),
        "fingerprints.cosine_distance.s": per_query("fingerprints.cosine_distance"),
        "encoder.embed_molecules.s": per_query("encoder.embed_molecules"),
        "trace.overhead": traced / untraced,
    }
    extra = {
        "encoder_layers": layers,
        "steps": len(tr.durations("step")),
        "queries": len(tr.durations("query")),
        "traced_s": traced,
        "untraced_s": untraced,
        "spans": tr.spans,
    }
    return metrics, extra
