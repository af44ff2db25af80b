"""Command-line entry point.

Subcommands cover the full pipeline: contrastive pre-training,
supervised fine-tuning, embedding export, representation-space
retrieval, augmentation preview, scaffold splitting, the gradient
oracle, and the two ablation sweeps.  All file outputs are CSV; a run
that succeeds writes them into its output directory, next to its
fully-resolved configuration in the same `key = value` format the
--config flag reads, so a run can be reproduced from its own output
directory.  A run that fails creates no output directory.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
abort.  See MANUAL.md for every flag and file format.
"""

from __future__ import annotations

import argparse
import inspect
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .augment import STRATEGIES, AugmentSpec, augment_view, derive_rng
from .autodiff import gradcheck_report, set_threads
from .datasets import Split, _fractions_problem, load_labeled_csv, scaffold_split
from .encoder import (
    ACTIVATIONS,
    BACKBONES,
    TASK_KINDS,
    EncoderConfig,
    HeadSpec,
    _check_model_size,
    embed_molecules,
)
from .errors import ConfigError, DataError, NumericAbort
from .fileio import atomic_write, write_csv
from .fingerprints import _check_retrieval, retrieval_analysis
from .graph import format_graph
from .smiles import parse_corpus, parse_smiles
from .training import (
    REGRESSION_METRICS,
    FinetuneConfig,
    PretrainConfig,
    finetune,
    load_checkpoint,
    model_from_checkpoint,
    model_to_checkpoint,
    pretrain,
    save_checkpoint,
    write_trace_csv,
)

__all__ = ["main", "build_parser"]

# The configs own every hyper-parameter's default; flags read them from here.
_PRETRAIN = PretrainConfig()
_FINETUNE = FinetuneConfig()


def _default(fn, name: str):
    """The default of ``fn``'s parameter ``name``, for the flag that feeds it."""
    return inspect.signature(fn).parameters[name].default


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through the exit-code scheme."""

    def error(self, message: str):  # noqa: D102 - argparse override
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_COMMENT = re.compile(r"(?:^|\s)#")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a `key = value` config file.  A '#' at the start of a line or
    after whitespace starts a comment; one inside a value (``C#N``) does not."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # not UTF-8, or a NUL byte in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def _config_defaults(sub: argparse.ArgumentParser, path: Path) -> dict:
    raw = load_config_file(path)
    actions = {a.dest: a for a in sub._actions if a.option_strings}
    defaults: dict = {}
    for key, text in raw.items():
        dest = key.replace("-", "_")
        if dest in ("help", "config") or dest not in actions:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        action = actions[dest]
        if isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            value: object = _parse_bool(text)
        elif action.type is not None:
            try:
                value = action.type(text)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad value for {key!r}: {text!r}") from exc
        else:
            value = text
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"{path}: {key!r} must be one of {list(action.choices)}, "
                f"got {text!r}"
            )
        defaults[dest] = value
    return defaults


def _reads_back(value: str) -> bool:
    """Whether :func:`load_config_file` reads ``key = value`` back as
    ``value``: UTF-8 text (a path that is not holds surrogates) on one line,
    with no surrounding whitespace and no comment."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    one_line = "".join(value.splitlines()) == value == value.strip()
    return one_line and _COMMENT.search(value) is None


def _resolved_lines(args: argparse.Namespace) -> list[str]:
    """The ``key = value`` lines of ``config_resolved.txt``.  A string value
    that would not read back as itself is a config error: ``main`` calls
    this before the work, so the run ends there."""
    skip = {"func", "command", "config", "threads"}
    lines = []
    for dest in sorted(vars(args)):
        value = getattr(args, dest)
        if dest in skip or value is None or callable(value):
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, str) and not _reads_back(value):
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(
                f"{flag} {value!r} would not read back from config_resolved.txt "
                "(line break, surrounding whitespace, '#' after whitespace, or not UTF-8)"
            )
        lines.append(f"{dest} = {value}")
    return lines


def _out_dir(args: argparse.Namespace) -> Path:
    """Create ``--out`` and write the resolved configuration into it.  Each
    command calls this once, after its work has succeeded, so a run that
    fails leaves no directory behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot create it: {exc}") from exc
    _write_text(out / "config_resolved.txt", "\n".join(_resolved_lines(args)) + "\n")
    return out


def _require(args: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest, None) is None:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} is required")


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Shared flag groups


def _option(sp, flag: str, default, text: str = "", choices=None) -> None:
    """Add ``flag``, typed like its ``default`` (so a float field's default
    must be written as a float); its help ends in the default."""
    sp.add_argument(
        flag,
        type=type(default),
        choices=choices,
        default=default,
        help=f"{text} (default: %(default)s)".lstrip(),
    )


def _add_augment_flags(sp: argparse.ArgumentParser) -> None:
    spec = _PRETRAIN.augment
    _option(sp, "--strategy", spec.strategy, "augmentation strategy", STRATEGIES)
    _option(sp, "--ratio", spec.subgraph_ratio, "subgraph removal ratio")
    _option(sp, "--mask-ratio", spec.mask_ratio, "atom masking ratio")
    _option(sp, "--delete-ratio", spec.delete_ratio, "bond deletion ratio")


def _add_encoder_flags(sp: argparse.ArgumentParser) -> None:
    enc = _PRETRAIN.encoder
    _option(sp, "--backbone", enc.backbone, "message-passing backbone", BACKBONES)
    _option(sp, "--layers", enc.num_layers, "GNN layers")
    _option(sp, "--hidden", enc.hidden_dim, "node state width")
    _option(sp, "--latent", enc.latent_dim, "contrastive projection width")


def _add_ablation_flags(sp: argparse.ArgumentParser, temperature: bool) -> None:
    sp.add_argument("--data", help="labeled CSV (pre-training uses the same molecules)")
    _option(sp, "--task", TASK_KINDS[0], choices=TASK_KINDS)
    _option(sp, "--pretrain-epochs", 20)
    sp.add_argument(
        "--warm-epochs",
        type=int,
        default=None,
        help="flat-rate epochs before decay (default: "
        f"min({_PRETRAIN.warm_epochs}, pretrain epochs))",
    )
    _option(sp, "--finetune-epochs", 30)
    _option(sp, "--batch", 64, "pre-training batch")
    _option(sp, "--finetune-batch", _FINETUNE.batch_size)
    if temperature:
        _option(sp, "--temperature", _PRETRAIN.temperature)
    _option(sp, "--lr-head", _FINETUNE.lr_head)
    _option(sp, "--lr-base", _FINETUNE.lr_base)
    sp.add_argument(
        "--free-values",
        action="store_true",
        help="allow fine-tune values outside the search grid",
    )
    _add_augment_flags(sp)
    _add_encoder_flags(sp)


def _augment_spec(args: argparse.Namespace) -> AugmentSpec:
    return AugmentSpec(
        strategy=args.strategy,
        mask_ratio=args.mask_ratio,
        delete_ratio=args.delete_ratio,
        subgraph_ratio=args.ratio,
    )


def _encoder_config(args: argparse.Namespace, dropout: float = 0.0) -> EncoderConfig:
    return EncoderConfig(
        backbone=args.backbone,
        num_layers=args.layers,
        hidden_dim=args.hidden,
        latent_dim=args.latent,
        dropout=dropout,
    )


def _head_bound(task: str, cfg: FinetuneConfig) -> HeadSpec:
    """The prediction head that ``cfg`` builds for one task of kind
    ``task``: before the data is read, the smallest head the run can draw."""
    return HeadSpec(task, 1, cfg.n_layer, cfg.hidden_dim, cfg.activation, cfg.dropout)


def _load_molecules(path: str, task: str | None = None):
    """The corpus (no ``task``) or labeled dataset at ``path``.  Rows that
    fail to parse are skipped with one warning; none left is a data error."""
    if task is None:
        loaded = parse_corpus(path)
        failures = loaded.failures
    else:
        loaded, failures = load_labeled_csv(path, task)
    if failures:
        print(
            f"warning: {len(failures)} of {len(loaded.rows) + len(failures)} rows "
            f"failed to parse",
            file=sys.stderr,
        )
    if not loaded.rows:
        raise DataError(f"no parseable molecules in {path}")
    return loaded


def _finetune_config(**fields) -> FinetuneConfig:
    """``FinetuneConfig(**fields)``, with each warning about a value outside
    the search grid printed as one ``warning:`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = FinetuneConfig(**fields)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return cfg


# ---------------------------------------------------------------------------
# Subcommands


def cmd_pretrain(args: argparse.Namespace) -> int:
    _require(args, "data")
    cfg = PretrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        warm_epochs=args.warm_epochs,
        weight_decay=args.weight_decay,
        temperature=args.temperature,
        augment=_augment_spec(args),
        encoder=_encoder_config(args, args.dropout),
        val_fraction=args.val_fraction,
        seed=args.seed,
    )
    _check_model_size(cfg.encoder)
    corpus = _load_molecules(args.data)
    result = pretrain(corpus.graphs, cfg)
    out = _out_dir(args)
    save_checkpoint(out / "checkpoint.bin", result.checkpoint)
    write_trace_csv(out / "loss.csv", result.history)
    last = result.history[-1]
    print(
        f"pretrained on {len(corpus.rows)} molecules for {cfg.epochs} epochs; "
        f"final train loss {last.train_loss:.4f}"
    )
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'loss.csv'}")
    return 0


def _metric_rows(result, dataset) -> list[list]:
    rows: list[list] = [["best_epoch", result.best_epoch]]
    rows.append([f"val_{result.metric_name}", f"{result.val_metric:.6f}"])
    for name, value in sorted(result.metrics.items()):
        rows.append([f"test_{name}", f"{value:.6f}"])
    for task, value in zip(dataset.task_names, result.per_task_test):
        rows.append(
            [
                f"test_{result.metric_name}.{task}",
                "undefined" if value is None else f"{value:.6f}",
            ]
        )
    return rows


def cmd_finetune(args: argparse.Namespace) -> int:
    _require(args, "data")
    if args.checkpoint and args.no_pretrain:
        raise ConfigError("--checkpoint and --no-pretrain are mutually exclusive")

    cfg = _finetune_config(
        epochs=args.epochs,
        batch_size=args.batch,
        lr_head=args.lr_head,
        lr_base=args.lr_base,
        dropout=args.dropout,
        n_layer=args.n_layer,
        hidden_dim=args.head_hidden,
        activation=args.activation,
        cosine_decay=args.cosine_decay,
        regression_metric=args.metric,
        seed=args.seed,
        free_values=args.free_values,
    )
    augment = _augment_spec(args) if args.augment else None
    # Encoder flags apply only without a checkpoint, which fixes the encoder.
    encoder = None if args.checkpoint else _encoder_config(args)
    _check_model_size(encoder, _head_bound(args.task, cfg))
    dataset = _load_molecules(args.data, args.task)
    checkpoint = load_checkpoint(args.checkpoint) if args.checkpoint else None
    result = finetune(dataset, cfg, checkpoint=checkpoint, encoder=encoder, augment=augment)
    extra: dict = {"task_names": list(dataset.task_names)}
    if result.target_stats is not None:
        extra["target_mean"] = result.target_stats.mean.tolist()
        extra["target_std"] = result.target_stats.std.tolist()
    out = _out_dir(args)
    save_checkpoint(
        out / "model.bin",
        model_to_checkpoint(result.model, epoch=cfg.epochs, extra=extra),
    )
    write_csv(out / "metrics.csv", ["name", "value"], _metric_rows(result, dataset))
    write_trace_csv(out / "trace.csv", result.history)
    print(
        f"best epoch {result.best_epoch}: validation {result.metric_name} "
        f"{result.val_metric:.4f}, test {result.metric_name} "
        f"{result.test_metric:.4f}"
    )
    print(f"wrote {out / 'model.bin'}, {out / 'metrics.csv'}, {out / 'trace.csv'}")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    _require(args, "data", "checkpoint")
    corpus = _load_molecules(args.data)
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    reps = embed_molecules(model, corpus.graphs)
    out = _out_dir(args)
    header = ["index", "smiles"] + [f"h{j}" for j in range(reps.shape[1])]
    rows = [
        [row.index, row.smiles] + [f"{v:.9g}" for v in reps[i]]
        for i, row in enumerate(corpus.rows)
    ]
    write_csv(out / "embeddings.csv", header, rows)
    print(f"wrote {len(rows)} embeddings of width {reps.shape[1]} to {out / 'embeddings.csv'}")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    _require(args, "data", "checkpoint", "query")
    _check_retrieval(args.bins, args.samples_per_bin, args.top)
    corpus = _load_molecules(args.data)
    if len(corpus.rows) < args.bins:
        raise DataError(
            f"corpus of {len(corpus.rows)} molecules is smaller than "
            f"{args.bins} bins"
        )
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    query = parse_smiles(args.query)
    report = retrieval_analysis(
        query,
        corpus.graphs,
        model,
        bins=args.bins,
        samples_per_bin=args.samples_per_bin,
        seed=args.seed,
        top_k=args.top,
    )
    out = _out_dir(args)
    write_csv(
        out / "bins.csv",
        ["bin", "fp_kind", "mean_dice", "std_dice", "sample_size"],
        [
            [s.bin_index, s.fp_kind, f"{s.mean:.6f}", f"{s.std:.6f}", s.sample_size]
            for s in report.bins
        ],
    )
    write_csv(
        out / "neighbors.csv",
        ["rank", "corpus_index", "smiles", "cosine_distance", "dice_circular", "dice_path"],
        [
            [
                n.rank,
                n.corpus_index,
                corpus.rows[n.corpus_index].smiles,
                f"{n.cosine_distance:.6f}",
                f"{n.dice_circular:.6f}",
                f"{n.dice_path:.6f}",
            ]
            for n in report.neighbors
        ],
    )
    near = report.neighbors[0]
    print(
        f"ranked {report.corpus_size} molecules into {report.bin_count} bins; "
        f"nearest: index {near.corpus_index} "
        f"({corpus.rows[near.corpus_index].smiles}), "
        f"distance {near.cosine_distance:.4f}"
    )
    print(f"wrote {out / 'bins.csv'} and {out / 'neighbors.csv'}")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    if (args.smiles is None) == (args.data is None):
        raise ConfigError("exactly one of --smiles or --data is required")
    if args.views < 1:
        raise ConfigError(f"--views must be >= 1, got {args.views}")
    spec = _augment_spec(args)
    if args.smiles is not None:
        graph = parse_smiles(args.smiles)
        index = 0
        label = args.smiles
    else:
        corpus = _load_molecules(args.data)
        if not 0 <= args.index < len(corpus.rows):
            raise DataError(
                f"--index {args.index} outside corpus of {len(corpus.rows)}"
            )
        row = corpus.rows[args.index]
        graph = row.graph
        index = row.index
        label = row.smiles
    rng = derive_rng(args.seed, 0, 0, index)
    blocks = [f"molecule {label}", format_graph(graph)]
    for k in range(args.views):
        view = augment_view(graph, spec, rng, index)
        masked = ",".join(map(str, sorted(view.masked_nodes))) or "-"
        deleted = (
            ";".join(f"{u}-{v}" for u, v in sorted(view.deleted_edges)) or "-"
        )
        blocks.append(
            f"view {k} strategy {spec.strategy} masked {masked} deleted {deleted}"
        )
        blocks.append(format_graph(view.graph))
    text = "\n".join(blocks) + "\n"
    print(text, end="")
    if args.out is not None:
        out = _out_dir(args)
        _write_text(out / "views.txt", text)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    _require(args, "data")
    try:
        parts = tuple(float(p) for p in args.fractions.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --fractions {args.fractions!r}") from exc
    problem = _fractions_problem(parts)
    if problem is not None:
        raise ConfigError(f"--fractions: {problem}")
    corpus = _load_molecules(args.data)
    assignment = scaffold_split(corpus.graphs, parts)
    names = {Split.TRAIN: "train", Split.VALID: "valid", Split.TEST: "test"}
    out = _out_dir(args)
    write_csv(
        out / "split.csv",
        ["index", "smiles", "split"],
        [
            [row.index, row.smiles, names[assignment.assignment[i]]]
            for i, row in enumerate(corpus.rows)
        ],
    )
    counts = {name: 0 for name in names.values()}
    for part in assignment.assignment:
        counts[names[part]] += 1
    print(
        f"split {len(corpus.rows)} molecules: "
        + ", ".join(f"{k} {v}" for k, v in counts.items())
    )
    print(f"wrote {out / 'split.csv'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    threshold = args.threshold
    if not 0 <= threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and >= 0, got {threshold}")
    report = gradcheck_report(seed=args.seed, eps=args.eps)
    failures = []
    for op in sorted(report):
        ok = report[op] < threshold
        print(f"{op:<28s} {report[op]:.3e}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(op)
    if failures:
        raise NumericAbort(
            f"gradient check failed for {len(failures)} op(s): "
            + ", ".join(failures)
        )
    if args.out is not None:
        write_csv(
            _out_dir(args) / "gradcheck.csv",
            ["op", "max_rel_error"],
            [[op, f"{report[op]:.6e}"] for op in sorted(report)],
        )
    print(f"all {len(report)} ops within {threshold:g}")
    return 0


_TEMPERATURES = (0.05, 0.1, 0.5)


def _ablation_sweep(args, column, values, vary, label) -> int:
    """Pre-train then fine-tune once per value, on the pre-training config
    ``vary(cfg, value)``; prints ``label.format(value)`` and the run's
    scores, and writes one CSV row per run to ``<command>.csv``.  The
    configs are built first, so bad flags fail before any data is read, and
    the one scaffold split that every run fine-tunes on is made before any
    pre-training, so too few scaffold groups fail before any training."""
    _require(args, "data")
    warm = (
        args.warm_epochs
        if args.warm_epochs is not None
        else min(_PRETRAIN.warm_epochs, args.pretrain_epochs)
    )
    pre_cfg = PretrainConfig(
        epochs=args.pretrain_epochs,
        batch_size=args.batch,
        warm_epochs=warm,
        # ablate_temp has no --temperature: each run sets its own.
        temperature=getattr(args, "temperature", _TEMPERATURES[0]),
        augment=_augment_spec(args),
        encoder=_encoder_config(args),
        seed=args.seed,
    )
    ft_cfg = _finetune_config(
        epochs=args.finetune_epochs,
        batch_size=args.finetune_batch,
        lr_head=args.lr_head,
        lr_base=args.lr_base,
        seed=args.seed,
        free_values=args.free_values,
    )
    _check_model_size(pre_cfg.encoder, _head_bound(args.task, ft_cfg))
    dataset = _load_molecules(args.data, args.task)
    graphs = dataset.graphs()
    split = scaffold_split(graphs)
    rows = []
    for value in values:
        pre = pretrain(graphs, vary(pre_cfg, value))
        result = finetune(dataset, ft_cfg, checkpoint=pre.checkpoint, split=split)
        loss = pre.history[-1].train_loss
        val, test = result.val_metric, result.test_metric
        rows.append([value, f"{loss:.6f}", result.best_epoch, f"{val:.6f}", f"{test:.6f}"])
        print(
            f"{label.format(value)} pretrain loss {loss:.4f}  "
            f"test {result.metric_name} {test:.4f}"
        )
    out = _out_dir(args)
    path = out / f"{args.command}.csv"
    write_csv(path, [column, "pretrain_loss", "best_epoch", "val_metric", "test_metric"], rows)
    print(f"wrote {path}")
    return 0


def cmd_ablate_aug(args: argparse.Namespace) -> int:
    vary = lambda cfg, s: replace(cfg, augment=replace(cfg.augment, strategy=s))  # noqa: E731
    return _ablation_sweep(args, "strategy", STRATEGIES, vary, "{:<16s}")


def cmd_ablate_temp(args: argparse.Namespace) -> int:
    vary = lambda cfg, tau: replace(cfg, temperature=tau)  # noqa: E731
    return _ablation_sweep(args, "temperature", _TEMPERATURES, vary, "tau {:<5g}")


# ---------------------------------------------------------------------------
# Parser assembly


def _common(sp: argparse.ArgumentParser, out_default: str | None) -> None:
    sp.add_argument("--config", help="key = value config file; flags override it")
    _option(sp, "--seed", _PRETRAIN.seed, "random seed")
    sp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="threads for inference batches, large matrix products and large Adam "
        "steps; results do not depend on it (default: the usable CPUs)",
    )
    if out_default is not None:
        sp.add_argument(
            "--out", default=out_default, help="output directory (default: %(default)s)"
        )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="molcontrast",
        description="Contrastive molecular representation learning toolkit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    index: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, help_text: str, out_default: str | None):
        sp = subs.add_parser(name, help=help_text)
        _common(sp, out_default)
        index[name] = sp
        return sp

    sp = sub("pretrain", "contrastive pre-training on an unlabeled corpus", "pretrain_run")
    sp.add_argument("--data", help="CSV with a 'smiles' column")
    _option(sp, "--epochs", _PRETRAIN.epochs)
    _option(sp, "--batch", _PRETRAIN.batch_size)
    _option(sp, "--lr", _PRETRAIN.lr)
    _option(sp, "--warm-epochs", _PRETRAIN.warm_epochs)
    _option(sp, "--weight-decay", _PRETRAIN.weight_decay)
    _option(sp, "--temperature", _PRETRAIN.temperature)
    _option(sp, "--val-fraction", _PRETRAIN.val_fraction)
    _option(sp, "--dropout", _PRETRAIN.encoder.dropout, "encoder dropout")
    _add_augment_flags(sp)
    _add_encoder_flags(sp)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub("finetune", "supervised training on a labeled, scaffold-split dataset", "finetune_run")
    sp.add_argument("--data", help="CSV with 'smiles' plus one column per task")
    _option(sp, "--task", TASK_KINDS[0], choices=TASK_KINDS)
    sp.add_argument("--checkpoint", help="pre-trained checkpoint to start from")
    sp.add_argument(
        "--no-pretrain",
        action="store_true",
        help="random initialization (explicit; default when no --checkpoint)",
    )
    sp.add_argument(
        "--augment",
        action="store_true",
        help="apply graph augmentation to training inputs",
    )
    _option(sp, "--epochs", _FINETUNE.epochs)
    _option(sp, "--batch", _FINETUNE.batch_size)
    _option(sp, "--lr-head", _FINETUNE.lr_head)
    _option(sp, "--lr-base", _FINETUNE.lr_base)
    _option(sp, "--dropout", _FINETUNE.dropout, "head dropout")
    _option(sp, "--n-layer", _FINETUNE.n_layer, "head hidden layers")
    _option(sp, "--head-hidden", _FINETUNE.hidden_dim)
    _option(sp, "--activation", _FINETUNE.activation, choices=ACTIVATIONS)
    sp.add_argument("--cosine-decay", action="store_true", help="cosine-decay both learning rates")
    _option(
        sp,
        "--metric",
        _FINETUNE.regression_metric,
        "regression model-selection metric",
        REGRESSION_METRICS,
    )
    sp.add_argument(
        "--free-values",
        action="store_true",
        help="allow hyper-parameters outside the documented search grid",
    )
    _add_augment_flags(sp)
    _add_encoder_flags(sp)
    sp.set_defaults(func=cmd_finetune)

    sp = sub("embed", "write per-molecule representations as CSV", "embed_run")
    sp.add_argument("--data", help="CSV with a 'smiles' column")
    sp.add_argument("--checkpoint", help="trained checkpoint")
    sp.set_defaults(func=cmd_embed)

    sp = sub("retrieve", "rank a corpus around a query molecule", "retrieve_run")
    sp.add_argument("--data", help="CSV with a 'smiles' column")
    sp.add_argument("--checkpoint", help="trained checkpoint")
    sp.add_argument("--query", help="query molecule as SMILES")
    _option(sp, "--bins", _default(retrieval_analysis, "bins"))
    sp.add_argument(
        "--samples-per-bin",
        type=int,
        default=None,
        help="fingerprint sample size per bin (default: whole bin)",
    )
    _option(sp, "--top", _default(retrieval_analysis, "top_k"), "neighbors to report")
    sp.set_defaults(func=cmd_retrieve)

    sp = sub("augment", "preview augmented views of one molecule", None)
    sp.add_argument("--smiles", help="molecule as SMILES text")
    sp.add_argument("--data", help="CSV with a 'smiles' column")
    _option(sp, "--index", 0, "row in --data")
    _option(sp, "--views", 2, "views to draw")
    sp.add_argument("--out", default=None, help="optional output directory")
    _add_augment_flags(sp)
    sp.set_defaults(func=cmd_augment)

    sp = sub("split", "scaffold split a dataset and write assignments", "split_run")
    sp.add_argument("--data", help="CSV with a 'smiles' column")
    sp.add_argument(
        "--fractions",
        default=",".join(map(str, _default(scaffold_split, "fractions"))),
        help="train,valid,test fractions (default: %(default)s)",
    )
    sp.set_defaults(func=cmd_split)

    sp = sub("gradcheck", "run the finite-difference gradient oracle", None)
    _option(sp, "--eps", _default(gradcheck_report, "eps"), "FD step")
    _option(sp, "--threshold", 1e-4, "max relative error allowed")
    sp.add_argument("--out", default=None, help="optional output directory")
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub("ablate_aug", "compare augmentation strategies end to end", "ablate_aug_run")
    _add_ablation_flags(sp, temperature=True)
    sp.set_defaults(func=cmd_ablate_aug)

    sp = sub("ablate_temp", "sweep the contrastive temperature", "ablate_temp_run")
    _add_ablation_flags(sp, temperature=False)
    sp.set_defaults(func=cmd_ablate_temp)

    return parser, index


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, index = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            sub = index[args.command]
            sub.set_defaults(**_config_defaults(sub, Path(args.config)))
            args = parser.parse_args(argv)
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # --out is created after the work; a file in its place, or in place
        # of a directory above it, a NUL byte, or a value
        # config_resolved.txt cannot hold, would end it there.
        if getattr(args, "out", None) is not None:
            _resolved_lines(args)
            if "\0" in args.out:
                raise ConfigError(f"--out {args.out!r}: a path cannot hold a NUL byte")
            out = Path(args.out).absolute()
            try:
                existing = next(p for p in (out, *out.parents) if p.exists())
            except OSError as exc:  # a name too long, or a directory it may not search
                raise ConfigError(f"--out {args.out}: {exc}") from exc
            if not existing.is_dir():
                raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            set_threads(args.threads)
        return args.func(args)
    except ConfigError as exc:
        return _report("config error", exc, 1)
    except DataError as exc:
        return _report("data error", exc, 2)
    except NumericAbort as exc:
        return _report("numeric abort", exc, 3)


# Every character ``str.splitlines`` breaks at, mapped to its escape.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _report(kind: str, exc: Exception, code: int) -> int:
    """Print ``kind: exc`` as one stderr line, and return the exit code: a
    message that quotes a path or value from the command line escapes its
    line breaks."""
    print(f"{kind}: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
