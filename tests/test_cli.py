"""End-to-end command-line interface runs, in process via main()."""

import contextlib
import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import molcontrast.cli as cli_module
import molcontrast.encoder as encoder_module
from molcontrast import autodiff as ad
from molcontrast.autodiff import gradcheck_report
from molcontrast.cli import build_parser, load_config_file, main
from molcontrast.datasets import scaffold_split
from molcontrast.errors import ConfigError
from molcontrast.fingerprints import retrieval_analysis
from molcontrast.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from molgen import write_corpus_csv, write_labeled_csv

PRETRAIN_FAST = [
    "--epochs", "2", "--batch", "8", "--warm-epochs", "0",
    "--layers", "2", "--hidden", "8", "--latent", "4", "--val-fraction", "0",
]
FINETUNE_FAST = [
    "--epochs", "2", "--batch", "32", "--head-hidden", "16",
    "--layers", "2", "--hidden", "8", "--latent", "4",
]
ABLATE_FAST = [
    "--pretrain-epochs", "1", "--warm-epochs", "0", "--finetune-epochs", "1",
    "--batch", "8", "--finetune-batch", "32",
    "--layers", "2", "--hidden", "8", "--latent", "4",
]


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    write_corpus_csv(path, 24, seed=1)
    return path


@pytest.fixture(scope="module")
def labeled_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "labeled.csv"
    write_labeled_csv(path, 30, seed=6)
    return path


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, corpus_csv):
    out = tmp_path_factory.mktemp("pre")
    rc = main(["pretrain", "--data", str(corpus_csv), "--out", str(out)] + PRETRAIN_FAST)
    assert rc == 0
    return out


# -- exit codes --------------------------------------------------------------


def test_success_is_zero(capsys):
    assert main(["augment", "--smiles", "CCO"]) == 0
    assert "molecule CCO" in capsys.readouterr().out


def test_config_error_is_one(capsys):
    assert main(["pretrain"]) == 1  # --data missing
    assert "config error" in capsys.readouterr().err
    assert main(["pretrain", "--no-such-flag"]) == 1
    assert main(["no_such_command"]) == 1
    assert main(["finetune", "--data", "x.csv", "--checkpoint", "c", "--no-pretrain"]) == 1


def test_data_error_is_two(tmp_path, capsys):
    assert main(["pretrain", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "o")] + PRETRAIN_FAST) == 2
    assert "data error" in capsys.readouterr().err
    assert main(["augment", "--smiles", "C1CC"]) == 2


def test_numeric_abort_is_three(capsys):
    assert main(["gradcheck", "--threshold", "0"]) == 3
    assert "numeric abort" in capsys.readouterr().err


def test_warm_epochs_must_fit_inside_epochs(corpus_csv, tmp_path):
    # default warm-epochs is 10; a 2-epoch run must override it
    rc = main(["pretrain", "--data", str(corpus_csv), "--epochs", "2",
               "--batch", "8", "--out", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--layers", "0"),
        ("--hidden", "0"),
        ("--temperature", "0"),
        ("--ratio", "1.5"),
        ("--epochs", "0"),
        ("--threads", "0"),
    ],
)
def test_bad_hyper_parameter_is_a_config_error_before_data(flag, value, tmp_path):
    # A fresh process, so an escaping exception shows as a traceback.  The
    # data file does not exist: validation must come before the corpus is
    # read, or this would be a data error (exit 2).
    argv = ["pretrain", "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "o")] + PRETRAIN_FAST + [flag, value]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "molcontrast.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_undefined_test_metric_is_a_data_error(pretrained, tmp_path):
    # This labeled set's scaffold split leaves one class in the test split,
    # so the test ROC-AUC is undefined.  A fresh process, so an escaping
    # exception shows as a traceback.
    data = tmp_path / "lab.csv"
    write_labeled_csv(data, 60, seed=2)
    argv = ["finetune", "--data", str(data), "--out", str(tmp_path / "o"),
            "--checkpoint", str(pretrained / "checkpoint.bin"),
            "--epochs", "2", "--batch", "32", "--head-hidden", "16"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "molcontrast.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("data error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["finetune", "--layers", "0"],
        ["finetune", "--augment", "--ratio", "1.5"],
        ["ablate_aug", "--temperature", "0"],
        ["ablate_temp", "--hidden", "0"],
    ],
)
def test_other_commands_validate_before_data(argv, tmp_path, capsys):
    rc = main(argv + ["--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error:")


_ONE_EPOCH = ["--epochs", "1", "--warm-epochs", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pretrain", *_ONE_EPOCH, "--hidden", str(2**64)],
        ["pretrain", *_ONE_EPOCH, "--hidden", str(2**40)],
        ["pretrain", *_ONE_EPOCH, "--layers", str(10**12)],
        ["finetune", "--epochs", "1", "--head-hidden", str(2**40), "--checkpoint", "{absent}"],
        ["ablate_aug", "--pretrain-epochs", "1", "--warm-epochs", "0", "--latent", str(2**40)],
    ],
)
def test_oversized_models_are_config_errors_before_anything_is_read_or_drawn(
    argv, corpus_csv, tmp_path, monkeypatch, capsys
):
    def forbidden(*args, **kwargs):
        pytest.fail("read data or drew parameters")

    monkeypatch.setattr(cli_module, "_load_molecules", forbidden)
    monkeypatch.setattr(encoder_module, "_draw", forbidden)
    argv = [str(tmp_path / "absent.bin") if a == "{absent}" else a for a in argv]
    assert main(argv + ["--data", str(corpus_csv), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the model has ") and err.count("\n") == 1, err
    assert "bytes as float32" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["augment", "--smiles", "CCO", "--seed", "-1"], "--seed"),
        (["pretrain", "--data", "{absent}", "--seed", "-1"], "--seed"),
        (["retrieve", "--data", "{absent}", "--seed", "-1"], "--seed"),
        (["retrieve", "--data", "{absent}", "--bins", "0"], "bins"),
        (["retrieve", "--data", "{absent}", "--samples-per-bin", "-1"], "samples_per_bin"),
        (["retrieve", "--data", "{absent}", "--samples-per-bin", "0"], "samples_per_bin"),
        (["retrieve", "--data", "{absent}", "--top", "0"], "top_k"),
        (["gradcheck", "--eps", "0"], "eps"),
        (["finetune", "--data", "{absent}", "--head-hidden", "0"], "hidden_dim"),
        (["finetune", "--data", "{absent}", "--batch", "0", "--free-values"], "batch_size"),
        (["split", "--data", "{absent}", "--fractions", "0.5,0.6,0.1"], "--fractions"),
        (["split", "--data", "{absent}", "--fractions", "0,0.5,0.5"], "--fractions"),
        (["split", "--data", "{absent}", "--fractions", "nan,0.5,0.5"], "--fractions"),
        (["finetune", "--data", "{absent}", "--free-values", "--n-layer", "0"], "n_layer"),
        (["finetune", "--data", "{absent}", "--free-values", "--dropout", "1.5"], "dropout"),
        (["finetune", "--data", "{absent}", "--free-values", "--lr-head", "-1"], "lr_head"),
        (["ablate_aug", "--data", "{absent}", "--free-values", "--lr-base", "0"], "lr_base"),
        (["pretrain", "--data", "{absent}", "--weight-decay", "-1"], "weight_decay"),
        (["augment", "--data", "{absent}", "--views", "0"], "--views"),
        # Non-finite numbers: each is rejected where its field is checked.
        (["pretrain", "--data", "{absent}", "--temperature", "nan"], "temperature"),
        (["pretrain", "--data", "{absent}", "--temperature", "inf"], "temperature"),
        (["pretrain", "--data", "{absent}", "--lr", "inf"], "lr"),
        (["pretrain", "--data", "{absent}", "--lr", "nan"], "lr"),
        (["pretrain", "--data", "{absent}", "--weight-decay", "inf"], "weight_decay"),
        (["finetune", "--data", "{absent}", "--free-values", "--lr-head", "inf"], "lr_head"),
        (["finetune", "--data", "{absent}", "--free-values", "--lr-base", "inf"], "lr_base"),
        (["ablate_aug", "--data", "{absent}", "--temperature", "inf"], "temperature"),
        (["gradcheck", "--eps", "inf"], "eps"),
        (["gradcheck", "--eps", "nan"], "eps"),
        (["gradcheck", "--threshold", "nan"], "--threshold"),
        (["gradcheck", "--threshold", "inf"], "--threshold"),
        (["gradcheck", "--threshold", "-1"], "--threshold"),
    ],
)
def test_bad_flag_values_are_config_errors_before_data(argv, named, tmp_path, capsys):
    # The data and checkpoint files do not exist: a check made after they
    # are read would end in a data error (exit 2) instead.
    absent = str(tmp_path / "absent.csv")
    argv = [absent if a == "{absent}" else a for a in argv]
    if argv[0] == "retrieve":
        argv += ["--checkpoint", absent, "--query", "CCO"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err


def test_out_naming_a_file_is_a_config_error_before_data(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    argv = ["split", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "f")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err, err


def test_out_below_a_file_is_a_config_error_before_the_work(tmp_path, capsys):
    # The data is real, so without the check the split would run and only
    # the final mkdir would fail.
    data = tmp_path / "c.csv"
    write_corpus_csv(data, 24, seed=1)
    assert main(["split", "--data", str(data), "--out", str(data / "sub")]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    assert "--out" in err and captured.out == ""
    assert data.is_file()


@pytest.mark.parametrize(
    "command, line, error",
    [
        ("embed", "checkpoint = a\0b.bin", "data error: cannot read checkpoint"),
        ("split", "out = o\0x", "config error: --out"),
        ("augment", "out = o\0x", "config error: --out"),
    ],
)
def test_nul_byte_paths_end_in_one_line(command, line, error, tmp_path, monkeypatch, capsys):
    # Real data, so each run gets as far as the path: the checkpoint is
    # read after the corpus, and --out is checked before the work.
    monkeypatch.chdir(tmp_path)
    write_corpus_csv(tmp_path / "c.csv", 24, seed=1)
    (tmp_path / "run.cfg").write_text(line + "\n", encoding="utf-8")
    rc = main([command, "--data", "c.csv", "--config", "run.cfg"])
    captured = capsys.readouterr()
    assert rc == (2 if error.startswith("data") else 1)
    assert captured.err.startswith(error) and captured.err.count("\n") == 1, captured.err
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "run.cfg"]


def test_a_config_path_with_a_nul_byte_is_a_config_error(capsys):
    assert main(["split", "--data", "absent.csv", "--config", "x\0y"]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read config file")


def _fuzzed_flags() -> dict[str, list[tuple[str, type]]]:
    """Every int, float and string flag (but --data) of each subcommand
    that reads --data, with its type; booleans take no value."""
    _, index = build_parser()
    flags = {}
    for command, sp in index.items():
        actions = [a for a in sp._actions if a.option_strings and a.nargs != 0]
        if any(a.dest == "data" for a in actions):
            flags[command] = [
                (a.option_strings[0], a.type or str)
                for a in actions
                if a.dest not in ("data", "help")
            ]
    return flags


_FUZZED = _fuzzed_flags()


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED)))
    chosen = draw(st.lists(st.sampled_from(_FUZZED[command]), unique=True, max_size=6))
    argv = [command, "--data=absent.csv"]
    for flag, kind in chosen:
        if flag == "--threads":  # values that start no threads
            value = draw(st.integers(max_value=0) | st.integers(1, 2))
        elif kind is int:
            value = draw(st.integers(-(2**64), 2**64))
        elif kind is float:
            value = draw(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
        else:  # long enough, past 255 bytes, for a name the OS refuses
            value = draw(st.text() | st.text(min_size=256, max_size=300))
        argv.append(f"{flag}={value!r}" if kind is float else f"{flag}={value}")
    return argv


def test_fuzzed_commands_cover_every_flag_that_takes_a_value():
    assert sorted(_FUZZED) == [
        "ablate_aug", "ablate_temp", "augment", "embed", "finetune", "pretrain",
        "retrieve", "split",
    ]
    assert ("--threads", int) in _FUZZED["split"] and ("--lr", float) in _FUZZED["pretrain"]
    assert ("--checkpoint", str) in _FUZZED["embed"] and ("--config", str) in _FUZZED["split"]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=_fuzzed_argv())
def test_arbitrary_flag_values_end_in_an_exit_code_and_one_line(argv, tmp_path, monkeypatch):
    # --data names an absent file, so no run gets past reading it: each
    # ends in a config error (1) or a data error (2), never a traceback.
    monkeypatch.chdir(tmp_path)
    err, out = io.StringIO(), io.StringIO()
    workers = ad._workers, ad._pool
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            rc = main(argv)
    finally:
        ad._workers, ad._pool = workers
    text = err.getvalue()
    assert rc in (1, 2), (rc, text)
    assert len(text.splitlines()) == 1 and text.endswith("\n"), text
    assert out.getvalue() == "" and os.listdir(tmp_path) == []


SWEEP_BASES = {
    "pretrain": ["--data", "{corpus}"] + PRETRAIN_FAST,
    "finetune": ["--data", "{labeled}", "--augment", "--free-values"] + FINETUNE_FAST,
    "embed": ["--data", "{corpus}", "--checkpoint", "{checkpoint}"],
    "retrieve": ["--data", "{corpus}", "--checkpoint", "{checkpoint}", "--query", "CCO",
                 "--bins", "4", "--top", "3"],
    "augment": ["--data", "{corpus}"],
    "split": ["--data", "{corpus}"],
    "gradcheck": [],
    "ablate_aug": ["--data", "{labeled}", "--free-values"] + ABLATE_FAST,
    "ablate_temp": ["--data", "{labeled}", "--free-values"] + ABLATE_FAST,
}


def test_sweep_covers_every_subcommand():
    from molcontrast.cli import build_parser

    assert sorted(build_parser()[1]) == sorted(SWEEP_BASES)


def test_manual_names_every_flag():
    manual = (Path(__file__).resolve().parents[1] / "MANUAL.md").read_text(encoding="utf-8")
    missing = [
        f"{command} {flag}"
        for command, sub in build_parser()[1].items()
        for action in sub._actions
        for flag in action.option_strings
        if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", manual)
    ]
    assert not missing, missing


def _sweep_numeric_flags(command, values, corpus_csv, labeled_csv, pretrained, tmp_path):
    """Run every int or float flag of ``command``, set to each of ``values``
    on a fast config that succeeds; returns the runs that did not end in an
    exit code (0 success, 1 config, 2 data, 3 numeric)."""
    paths = {"{corpus}": str(corpus_csv), "{labeled}": str(labeled_csv),
             "{checkpoint}": str(pretrained / "checkpoint.bin")}
    base = [command] + [paths.get(a, a) for a in SWEEP_BASES[command]]
    sub = build_parser()[1][command]
    flags = [a.option_strings[0] for a in sub._actions if a.type in (int, float)]
    assert flags
    escaped = []
    for k, (flag, value) in enumerate((f, v) for f in flags for v in values):
        argv = base + ["--out", str(tmp_path / str(k)), flag, value]
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - report every escape at once
            escaped.append(f"{flag} {value}: {type(exc).__name__}: {exc}")
            continue
        if rc not in (0, 1, 2, 3):
            escaped.append(f"{flag} {value}: exit {rc}")
    return escaped


@pytest.mark.parametrize("command", sorted(SWEEP_BASES))
def test_numeric_flags_at_zero_and_minus_one_end_in_an_exit_code(
    command, corpus_csv, labeled_csv, pretrained, tmp_path, capsys
):
    escaped = _sweep_numeric_flags(
        command, ("0", "-1"), corpus_csv, labeled_csv, pretrained, tmp_path
    )
    capsys.readouterr()
    assert not escaped, "\n".join(escaped)


@pytest.mark.parametrize("command", sorted(SWEEP_BASES))
def test_numeric_flags_at_nan_and_inf_end_in_an_exit_code(
    command, corpus_csv, labeled_csv, pretrained, tmp_path, capsys
):
    escaped = _sweep_numeric_flags(
        command, ("nan", "inf"), corpus_csv, labeled_csv, pretrained, tmp_path
    )
    capsys.readouterr()
    assert not escaped, "\n".join(escaped)


# -- pretrain / embed / retrieve round trip ----------------------------------


def test_pretrain_outputs(pretrained):
    assert (pretrained / "checkpoint.bin").exists()
    loss_lines = (pretrained / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(loss_lines) == 3
    resolved = load_config_file(pretrained / "config_resolved.txt")
    assert resolved["epochs"] == "2"
    assert resolved["backbone"] == "gin"
    model = model_from_checkpoint(load_checkpoint(pretrained / "checkpoint.bin"))
    assert model.config.hidden_dim == 8


def test_pretrain_reruns_are_byte_identical(corpus_csv, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["pretrain", "--data", str(corpus_csv), "--out", str(out), "--seed", "3"]
                  + PRETRAIN_FAST)
        assert rc == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()


def test_cli_outputs_are_written_atomically(corpus_csv, tmp_path, monkeypatch):
    import molcontrast.cli as cli
    import molcontrast.fileio as fileio

    out = tmp_path / "run"
    argv = ["pretrain", "--data", str(corpus_csv), "--out", str(out)] + PRETRAIN_FAST
    assert main(argv) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["checkpoint.bin", "config_resolved.txt", "loss.csv"]
    before = {name: (out / name).read_bytes() for name in names}

    class Unprintable:
        def __str__(self):
            raise RuntimeError("killed mid-write")

    for name in names:  # a failure inside any write keeps the old file
        with pytest.raises(RuntimeError):
            fileio.write_csv(out / name, ["a", "b"], [[1, 2], [Unprintable(), 3]])
    def replace_fails(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(fileio.os, "replace", replace_fails)
    with pytest.raises(OSError, match="rename failed"):
        cli._write_text(out / "config_resolved.txt", "replaced\n")
    monkeypatch.undo()
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in out.iterdir()) == names


def test_resolved_config_reproduces_run(corpus_csv, pretrained, tmp_path):
    out = tmp_path / "redo"
    rc = main(["pretrain", "--config", str(pretrained / "config_resolved.txt"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "checkpoint.bin").read_bytes() == (
        pretrained / "checkpoint.bin"
    ).read_bytes()


def test_embed_writes_representations(corpus_csv, pretrained, tmp_path):
    out = tmp_path / "emb"
    rc = main(["embed", "--data", str(corpus_csv),
               "--checkpoint", str(pretrained / "checkpoint.bin"), "--out", str(out)])
    assert rc == 0
    lines = (out / "embeddings.csv").read_text().strip().splitlines()
    assert len(lines) == 25
    assert lines[0].split(",")[:2] == ["index", "smiles"]
    assert len(lines[0].split(",")) == 2 + 8  # hidden width 8


def test_embed_values_read_back_bit_for_bit(corpus_csv, pretrained, tmp_path, monkeypatch):
    # Every written value parses back to its float32, also where a value and
    # its next float32 sit side by side (eight digits print many such pairs
    # alike).
    rng = np.random.default_rng(8)
    reps = rng.standard_normal((24, 512)).astype(np.float32)
    reps[:, 1::2] = np.nextafter(reps[:, 0::2], np.float32(np.inf))
    reps[0, :4] = [0.0, -0.0, np.finfo(np.float32).tiny, np.finfo(np.float32).max]
    monkeypatch.setattr(cli_module, "embed_molecules", lambda model, graphs: reps)
    out = tmp_path / "emb"
    rc = main(["embed", "--data", str(corpus_csv),
               "--checkpoint", str(pretrained / "checkpoint.bin"), "--out", str(out)])
    assert rc == 0
    rows = (out / "embeddings.csv").read_text().strip().splitlines()[1:]
    back = np.array([[np.float32(v) for v in row.split(",")[2:]] for row in rows])
    assert back.dtype == np.float32 and back.tobytes() == reps.tobytes()


def test_embed_requires_checkpoint(corpus_csv, tmp_path):
    rc = main(["embed", "--data", str(corpus_csv), "--out", str(tmp_path / "o")])
    assert rc == 1


def _write_raw_checkpoint(path: Path, meta: object, payload: bytes) -> None:
    """A checkpoint file of any JSON ``meta``, with a valid payload CRC."""
    body = json.dumps(meta).encode("utf-8")
    path.write_bytes(
        CHECKPOINT_MAGIC
        + struct.pack("<IQ", CHECKPOINT_VERSION, len(body))
        + body
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


def _edited_checkpoint(edit):
    """An ``embed`` run on a copy of the pre-trained checkpoint that
    ``edit(checkpoint)`` changed before it was saved again."""
    def argv(tmp_path, corpus_csv, pretrained):
        ckpt = load_checkpoint(pretrained / "checkpoint.bin")
        edit(ckpt)
        save_checkpoint(tmp_path / "edited.bin", ckpt)
        return ["embed", "--data", str(corpus_csv), "--checkpoint", str(tmp_path / "edited.bin")]
    return argv


def _list_metadata(tmp_path, corpus_csv, pretrained):
    _write_raw_checkpoint(tmp_path / "list.bin", [], b"")
    return ["embed", "--data", str(corpus_csv), "--checkpoint", str(tmp_path / "list.bin")]


def _float_dimension(field: str):
    # 16.0 == 16, so the tensor shapes alone would accept the config.
    return _edited_checkpoint(
        lambda c: c.config["encoder"].update({field: float(c.config["encoder"][field])})
    )


def _not_utf8(tmp_path) -> str:
    path = tmp_path / "latin1.txt"
    path.write_bytes("smiles\nCCO # caf\u00e9\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize(
    "make_argv, code, prefix",
    [
        (_edited_checkpoint(lambda c: c.arrays.pop("atom_embedding")), 2, "data error:"),
        (_edited_checkpoint(
            lambda c: c.arrays.update(atom_embedding=c.arrays["atom_embedding"][:-1])
        ), 2, "data error:"),
        (_edited_checkpoint(lambda c: c.config.pop("encoder")), 2, "data error:"),
        (_edited_checkpoint(lambda c: c.config["encoder"].update(width=3)), 2, "data error:"),
        (_list_metadata, 2, "data error:"),
        (_float_dimension("num_layers"), 2, "data error:"),
        (_float_dimension("hidden_dim"), 2, "data error:"),
        (_float_dimension("latent_dim"), 2, "data error:"),
        (lambda tmp, *_: ["split", "--data", _not_utf8(tmp)], 2, "data error:"),
        (lambda tmp, *_: ["split", "--data", str(tmp)], 2, "data error:"),
        (lambda tmp, *_: ["augment", "--smiles", "CCO", "--config", _not_utf8(tmp)],
         1, "config error:"),
        (lambda tmp, *_: ["augment", "--smiles", "CCO", "--config", str(tmp)],
         1, "config error:"),
    ],
    ids=["missing-tensor", "embedding-shape", "no-encoder", "unknown-encoder-key",
         "list-metadata", "float-num_layers", "float-hidden_dim", "float-latent_dim",
         "csv-not-utf8", "csv-is-a-directory", "config-not-utf8",
         "config-is-a-directory"],
)
def test_unusable_inputs_end_in_an_exit_code(
    make_argv, code, prefix, corpus_csv, pretrained, tmp_path, capsys
):
    argv = make_argv(tmp_path, corpus_csv, pretrained)
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("marked", ["corpus", "labeled", "config"])
def test_a_byte_order_mark_changes_no_output(marked, corpus_csv, labeled_csv, tmp_path):
    # Excel's "CSV UTF-8" and some editors start a file with U+FEFF.
    config = tmp_path / "split.cfg"
    config.write_text("fractions = 0.6,0.2,0.2\nseed = 3\n", encoding="utf-8")
    plain = {"corpus": corpus_csv, "labeled": labeled_csv, "config": config}[marked]
    bom = tmp_path / f"bom-{plain.name}"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = []
    for path in (plain, bom):
        argv = {
            "corpus": ["split", "--data", str(path)],
            "labeled": ["finetune", "--data", str(path)] + FINETUNE_FAST,
            "config": ["split", "--data", str(corpus_csv), "--config", str(path)],
        }[marked]
        outs.append(tmp_path / f"out-{len(outs)}")
        assert main(argv + ["--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        want, got = ((out / name).read_bytes() for out in outs)
        if name == "config_resolved.txt":  # names the files it read and wrote
            for a, b in ((bom, plain), (outs[1], outs[0])):
                got = got.replace(str(a).encode(), str(b).encode())
        assert got == want, name


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
def test_a_non_finite_regression_label_is_a_data_error(value, tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text(f"smiles,y\nCCO,1.5\nCCC,2.0\nc1ccccc1,{value}\nCCN,0.5\n")
    argv = ["finetune", "--data", str(data), "--task", "regression",
            "--out", str(tmp_path / "o")]
    assert main(argv + FINETUNE_FAST) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: row 2, column y: regression label must be a finite number, "
        f"got {value!r}"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("epsilon, code", [(0.0, 0), (0.5, 2)])
def test_checkpoint_gin_epsilon_must_be_zero(
    epsilon, code, corpus_csv, pretrained, tmp_path, capsys
):
    # Checkpoints written before the field was removed carry "gin_epsilon": 0.0.
    def embed(checkpoint: Path, out: Path) -> int:
        return main(["embed", "--data", str(corpus_csv), "--checkpoint", str(checkpoint),
                     "--out", str(out)])

    ckpt = load_checkpoint(pretrained / "checkpoint.bin")
    ckpt.config["encoder"]["gin_epsilon"] = epsilon
    save_checkpoint(tmp_path / "old.bin", ckpt)
    assert embed(tmp_path / "old.bin", tmp_path / "old") == code
    if code == 0:
        assert embed(pretrained / "checkpoint.bin", tmp_path / "new") == 0
        assert (tmp_path / "old" / "embeddings.csv").read_bytes() == (
            tmp_path / "new" / "embeddings.csv"
        ).read_bytes()
    else:
        assert capsys.readouterr().err.startswith("data error:")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# SMILES and CSV syntax, so that drawn text often parses.
_CSV_CHARS = "CNOSclnos()[]=#@+-.123%/\\,\"\r\n H"


def _json_paths(value, prefix=()):
    """The path of every node below ``value``: dict keys and list indices."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_inputs(pretrained, tmp_path_factory):
    # The file is magic, u32 version, u64 metadata length, metadata, payload, CRC.
    raw = (pretrained / "checkpoint.bin").read_bytes()
    start = len(CHECKPOINT_MAGIC) + 12
    (meta_len,) = struct.unpack_from("<Q", raw, start - 8)
    meta = json.loads(raw[start : start + meta_len])
    return meta, raw[start + meta_len : -4], tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_checkpoints_and_csvs_end_in_an_exit_code(data, fuzz_inputs, corpus_csv, pretrained):
    # Checkpoint metadata (config and tensor directory) is corrupted under a
    # recomputed valid CRC, and arbitrary bytes are read as the corpus CSV.
    # Every run must end in an exit code; an escaping exception fails here.
    meta, payload, tmp = fuzz_inputs
    meta = json.loads(json.dumps(meta))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from([()] + list(_json_paths(meta))))
        if not path:
            meta = data.draw(_JSON)
            continue
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(_JSON)
        else:
            del parent[path[-1]]
    _write_raw_checkpoint(tmp / "fuzz.bin", meta, payload)
    header = data.draw(st.sampled_from([b"", b"smiles\n", b"smiles,y\n"]))
    rows = st.lists(st.text(_CSV_CHARS, max_size=12), max_size=8).map("\n".join)
    body = data.draw(st.binary(max_size=120) | rows.map(str.encode))
    (tmp / "fuzz.csv").write_bytes(header + body)
    runs = [
        ["embed", "--data", str(corpus_csv), "--checkpoint", str(tmp / "fuzz.bin")],
        ["embed", "--data", str(tmp / "fuzz.csv"),
         "--checkpoint", str(pretrained / "checkpoint.bin")],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv + ["--out", str(tmp / "out")])
        assert rc in (0, 1, 2, 3)


# Values a corrupted payload may hold: zeros, a subnormal, the edge of the
# float32 range, and the non-finite ones.
_PAYLOAD_VALUES = [0.0, -0.0, 1e-40, 3e38, -3e38, float("nan"), float("inf"), float("-inf")]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(start=0, length=1 << 30, values=[0.0])  # every parameter zero
@given(
    start=st.integers(0, 1 << 30),
    length=st.integers(1, 1 << 30),
    values=st.lists(st.sampled_from(_PAYLOAD_VALUES), min_size=1, max_size=4),
)
def test_fuzzed_checkpoint_values_end_in_an_exit_code(
    start, length, values, fuzz_inputs, corpus_csv
):
    # A slice of float32 words of the payload is overwritten, under a valid
    # CRC, with the drawn values repeated.  Each run must end in an exit
    # code with at most one line on stderr.
    meta, payload, tmp = fuzz_inputs
    words = np.frombuffer(payload, dtype="<f4").copy()
    start %= len(words)
    stop = min(len(words), start + length)
    words[start:stop] = np.resize(np.array(values, dtype="<f4"), stop - start)
    _write_raw_checkpoint(tmp / "values.bin", meta, words.tobytes())
    runs = [
        ["embed", "--data", str(corpus_csv)],
        ["retrieve", "--data", str(corpus_csv), "--query", "CCO", "--bins", "4"],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--checkpoint", str(tmp / "values.bin"),
                              "--out", str(tmp / "out")])
        assert rc in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


def test_retrieve_reports(corpus_csv, pretrained, tmp_path, capsys):
    out = tmp_path / "ret"
    rc = main(["retrieve", "--data", str(corpus_csv),
               "--checkpoint", str(pretrained / "checkpoint.bin"),
               "--query", "CCO", "--bins", "4", "--top", "3", "--out", str(out)])
    assert rc == 0
    assert "ranked 24 molecules into 4 bins" in capsys.readouterr().out
    bins = (out / "bins.csv").read_text().strip().splitlines()
    assert bins[0] == "bin,fp_kind,mean_dice,std_dice,sample_size"
    assert len(bins) == 1 + 4 * 2
    neighbors = (out / "neighbors.csv").read_text().strip().splitlines()
    assert neighbors[0] == (
        "rank,corpus_index,smiles,cosine_distance,dice_circular,dice_path"
    )
    assert len(neighbors) == 4


@pytest.mark.parametrize("command", ["embed", "retrieve"])
def test_overflowing_checkpoint_is_a_numeric_abort(
    command, corpus_csv, pretrained, tmp_path, capsys
):
    # Finite, so the checkpoint loads, but the forward pass overflows.  The
    # suite turns a RuntimeWarning into an error, so none may be raised.
    ckpt = load_checkpoint(pretrained / "checkpoint.bin")
    ckpt.arrays["atom_embedding"][:] = 3e38
    save_checkpoint(tmp_path / "huge.bin", ckpt)
    argv = [command, "--data", str(corpus_csv), "--checkpoint", str(tmp_path / "huge.bin"),
            "--out", str(tmp_path / "o")]
    if command == "retrieve":
        argv += ["--query", "CCO", "--bins", "4"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "o").exists()


def test_zero_representations_in_retrieve_are_a_numeric_abort(
    corpus_csv, pretrained, tmp_path, capsys
):
    # All-zero parameters make every readout the zero vector, which has no
    # cosine distance to anything.
    ckpt = load_checkpoint(pretrained / "checkpoint.bin")
    for array in ckpt.arrays.values():
        array[...] = 0.0
    save_checkpoint(tmp_path / "zero.bin", ckpt)
    argv = ["retrieve", "--data", str(corpus_csv), "--checkpoint", str(tmp_path / "zero.bin"),
            "--query", "CCO", "--bins", "4", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and len(err.splitlines()) == 1, err
    assert "query" in err
    assert not (tmp_path / "o").exists()


def test_overflowing_checkpoint_finetune_is_a_numeric_abort(
    labeled_csv, pretrained, tmp_path
):
    # A fresh process with numpy's default warning filters: the training
    # forward overflows, and only the loss check may report it.
    ckpt = load_checkpoint(pretrained / "checkpoint.bin")
    ckpt.arrays["atom_embedding"][:] = 3e38
    save_checkpoint(tmp_path / "huge.bin", ckpt)
    argv = ["finetune", "--data", str(labeled_csv), "--out", str(tmp_path / "o"),
            "--checkpoint", str(tmp_path / "huge.bin")] + FINETUNE_FAST[:6]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "molcontrast.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric abort:"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags, warning_lines, message", [
    ("pretrain", ["--lr", "1e39", "--warm-epochs", "0", "--val-fraction", "0"], [],
     "non-finite contrastive update of atom_embedding at epoch 0, batch offset 0"),
    ("finetune", ["--lr-head", "1e39", "--free-values"] + FINETUNE_FAST[4:],
     ["warning: lr_head=1e+39 is outside the search grid (0.0005, 0.001)"],
     "non-finite supervised update of head.weight0 at epoch 0, batch offset 0"),
], ids=["pretrain", "finetune"])
def test_non_finite_adam_update_is_a_numeric_abort(
    command, flags, warning_lines, message, tmp_path
):
    # The loss is finite, but a rate of 1e39 overflows the float32 update.
    # A fresh process with numpy's default warning filters, as above.
    write_corpus_csv(tmp_path / "corpus.csv", 40, seed=3)
    write_labeled_csv(tmp_path / "labeled.csv", 30, seed=6)
    data = tmp_path / ("corpus.csv" if command == "pretrain" else "labeled.csv")
    argv = [command, "--data", str(data), "--out", str(tmp_path / "o"),
            "--epochs", "1", "--batch", "64" if command == "pretrain" else "32", *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "molcontrast.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [*warning_lines, f"numeric abort: {message}"], proc.stderr
    assert not (tmp_path / "o").exists()  # the output directory comes after the work


def test_off_grid_value_warns_in_one_line(labeled_csv, tmp_path, capsys):
    argv = ["finetune", "--data", str(labeled_csv), "--out", str(tmp_path / "o"),
            "--free-values", "--lr-head", "1e-2", "--n-layer", "3"] + FINETUNE_FAST
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: lr_head=0.01 is outside the search grid (0.0005, 0.001)\n"
        "warning: n_layer=3 is outside the search grid (1, 2)\n"
    )


def test_overflowing_gradcheck_step_is_a_numeric_abort(tmp_path):
    # 2 * eps overflows, so every central difference is NaN: each op must
    # fail, with no RuntimeWarning on the way.  A fresh process, as above.
    argv = ["gradcheck", "--eps", "1e308", "--out", str(tmp_path / "o")]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "molcontrast.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric abort:"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "ok" not in proc.stdout.split()
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def corpus60_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus60.csv"
    write_corpus_csv(path, 60, seed=3)
    return path


@pytest.mark.parametrize("backbone", ["gin", "gcn"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("latent", [1, 2])
@pytest.mark.parametrize("hidden", [1, 2, 3])
def test_narrow_encoders_end_in_an_exit_code(
    hidden, latent, layers, backbone, corpus60_csv, tmp_path, capsys
):
    # Zero-initialised biases and ReLU can leave a latent row all zero,
    # which the loss cannot normalize; 3 x 1 x 1 GIN does on this corpus.
    rc = main(["pretrain", "--data", str(corpus60_csv), "--out", str(tmp_path / "o"),
               "--epochs", "1", "--warm-epochs", "0", "--batch", "8",
               "--hidden", str(hidden), "--latent", str(latent),
               "--layers", str(layers), "--backbone", backbone])
    err = capsys.readouterr().err
    assert rc in (0, 3)
    if rc:
        assert err.startswith("numeric abort:") and len(err.splitlines()) == 1, err
    if (hidden, latent, layers, backbone) == (3, 1, 1, "gin"):
        assert rc == 3


def test_retrieve_corpus_smaller_than_bins(corpus_csv, pretrained, tmp_path):
    rc = main(["retrieve", "--data", str(corpus_csv),
               "--checkpoint", str(pretrained / "checkpoint.bin"),
               "--query", "CCO", "--bins", "100", "--out", str(tmp_path / "o")])
    assert rc == 2


# -- finetune ----------------------------------------------------------------


def test_finetune_random_init(labeled_csv, tmp_path, capsys):
    out = tmp_path / "ft"
    rc = main(["finetune", "--data", str(labeled_csv), "--out", str(out)]
              + FINETUNE_FAST)
    assert rc == 0
    assert "test roc_auc" in capsys.readouterr().out
    metrics = dict(
        line.split(",", 1)
        for line in (out / "metrics.csv").read_text().strip().splitlines()[1:]
    )
    assert "best_epoch" in metrics
    assert "test_roc_auc" in metrics
    assert "test_roc_auc.has_oxygen" in metrics
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "epoch,train_loss,val_metric,lr_head,lr_base"
    assert len(trace) == 3
    model = model_from_checkpoint(load_checkpoint(out / "model.bin"))
    assert model.head is not None
    assert model.head.task_kind == "classification"


def test_finetune_from_checkpoint_and_augment(labeled_csv, pretrained, tmp_path):
    out = tmp_path / "ft"
    rc = main(["finetune", "--data", str(labeled_csv),
               "--checkpoint", str(pretrained / "checkpoint.bin"),
               "--augment", "--epochs", "1", "--batch", "32",
               "--head-hidden", "16", "--out", str(out)])
    assert rc == 0
    assert (out / "model.bin").exists()


# -- augment preview ---------------------------------------------------------


def test_augment_preview_text(capsys):
    rc = main(["augment", "--smiles", "c1ccccc1", "--views", "2", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "molecule c1ccccc1" in out
    assert "view 0 strategy subgraph" in out
    assert "view 1 strategy subgraph" in out
    assert "nodes 6" in out


def test_augment_source_exclusivity(corpus_csv):
    assert main(["augment"]) == 1
    assert main(["augment", "--smiles", "C", "--data", str(corpus_csv)]) == 1


def test_augment_from_corpus_row(corpus_csv, tmp_path, capsys):
    out = tmp_path / "aug"
    rc = main(["augment", "--data", str(corpus_csv), "--index", "3",
               "--views", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert (out / "views.txt").read_text() == text
    assert main(["augment", "--data", str(corpus_csv), "--index", "999"]) == 2


# -- split -------------------------------------------------------------------


def test_split_writes_assignments(tmp_path, capsys):
    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 40, seed=0)
    out = tmp_path / "sp"
    rc = main(["split", "--data", str(data), "--out", str(out)])
    assert rc == 0
    assert "split 40 molecules" in capsys.readouterr().out
    lines = (out / "split.csv").read_text().strip().splitlines()
    assert lines[0] == "index,smiles,split"
    assert len(lines) == 41
    kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert kinds == {"train", "valid", "test"}


def test_split_fraction_flag_validation(corpus_csv, tmp_path):
    base = ["split", "--data", str(corpus_csv), "--out", str(tmp_path / "o")]
    assert main(base + ["--fractions", "0.5,0.5"]) == 1
    assert main(base + ["--fractions", "a,b,c"]) == 1


# -- gradcheck ---------------------------------------------------------------


def test_gradcheck_reports_all_ops(tmp_path, capsys):
    out = tmp_path / "gc"
    rc = main(["gradcheck", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "all 13 ops within" in text
    assert text.count(" ok") == 13
    lines = (out / "gradcheck.csv").read_text().strip().splitlines()
    assert lines[0] == "op,max_rel_error"
    assert len(lines) == 14


# -- config files ------------------------------------------------------------


def test_flag_defaults_are_the_library_defaults():
    _, index = build_parser()

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert index["retrieve"].get_default("bins") == default(retrieval_analysis, "bins")
    assert index["retrieve"].get_default("top") == default(retrieval_analysis, "top_k")
    assert index["gradcheck"].get_default("eps") == default(gradcheck_report, "eps")
    fractions = index["split"].get_default("fractions")
    assert tuple(map(float, fractions.split(","))) == default(scaffold_split, "fractions")


def test_config_file_supplies_defaults(corpus_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny smoke settings\n"
        "epochs = 1\n"
        "batch = 8\n"
        "warm-epochs = 0\n"
        "layers = 2\n"
        "hidden = 8\n"
        "latent = 4\n"
        "val-fraction = 0\n"
    )
    out = tmp_path / "o"
    rc = main(["pretrain", "--config", str(cfg), "--data", str(corpus_csv),
               "--out", str(out)])
    assert rc == 0
    assert len((out / "loss.csv").read_text().strip().splitlines()) == 2


def test_flags_override_config(corpus_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epochs = 3\nbatch = 8\nwarm-epochs = 0\nlayers = 2\n"
        "hidden = 8\nlatent = 4\nval-fraction = 0\n"
    )
    out = tmp_path / "o"
    rc = main(["pretrain", "--config", str(cfg), "--data", str(corpus_csv),
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    # the command-line value wins over the config file
    assert len((out / "loss.csv").read_text().strip().splitlines()) == 2
    resolved = load_config_file(out / "config_resolved.txt")
    assert resolved["epochs"] == "1"


def test_config_file_rejects_unknown_key(corpus_csv, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    rc = main(["pretrain", "--config", str(cfg), "--data", str(corpus_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_config_file_rejects_bad_value(corpus_csv, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = many\n")
    rc = main(["pretrain", "--config", str(cfg), "--data", str(corpus_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_config_file_syntax_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs\n")
    rc = main(["pretrain", "--config", str(cfg), "--data", "x.csv",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert main(["pretrain", "--config", str(tmp_path / "absent.cfg"),
                 "--data", "x.csv", "--out", str(tmp_path / "o")]) == 1


def test_load_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1  # trailing comment\n\n# full comment line\nb = two words\n")
    assert load_config_file(cfg) == {"a": "1", "b": "two words"}


def test_config_hash_inside_a_value_is_not_a_comment(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("query = C#N  # nitrile\n#smiles = C\n")
    assert load_config_file(cfg) == {"query": "C#N"}


def test_augment_reruns_from_its_resolved_config(tmp_path, capsys):
    # A triple bond's '#' must survive the round trip through the file.
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["augment", "--smiles", "C#CC", "--out", str(first)]) == 0
    assert main(["augment", "--config", str(first / "config_resolved.txt"),
                 "--out", str(second)]) == 0
    assert "molecule C#CC" in capsys.readouterr().out
    assert (first / "views.txt").read_bytes() == (second / "views.txt").read_bytes()


@pytest.mark.parametrize(
    "value",
    ["hash #dir/c.csv", "#c.csv", " c.csv", "c.csv ", "dir\nc.csv", "dir\rc.csv", "\udcff.csv"],
)
def test_value_the_resolved_config_cannot_hold_is_a_config_error(value, tmp_path, capsys):
    # The corpus does not exist: reading it would be a data error (2).
    out = tmp_path / "o"
    assert main(["split", "--data", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --data ")
    assert "config_resolved.txt" in err[0]
    assert not out.exists()


def test_in_word_hash_in_a_path_reruns_from_its_resolved_config(tmp_path):
    data = tmp_path / "c#1.csv"
    write_labeled_csv(data, 40, seed=3)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["split", "--data", str(data), "--out", str(first)]) == 0
    assert load_config_file(first / "config_resolved.txt")["data"] == str(data)
    assert main(["split", "--config", str(first / "config_resolved.txt"),
                 "--out", str(second)]) == 0
    assert (first / "split.csv").read_bytes() == (second / "split.csv").read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.text(max_size=12))
@example(value="C#N")
@example(value="a #b")
@example(value="a\x85b")
def test_resolved_config_check_matches_the_reader(value, tmp_path):
    import molcontrast.cli as cli

    path = tmp_path / "c.cfg"
    try:
        cli._write_text(path, f"key = {value}\n")
        read = load_config_file(path).get("key")
    except (UnicodeEncodeError, ConfigError):
        read = None
    assert cli._reads_back(value) == (read == value)


# -- ablation sweeps ---------------------------------------------------------

ABLATE_KEYS = {
    "backbone", "batch", "data", "delete_ratio", "finetune_batch", "finetune_epochs",
    "free_values", "hidden", "latent", "layers", "lr_base", "lr_head", "mask_ratio",
    "out", "pretrain_epochs", "ratio", "seed", "strategy", "task", "warm_epochs",
}


def check_ablation_stdout(printed, csv_lines, labels, csv_path):
    # One line per run, its label padded as before, then the CSV path.
    assert len(printed) == len(labels) + 1
    for line, label, row in zip(printed, labels, csv_lines[1:]):
        loss, test = row.split(",")[1], row.split(",")[4]
        assert line == (
            f"{label} pretrain loss {float(loss):.4f}  test roc_auc {float(test):.4f}"
        )
    assert printed[-1] == f"wrote {csv_path}"


def test_ablate_aug_sweeps_strategies(labeled_csv, tmp_path, capsys):
    out = tmp_path / "aa"
    rc = main(["ablate_aug", "--data", str(labeled_csv), "--out", str(out)]
              + ABLATE_FAST)
    assert rc == 0
    lines = (out / "ablate_aug.csv").read_text().strip().splitlines()
    assert lines[0] == "strategy,pretrain_loss,best_epoch,val_metric,test_metric"
    assert len(lines) == 5  # four strategies
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies == ["mask_delete", "subgraph_random", "subgraph", "compose_all"]
    labels = ["mask_delete     ", "subgraph_random ", "subgraph        ", "compose_all     "]
    printed = capsys.readouterr().out.splitlines()
    check_ablation_stdout(printed, lines, labels, out / "ablate_aug.csv")
    resolved = load_config_file(out / "config_resolved.txt")
    assert set(resolved) == ABLATE_KEYS | {"temperature"}
    assert resolved["temperature"] == "0.1"


def test_ablation_warns_about_unparseable_rows(labeled_csv, tmp_path, capsys):
    data = tmp_path / "with_bad_row.csv"
    data.write_text(labeled_csv.read_text() + "C1CC(,1\n")
    rc = main(["ablate_temp", "--data", str(data), "--out", str(tmp_path / "at")]
              + ABLATE_FAST)
    assert rc == 0
    rows = len(data.read_text().splitlines()) - 1  # the header is not a row
    assert f"warning: 1 of {rows} rows failed to parse\n" in capsys.readouterr().err


def test_ablate_temp_sweeps_temperatures(labeled_csv, tmp_path, capsys):
    out = tmp_path / "at"
    rc = main(["ablate_temp", "--data", str(labeled_csv), "--out", str(out)]
              + ABLATE_FAST)
    assert rc == 0
    lines = (out / "ablate_temp.csv").read_text().strip().splitlines()
    assert lines[0] == "temperature,pretrain_loss,best_epoch,val_metric,test_metric"
    temps = [line.split(",")[0] for line in lines[1:]]
    assert temps == ["0.05", "0.1", "0.5"]
    printed = capsys.readouterr().out.splitlines()
    check_ablation_stdout(
        printed, lines, ["tau 0.05 ", "tau 0.1  ", "tau 0.5  "], out / "ablate_temp.csv"
    )
    resolved = load_config_file(out / "config_resolved.txt")
    assert set(resolved) == ABLATE_KEYS  # no --temperature flag to record
    assert resolved["pretrain_epochs"] == "1"


@pytest.mark.parametrize("command", ["ablate_aug", "ablate_temp"])
def test_ablation_with_too_few_scaffolds_fails_before_pretraining(
    command, tmp_path, monkeypatch, capsys
):
    # Twelve rows of four molecules on two scaffolds (benzene, cyclohexane):
    # the split every run fine-tunes on cannot be made, which is known
    # before any pre-training.
    data = tmp_path / "two_scaffolds.csv"
    molecules = ("Cc1ccccc1", "Oc1ccccc1", "CC1CCCCC1", "OC1CCCCC1")
    data.write_text(
        "smiles,y\n" + "".join(f"{s},{i % 2}\n" for i in range(3) for s in molecules)
    )

    def forbidden(*args, **kwargs):
        pytest.fail("pre-trained before the split was made")

    monkeypatch.setattr(cli_module, "pretrain", forbidden)
    rc = main([command, "--data", str(data), "--out", str(tmp_path / "o")] + ABLATE_FAST)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "data error: only 2 scaffold group(s); cannot populate three splits\n"
