"""End-to-end command-line interface runs, in process via main()."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molcontrast.cli import load_config_file, main
from molcontrast.training import load_checkpoint, model_from_checkpoint
from molgen import write_corpus_csv, write_labeled_csv

PRETRAIN_FAST = [
    "--epochs", "2", "--batch", "8", "--warm-epochs", "0",
    "--layers", "2", "--hidden", "8", "--latent", "4", "--val-fraction", "0",
]
FINETUNE_FAST = [
    "--epochs", "2", "--batch", "32", "--head-hidden", "16",
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
            cli._write_csv(out / name, ["a", "b"], [[1, 2], [Unprintable(), 3]])
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


def test_embed_requires_checkpoint(corpus_csv, tmp_path):
    rc = main(["embed", "--data", str(corpus_csv), "--out", str(tmp_path / "o")])
    assert rc == 1


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
    assert "all 20 ops within" in text
    assert text.count(" ok") == 20
    lines = (out / "gradcheck.csv").read_text().strip().splitlines()
    assert lines[0] == "op,max_rel_error"
    assert len(lines) == 21


# -- config files ------------------------------------------------------------


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


# -- ablation sweeps ---------------------------------------------------------

ABLATE_FAST = [
    "--pretrain-epochs", "1", "--warm-epochs", "0", "--finetune-epochs", "1",
    "--batch", "8", "--finetune-batch", "32",
    "--layers", "2", "--hidden", "8", "--latent", "4",
]


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
