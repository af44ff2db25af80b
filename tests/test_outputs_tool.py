"""The compare step of ``tools/outputs.py``, on two hand-made run trees."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_files_counts_what_no_glob_allows(tmp_path):
    same = {"split/split.csv": "a", "pretrain_gin/config_resolved.txt": "b"}
    new = _tree(tmp_path / "new", {
        **same, "pretrain_gin/loss.csv": "1", "embed/embeddings.csv": "2",
        "augment_subgraph/views.txt": "3", "only_new/x.csv": "4",
    })
    old = _tree(tmp_path / "old", {
        **same, "pretrain_gin/loss.csv": "5", "embed/embeddings.csv": "6",
        "augment_subgraph/views.txt": "7", "only_old/x.csv": "8",
    })
    lines, changed, unexpected = outputs.compare_files(new, old, [])
    assert len(lines) == 7 and (changed, unexpected) == (5, 5)
    assert sum(line.startswith("equal") for line in lines) == 2
    assert any(line.startswith("different  only_new/x.csv") and "| absent" in line
               for line in lines)

    # By name, or by path below the run directory.
    globs = ["loss.csv", "embed/*", "only_*"]
    lines, changed, unexpected = outputs.compare_files(new, old, globs)
    assert (changed, unexpected) == (5, 1)
    assert [line.split()[1] for line in lines if "NOT EXPECTED" in line] == [
        "augment_subgraph/views.txt"
    ]
    assert outputs.compare_files(new, new, [])[1:] == (0, 0)


def test_compare_runs_never_allows_a_different_exit_code_or_stderr():
    old = {"split": (0, ""), "abort": (1, "config error: x\n"), "embed": (0, "")}
    new = {"split": (0, ""), "abort": (1, "config error: y\n"), "embed": (2, "")}
    lines, differ = outputs.compare_runs(new, old)
    assert differ == 2
    assert lines == [
        "split: exit 0 | 0, stderr equal",
        "abort: exit 1 | 1, stderr different  (NOT EXPECTED)",
        "    config error: y",
        "  | config error: x",
        "embed: exit 2 | 0, stderr equal  (NOT EXPECTED)",
    ]
    assert outputs.compare_runs(old, old)[1] == 0


def test_compare_files_reports_the_largest_numeric_difference(tmp_path):
    header = "epoch,train_loss,lr\n"
    new = _tree(tmp_path / "new", {
        "run/loss.csv": header + "1,2.0,0.1\n2,1.5,0.1\n",
        "run/head.csv": "a,b\n1,2\n",
        "run/rows.csv": "a\n1\n2\n",
        "run/text.csv": "smiles,x\nCCO,1\n",
        "run/nan.csv": "x,y\nnan,1\n",
        "run/small.csv": "h0,h1\n2e-6,3.0\n",
    })
    old = _tree(tmp_path / "old", {
        "run/loss.csv": header + "1,2.0,0.1\n2,1.2,0.1\n",
        "run/head.csv": "a,c\n1,3\n",  # another header: no numbers compared
        "run/rows.csv": "a\n1\n",  # another row count
        "run/text.csv": "smiles,x\nCCC,1\n",  # only a text cell differs
        "run/nan.csv": "x,y\n0.5,1\n",
        # Near zero the denominator's floor of 0.01 holds: 3e-6 / 0.01, not
        # 3e-6 / 2e-6, so the cell crossing zero does not outweigh h1.
        "run/small.csv": "h0,h1\n-1e-6,3.003\n",
    })
    lines, changed, _ = outputs.compare_files(new, old, [])
    assert changed == 6
    notes = {
        prev.split()[1]: line.strip()
        for prev, line in zip(lines, lines[1:])
        if line.startswith("    ")
    }
    assert notes == {
        "run/loss.csv": "largest relative difference 0.2 in column train_loss",
        "run/nan.csv": "largest relative difference inf in column x",
        "run/small.csv": "largest relative difference 0.000999 in column h1",
    }
    rel, column = outputs.largest_difference(new / "run/small.csv", old / "run/small.csv")
    assert column == "h1" and rel == (3.003 - 3.0) / 3.003
    new_cell = _tree(tmp_path / "cell_new", {"c.csv": "x\n2e-6\n"}) / "c.csv"
    old_cell = _tree(tmp_path / "cell_old", {"c.csv": "x\n-1e-6\n"}) / "c.csv"
    assert outputs.largest_difference(new_cell, old_cell) == ((2e-6 + 1e-6) / 1e-2, "x")
    rel, column = outputs.largest_difference(new / "run/loss.csv", old / "run/loss.csv")
    assert column == "train_loss" and rel == (1.5 - 1.2) / 1.5
