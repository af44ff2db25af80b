"""What ``tests/molgen.py`` writes, pinned by sha256.

The benchmark (``perfbench/workloads.py``) builds every input with
``make_molecules`` and ``write_labeled_csv``, and ``tools/outputs.py``
writes both trees' inputs with the working tree's ``molgen``.  A change to
``molgen`` would move those inputs without any other check failing.
"""

import hashlib

from molgen import make_molecules, write_labeled_csv
from test_outputs_tool import outputs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_benchmark_default_inputs_are_pinned(tmp_path):
    # Seed 0: the workloads' corpora of 2,000 and 269 molecules, and their
    # 400 labeled rows, drawn with seed + 1.
    smiles = {n: "\n".join(s for s, _ in make_molecules(n, 0)) for n in (2000, 269)}
    assert _sha256(smiles[2000].encode()) == (
        "d7471c381f98183c2e3b19e6adcdf9f5f2b14a47e9481c185806d386fa8ab679"
    )
    assert _sha256(smiles[269].encode()) == (
        "0e59d9a300ef9faed45fc09fa131fbbc46637ba125a2e99589fbdeabd92b42c6"
    )
    write_labeled_csv(tmp_path / "labeled.csv", 400, 1)
    assert _sha256((tmp_path / "labeled.csv").read_bytes()) == (
        "f510a9a3835400e89d2e4b7e458db85c9d26f730b4ed874a5055a6ffa14ee50f"
    )


def test_outputs_tool_inputs_are_pinned(tmp_path):
    outputs.write_inputs(tmp_path / "data")
    assert {
        path.name: _sha256(path.read_bytes()) for path in (tmp_path / "data").iterdir()
    } == {
        "corpus.csv": "387ff8022692ebaeaf639bf290b40c7885af9fd4fec7651fe71a4146bc388818",
        "labeled.csv": "883cd454c341f2f9baddc452102bdab588399283a7dbeb851ae4a8a82349d077",
        "large.csv": "90b2e91daea92e6d7f7f9725d6dbf22dd8bdae3bd7ddb0d903207b6e002b7d1b",
        "long.csv": "ac162f1fb9de7dcb004db989f28fcf76b919e1b892e41de30dded178b2e5584f",
        "masked.csv": "428c1945407de208f669a651e41985a575bc19b858e9f54efc385bf0384426f0",
        "mixed.csv": "60688f596d654c5c3d78654efca4dc43c7bf37a2ad64417e975b61ed18fc71ec",
    }
