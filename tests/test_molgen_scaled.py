"""``tests/molgen.scaled_molecules``: pinned, distinct and parseable."""

import hashlib

from molcontrast.smiles import parse_corpus
from molgen import scaled_molecules, write_scaled_csv


def test_scaled_molecules_are_pinned_distinct_and_parse(tmp_path):
    write_scaled_csv(tmp_path / "scaled.csv", 1000, 0)
    assert hashlib.sha256((tmp_path / "scaled.csv").read_bytes()).hexdigest() == (
        "3da9027e15e298eed55b7912c5ad0b6d75dfa64bee064a4edf49a19045f2a0d9"
    )
    write_scaled_csv(tmp_path / "scaled.csv", 20_000, 0)
    parsed = parse_corpus(tmp_path / "scaled.csv")
    assert parsed.failures == []
    smiles = [row.smiles for row in parsed.rows]
    assert smiles == list(scaled_molecules(20_000, 0))
    assert len(set(smiles)) == 20_000
