"""Parser tests: golden corpus, diagnostics, corpus CSV loading."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from golden_corpus import GOLDEN
from molcontrast.errors import DataError
from molcontrast.graph import BondDirection, BondType, Chirality, validate
from molcontrast.smiles import (
    DiagnosticKind,
    SmilesParseError,
    parse_corpus,
    parse_smiles,
    parse_with_diagnostics,
)


# -- golden corpus ----------------------------------------------------------


@pytest.mark.parametrize("entry", GOLDEN, ids=[g.name for g in GOLDEN])
def test_golden_molecule(entry):
    # the record must be self-consistent before we trust it as an oracle
    assert entry.edges == entry.nodes - entry.components + entry.rings
    assert entry.single + entry.double + entry.triple + entry.aromatic == entry.edges

    mol, warnings = parse_with_diagnostics(entry.smiles)
    assert warnings == []
    assert validate(mol) == []
    assert mol.num_nodes == entry.nodes
    assert mol.num_edges == entry.edges

    counts = Counter(e.bond_type for e in mol.edges)
    assert counts.get(BondType.SINGLE, 0) == entry.single
    assert counts.get(BondType.DOUBLE, 0) == entry.double
    assert counts.get(BondType.TRIPLE, 0) == entry.triple
    assert counts.get(BondType.AROMATIC, 0) == entry.aromatic
    assert BondType.SELF_LOOP not in counts

    assert sum(1 for n in mol.nodes if n.formal_charge != 0) == entry.charged
    assert sum(n.formal_charge for n in mol.nodes) == entry.net_charge
    assert (
        sum(1 for n in mol.nodes if n.chirality != Chirality.UNSPECIFIED)
        == entry.chiral
    )
    assert (
        sum(1 for e in mol.edges if e.direction != BondDirection.NONE)
        == entry.directed
    )


def test_golden_corpus_size_and_coverage():
    assert len(GOLDEN) == 50
    assert any(g.aromatic for g in GOLDEN)
    assert any("(" in g.smiles for g in GOLDEN)
    assert any("%1" in g.smiles for g in GOLDEN)
    assert any(g.charged for g in GOLDEN)
    assert any(g.chiral for g in GOLDEN)
    assert len({g.smiles for g in GOLDEN}) == 50


# -- elementary contract examples -------------------------------------------


def test_single_atom():
    g = parse_smiles("C")
    assert g.num_nodes == 1 and g.num_edges == 0
    assert g.nodes[0].atomic_number == 6
    assert g.nodes[0].chirality == Chirality.UNSPECIFIED


def test_benzene_all_aromatic():
    g = parse_smiles("c1ccccc1")
    assert g.num_nodes == 6 and g.num_edges == 6
    assert all(n.atomic_number == 6 for n in g.nodes)
    assert all(e.bond_type == BondType.AROMATIC for e in g.edges)
    from molcontrast.graph import neighbors

    assert all(len(neighbors(g, v)) == 2 for v in range(6))


def test_acetic_acid_bond_types():
    g = parse_smiles("CC(=O)O")
    assert g.num_nodes == 4 and g.num_edges == 3
    types = sorted(e.bond_type for e in g.edges)
    assert types == [BondType.SINGLE, BondType.SINGLE, BondType.DOUBLE]


def test_node_order_follows_appearance():
    g = parse_smiles("NCO")
    assert [n.atomic_number for n in g.nodes] == [7, 6, 8]


def test_chirality_markers():
    ccw = parse_smiles("C[C@H](O)C(=O)O")
    cw = parse_smiles("C[C@@H](O)C(=O)O")
    assert ccw.nodes[1].chirality == Chirality.TETRAHEDRAL_CCW
    assert cw.nodes[1].chirality == Chirality.TETRAHEDRAL_CW


def test_direction_markers_stored_on_single_bonds():
    g = parse_smiles("C/C=C/C")
    directed = [e for e in g.edges if e.direction != BondDirection.NONE]
    assert len(directed) == 2
    assert all(e.bond_type == BondType.SINGLE for e in directed)
    double = [e for e in g.edges if e.bond_type == BondType.DOUBLE]
    assert len(double) == 1 and double[0].direction == BondDirection.NONE


def test_isotopes_parsed_and_discarded():
    assert parse_smiles("[13C]") == parse_smiles("[C]")
    assert parse_smiles("[13CH4]").nodes[0].atomic_number == 6


def test_bracket_hydrogen_is_a_node():
    g = parse_smiles("[H]O[H]")
    assert [n.atomic_number for n in g.nodes] == [1, 8, 1]
    assert g.num_edges == 2


def test_implicit_hydrogens_not_materialized():
    # methane and ammonia are single-node graphs
    assert parse_smiles("C").num_nodes == 1
    assert parse_smiles("N").num_nodes == 1
    assert parse_smiles("[NH4+]").num_nodes == 1


def test_fragments_dot_separator():
    g = parse_smiles("C.C")
    assert g.num_nodes == 2 and g.num_edges == 0


def test_explicit_aromatic_bond_symbol():
    g = parse_smiles("c1ccccc1")
    h = parse_smiles("C1:C:C:C:C:C:1".replace(":1", ":1"))
    # explicit ':' forces aromatic bond type even on uppercase atoms
    assert all(e.bond_type == BondType.AROMATIC for e in h.edges)
    assert g.num_edges == h.num_edges


def test_two_letter_organic_atoms():
    g = parse_smiles("ClCBr")
    assert [n.atomic_number for n in g.nodes] == [17, 6, 35]


def test_whitespace_stripped():
    assert parse_smiles("  CCO \n") == parse_smiles("CCO")


def test_determinism():
    s = "CC(C)Cc1ccc(cc1)C(C)C(=O)O"
    assert parse_smiles(s) == parse_smiles(s)


# -- hard errors ------------------------------------------------------------

MALFORMED = [
    ("C1CC", DiagnosticKind.UNCLOSED_RING, 1),
    ("C1CC2", DiagnosticKind.UNCLOSED_RING, 1),
    ("C%1C", DiagnosticKind.UNCLOSED_RING, 1),
    ("%10CC%10", DiagnosticKind.UNCLOSED_RING, 0),
    ("CC(C", DiagnosticKind.UNCLOSED_BRANCH, 2),
    ("CC)C", DiagnosticKind.UNCLOSED_BRANCH, 2),
    ("CC(C))C", DiagnosticKind.UNCLOSED_BRANCH, 5),
    ("[Xx]", DiagnosticKind.UNKNOWN_ATOM, 1),
    ("Qq", DiagnosticKind.UNKNOWN_ATOM, 0),
    ("[C", DiagnosticKind.UNKNOWN_ATOM, 0),
    ("[C@TH1]", DiagnosticKind.UNKNOWN_ATOM, 2),
    ("C==C", DiagnosticKind.BAD_BOND, 2),
    ("C#=C", DiagnosticKind.BAD_BOND, 2),
    ("C=", DiagnosticKind.BAD_BOND, 1),
    ("C/C=C/", DiagnosticKind.BAD_BOND, 5),
    ("[C+-]", DiagnosticKind.BAD_CHARGE, 2),
    ("[C+16]", DiagnosticKind.BAD_CHARGE, 2),
    ("[C-16]", DiagnosticKind.BAD_CHARGE, 2),
]


@pytest.mark.parametrize("text,kind,position", MALFORMED)
def test_malformed_input(text, kind, position):
    with pytest.raises(SmilesParseError) as err:
        parse_smiles(text)
    diag = err.value.diagnostic
    assert diag.kind == kind
    assert diag.position == position
    assert diag.position < max(len(text), 1)
    assert diag.message


def test_empty_input_rejected():
    with pytest.raises(SmilesParseError):
        parse_smiles("")
    with pytest.raises(SmilesParseError):
        parse_smiles("   ")
    for dots in (".", ".."):  # separators only: a molecule of no atoms
        with pytest.raises(SmilesParseError):
            parse_smiles(dots)


def test_parse_error_is_data_error():
    with pytest.raises(DataError):
        parse_smiles("C1CC")


# -- soft valence warnings --------------------------------------------------


def test_valence_warning_is_soft():
    g, warnings = parse_with_diagnostics("C(C)(C)(C)(C)C")
    assert g.num_nodes == 6 and g.num_edges == 5
    assert len(warnings) == 1
    assert warnings[0].kind == DiagnosticKind.VALENCE_WARNING
    assert warnings[0].position == 0


def test_charge_extends_valence_allowance():
    # O carries 3 bonds only when charged; neutral trivalent O is flagged
    _, warnings = parse_with_diagnostics("C[O+](C)C")
    assert warnings == []
    _, warnings = parse_with_diagnostics("CO(C)C")
    assert len(warnings) == 1
    assert warnings[0].kind == DiagnosticKind.VALENCE_WARNING


def test_hypervalent_sulfur_accepted():
    _, warnings = parse_with_diagnostics("[O-]S(=O)(=O)[O-]")
    assert warnings == []


# -- parse_corpus -----------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_corpus_basic(tmp_path):
    p = _write(tmp_path, "tiny.csv", "smiles\nC\nO\nN\n")
    result = parse_corpus(p)
    assert [r.index for r in result.rows] == [0, 1, 2]
    assert [g.num_nodes for g in result.graphs] == [1, 1, 1]
    assert result.failures == []


def test_parse_corpus_reports_malformed_rows(tmp_path):
    p = _write(tmp_path, "bad.csv", "smiles\nCCO\nC1CC\nc1ccccc1\n")
    result = parse_corpus(p)
    assert [r.index for r in result.rows] == [0, 2]
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.index == 1
    assert failure.smiles == "C1CC"
    assert failure.diagnostic.kind == DiagnosticKind.UNCLOSED_RING


def test_parse_corpus_header_only(tmp_path):
    p = _write(tmp_path, "empty.csv", "smiles\n")
    result = parse_corpus(p)
    assert result.rows == [] and result.failures == []


def test_parse_corpus_custom_column(tmp_path):
    p = _write(tmp_path, "col.csv", "id,structure\n7,CCO\n8,CC\n")
    result = parse_corpus(p, column="structure")
    assert [g.num_nodes for g in result.graphs] == [3, 2]


def test_parse_corpus_missing_column(tmp_path):
    p = _write(tmp_path, "wrong.csv", "id,foo\n1,C\n")
    with pytest.raises(DataError):
        parse_corpus(p)


def test_parse_corpus_missing_file(tmp_path):
    with pytest.raises(DataError):
        parse_corpus(tmp_path / "nope.csv")


# -- properties -------------------------------------------------------------


@given(st.integers(min_value=1, max_value=40))
def test_alkane_chain_property(n):
    g = parse_smiles("C" * n)
    assert g.num_nodes == n and g.num_edges == n - 1
    assert all(e.bond_type == BondType.SINGLE for e in g.edges)
    assert validate(g) == []


@given(st.integers(min_value=3, max_value=30))
def test_ring_closure_edge_count(n):
    # one ring: bond symbols consumed (n-1) plus one closure
    g = parse_smiles("C1" + "C" * (n - 2) + "C1")
    assert g.num_nodes == n and g.num_edges == n
    assert validate(g) == []


@pytest.mark.parametrize("entry", GOLDEN, ids=[g.name for g in GOLDEN])
def test_golden_graphs_validate(entry):
    assert validate(parse_smiles(entry.smiles)) == []
