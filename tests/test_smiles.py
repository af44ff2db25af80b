"""Parser tests: golden corpus, diagnostics, corpus CSV loading."""

import csv
import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import smiles_oracle
from golden_corpus import GOLDEN
from graph_oracle import adjacency, validate
from molcontrast import smiles
from molcontrast.errors import DataError
from molcontrast.graph import (
    AtomNode,
    BondDirection,
    BondEdge,
    BondType,
    Chirality,
    MoleculeGraph,
    format_graph,
)
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
    assert all(len(neighbours) == 2 for neighbours in adjacency(g))


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


def test_equal_atoms_share_one_node():
    a, b = parse_smiles("CCO"), parse_smiles("CCO")
    assert a.nodes[0] is b.nodes[0] is a.nodes[1]
    assert a.nodes[2] is b.nodes[2]


def test_equal_bonds_share_one_edge():
    a, b = parse_smiles("c1ccccc1C=O"), parse_smiles("c1ccccc1C=O")
    assert all(x is y for x, y in zip(a.edges, b.edges))
    assert parse_smiles("CCO").edges[0] is parse_smiles("CCN").edges[0]


# -- shared bond edges ------------------------------------------------------

# Suffixes that make a clean molecule fail with every hard diagnostic kind at
# varying positions, and one (a pentavalent carbon) that parses with a
# valence warning.
_BREAKERS = ("(", ")", "=", "%10", "[C+-]", "C==C", "[Xx]", "C(C)(C)(C)(C)C")


@pytest.fixture(scope="module")
def mixed_corpus():
    """2,100 rows: 2,000 ``molgen`` molecules with a broken or warning
    variant of every 20th one after it."""
    from molgen import make_molecules

    rows = []
    for i, (text, _) in enumerate(make_molecules(2000, seed=7)):
        rows.append(text)
        if i % 20 == 19:
            rows.append(text + _BREAKERS[(i // 20) % len(_BREAKERS)])
    return rows


def test_molgen_refuses_more_molecules_than_its_recipe_writes():
    from molgen import MAX_MOLECULES, make_molecules

    assert MAX_MOLECULES == 3920  # 7 cores x 35 substituents + 3 x 35 x 35
    start = time.perf_counter()
    with pytest.raises(ValueError, match="writes 3920 distinct molecules, not 3921"):
        make_molecules(MAX_MOLECULES + 1, 0)
    assert time.perf_counter() - start < 1.0


def _outcome(text):
    """The parse of ``text`` as text: the graph (every node field, every
    edge in order) and warnings, or the hard diagnostic."""
    try:
        graph, warnings = parse_with_diagnostics(text)
    except SmilesParseError as exc:
        return str(exc.diagnostic)
    # Each edge passes the constructor's own checks unchanged.
    assert all(BondEdge(e.u, e.v, e.bond_type, e.direction) == e for e in graph.edges)
    return repr(graph), [str(w) for w in warnings]


def _edge_by_edge(n, bonds):
    """``n`` carbons bonded by ``BondEdge.between`` over ``(a, b, type)``."""
    nodes = (AtomNode(6),) * n
    return MoleculeGraph(nodes, tuple(BondEdge.between(a, b, t) for a, b, t in bonds))


def test_chain_longer_than_the_edge_cache_parses_as_built():
    n = smiles._BOND_EDGE_CACHE + 100
    expected = _edge_by_edge(n, [(i, i + 1, BondType.SINGLE) for i in range(n - 1)])
    for _ in range(2):  # the second parse finds the first edges evicted
        assert parse_smiles("C" * n) == expected


def _macrocycle(n, rings):
    """``n`` carbons in a chain; atom k opens %(10 + k) with a double bond,
    atom n - 1 - k closes it."""
    return (
        "".join(f"C=%{10 + k}" for k in range(rings))
        + "C" * (n - 2 * rings)
        + "".join(f"C%{10 + k}" for k in reversed(range(rings)))
    )


def test_macrocycle_of_ring_closures_parses_as_built():
    n, rings = smiles._BOND_EDGE_CACHE + 100, 40
    text = _macrocycle(n, rings)
    bonds = [(i, i + 1, BondType.SINGLE) for i in range(n - 1)]
    bonds += [(k, n - 1 - k, BondType.DOUBLE) for k in range(rings)]
    assert parse_smiles(text) == _edge_by_edge(n, bonds)


def test_shared_edges_are_valid_and_change_no_parse(mixed_corpus, monkeypatch):
    texts = [g.smiles for g in GOLDEN] + mixed_corpus
    shared = [_outcome(t) for t in texts]
    monkeypatch.setattr(smiles, "_bond_edge", BondEdge.between)
    assert [_outcome(t) for t in texts] == shared
    assert sum(isinstance(o, str) for o in shared) == 88  # hard failures


def test_second_pass_builds_no_edge(mixed_corpus, tmp_path):
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["smiles"], *([t] for t in mixed_corpus)])
    first = parse_corpus(path)
    before = smiles._bond_edge.cache_info()
    second = parse_corpus(path)
    after = smiles._bond_edge.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits >= sum(g.num_edges for g in second.graphs)
    assert all(
        x is y for a, b in zip(first.graphs, second.graphs) for x, y in zip(a.edges, b.edges)
    )
    assert len(first.failures) == 88


# -- one digest of every parse ----------------------------------------------

# Atoms and bond symbols of the random strings below.
_ATOMS = (
    "C", "C", "c", "c", "N", "n", "O", "S", "Cl", "Br",
    "[nH]", "[C@@H]", "[O-]", "[NH4+]", "[13CH3]",
)
_BONDS = ("", "", "", "", "=", "#", "/", "\\", ":", "-")
# Any token in any order: mostly strings that fail somewhere.
_SOUP = (*_ATOMS, "1", "1", "2", "2", "3", "%10", "(", ")", *_BONDS[4:], ".")


def _soup(rng):
    return "".join(rng.choices(_SOUP, k=rng.randint(1, 24)))


def _ringy(rng):
    """Balanced branches and paired ring digits, so that ring closures,
    repeated bonds and valence warnings are common."""
    out, depth, digits = [rng.choice(_ATOMS)], 0, Counter()
    for _ in range(rng.randint(0, 40)):
        r = rng.random()
        if r < 0.5:
            out.append(rng.choice(_BONDS) + rng.choice(_ATOMS))
        elif r < 0.75:
            digit = rng.choice("1234") if rng.random() < 0.9 else "%10"
            digits[digit] += 1
            out.append(rng.choice(_BONDS) + digit)
        elif r < 0.85:
            out.append("(" + rng.choice(_BONDS) + rng.choice(_ATOMS))
            depth += 1
        elif r < 0.95 and depth:
            out.append(")")
            depth -= 1
        elif r < 0.97:
            out.append("." + rng.choice(_ATOMS))
    out += [digit for digit, k in digits.items() if k % 2]
    return "".join(out) + ")" * depth


def _ring_stress():
    """Molecules with many ring closures, and closures that repeat a bond."""
    fused = "".join(f"C{d}" for d in "123456789") + "CC" + "".join(f"C{d}" for d in "987654321")
    repeats = [f"C1{mid}C1" for mid in ("", "C", "(C)", "(C1)", "=C", "CC")]
    repeats += ["C12CCC12", "C12CC21", "C(C1)1", "C1CC1C1C1", "C%10C%10", "C1.C1", "C11"]
    return [
        *("c1ccc(cc1)" * k for k in (1, 2, 50, 500)),
        "C1CCCCC1" * 300,
        fused * 20,
        _macrocycle(300, 40),
        *repeats,
    ]


def _best_of_three(text):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        parse_smiles(text)
        times.append(time.perf_counter() - start)
    return min(times)


def test_ring_closures_parse_in_linear_time():
    # 12,000 atoms and 2,000 ring closures against a 12,000-atom chain.
    rings, chain = _best_of_three("c1ccc(cc1)" * 2000), _best_of_three("C" * 12_000)
    assert rings < 5 * chain, (rings, chain)


def test_only_parse_with_diagnostics_checks_valence(mixed_corpus, tmp_path, monkeypatch):
    calls = []
    check = smiles._valence_warnings

    def counted(graph, atoms):
        calls.append(graph)
        return check(graph, atoms)

    monkeypatch.setattr(smiles, "_valence_warnings", counted)
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["smiles"], *([t] for t in mixed_corpus)])
    assert len(parse_corpus(path).rows) == len(mixed_corpus) - 88
    parse_smiles("C(C)(C)(C)(C)C")
    assert calls == []
    for k, text in enumerate(("CCO", "C(C)(C)(C)(C)C", "c1ccccc1"), 1):
        parse_with_diagnostics(text)
        assert len(calls) == k


# A change to any graph, diagnostic or warning moves this digest.
PINNED_PARSES = "d13bba95528c1f02642afbccc9e78d7611b3b6e7e3996a0d50393b8a92d67712"


def test_every_parse_is_pinned(mixed_corpus):
    # Graphs, diagnostics and warnings of the golden corpus, the mixed corpus,
    # ring-heavy molecules and 24,000 seeded random strings.
    rng = random.Random(31)
    texts = [g.smiles for g in GOLDEN] + mixed_corpus + _ring_stress()
    texts += [_soup(rng) for _ in range(12_000)] + [_ringy(rng) for _ in range(12_000)]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(f"{text}\n{_outcome(text)!r}\n".encode())
    assert digest.hexdigest() == PINNED_PARSES


# -- the parser against its reference ----------------------------------------

# Tokens of the grammar, weighted toward common ones; "[" stands for a
# bracket atom drawn field by field.  Bond symbols glued to ring digits make
# ring bonds that agree and disagree at their two ends.
_GRAMMAR = (
    "B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", *"bcnops",
    *"CCCCCCcccccNOn", *"[[[[[[",
    *"1111222330456789", "%10", "%10", "%12", "%01", "%1", "%", "%123",
    *"((((", *"))))", ".", "-", "=", "=", "#", ":", "/", "\\", "/", "\\",
    "=1", "/1", "\\1", "-1", "=2", "#1", ":2",
)
# Characters the grammar rejects: unknown letters, a non-ASCII digit,
# superscript and letter, punctuation and inner whitespace.
_REJECTED = ("X", "H", "l", "r", "\u0663", "\u00b9", "\u00e9", "*", "$", " ", "]")
# Bracket atom fields in order: isotope, symbol (some rejected), chirality
# (with extended tags), hydrogen count, charge, atom class, closing bracket.
_BRACKET_FIELDS = (
    ("", "", "2", "13"),
    ("C", "C", "c", "N", "n", "O", "S", "H", "Se", "se", "as", "Xx", "q", "8", ""),
    ("", "", "", "@", "@@", "@TH1", "@SP2", "@@@"),
    ("", "", "H", "H2", "H12", "H\u00b2"),
    ("", "", "", "+", "-", "++", "--", "+-", "+2", "-3", "+15", "-16", "+++"),
    ("", "", "", ":1", ":12", ":"),
    ("]", "]", "]", "]", "]", ""),
)
_BRACKET_ATOMS = st.tuples(*map(st.sampled_from, _BRACKET_FIELDS)).map(
    lambda fields: "[" + "".join(fields)
)


@st.composite
def _smiles_like(draw):
    """Up to 31 tokens, padded with whitespace that the parser strips.  Most
    strings start with an atom; some start with a bond symbol or a dot, so
    that the checks at the next character meet no previous atom."""
    tokens = [draw(st.sampled_from(("C", "C", "c", "[", "", "=", "/", ".")))]
    tokens += draw(st.lists(st.sampled_from(_GRAMMAR * 4 + _REJECTED), max_size=30))
    k = tokens.count("[")
    brackets = iter(draw(st.lists(_BRACKET_ATOMS, min_size=k, max_size=k)))
    pad = draw(st.sampled_from(("", "", " ", "\n")))
    return pad + "".join(next(brackets) if t == "[" else t for t in tokens) + pad


_BONDS_OR_NONE = ("", "", "", "", "", "", "=", "#", ":", "-", "/", "\\")
_WELL_FORMED_ATOMS = (
    "C", "C", "c", "c", "c", "c", "N", "n", "O", "S", "Cl", "Br", "B", "b",
    "[nH]", "[C@@H]", "[C@H]", "[O-]", "[NH4+]", "[13CH3]", "[Se]", "[as]", "[Cl:1]",
)


@st.composite
def _well_formed(draw):
    """Atoms joined by optional bond symbols, balanced branches and paired
    ring digits, with bond symbols at either end of a ring bond: strings
    that mostly parse, some with valence warnings."""
    atom, bond = st.sampled_from(_WELL_FORMED_ATOMS), st.sampled_from(_BONDS_OR_NONE)
    out, depth, unpaired = [draw(atom)], 0, set()
    for step in draw(st.lists(st.sampled_from("aaaarrr().."), max_size=25)):
        if step == "a":
            out += [draw(bond), draw(atom)]
        elif step == "r":
            digit = draw(st.sampled_from(("1", "2", "3", "%10")))
            out += [draw(bond), digit]
            unpaired ^= {digit}
        elif step == "(":
            out += ["(", draw(bond), draw(atom)]
            depth += 1
        elif step == ")" and depth:
            out.append(")")
            depth -= 1
        elif step == ".":
            out += [".", draw(atom)]
    out.append(draw(atom))
    for digit in sorted(unpaired):
        out += [draw(bond), digit]
    return "".join(out) + ")" * depth


def _reference_outcome(parse, text):
    """``parse(text)`` as comparable values: the graph's listing and edges
    in order with each warning's kind, position and message, or the hard
    diagnostic's."""
    try:
        graph, warnings = parse(text)
    except SmilesParseError as exc:
        d = exc.diagnostic
        return d.kind, d.position, d.message
    return (
        format_graph(graph),
        graph.edges,
        [(w.kind, w.position, w.message) for w in warnings],
    )


# Where several checks apply at one character, the first in the parser's
# order names the diagnostic; and the bond types that the previous atom
# decides, across a branch and at either end of a ring bond.
_CHECK_ORDER_CASES = (
    "=(C", "=)C", "=[Xx]", "=[C", "%1C", "C=.C", "C(=)C", "C=1CC#1", "C/1CC/1",
    "C/1CC\\1", "C1CC/1", "C=11", "C=1#1", "C1C1", "C1CC1C1C1", "c(C)c", "C(c)c",
    "c1ccccc1", "ClBrCCl", " C.C\n",
)


def _assert_agrees_with_reference(text):
    expected = _reference_outcome(smiles_oracle.parse_with_diagnostics, text)
    assert _reference_outcome(parse_with_diagnostics, text) == expected
    # parse_smiles: the same graph or diagnostic, and no valence check.
    if not isinstance(expected[0], DiagnosticKind):
        expected = (*expected[:2], [])
    assert _reference_outcome(lambda t: (parse_smiles(t), []), text) == expected


@pytest.mark.parametrize("text", _CHECK_ORDER_CASES)
def test_check_order_agrees_with_reference(text):
    _assert_agrees_with_reference(text)


@settings(max_examples=800, deadline=None)
@given(st.one_of(_smiles_like(), _well_formed()))
def test_parser_agrees_with_its_reference(text):
    _assert_agrees_with_reference(text)


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
    # Digits are ASCII: other scripts' digits are not ring closures or counts.
    ("C\u00b9CC\u00b9", DiagnosticKind.UNKNOWN_ATOM, 1),
    ("[CH\u00b2]", DiagnosticKind.UNKNOWN_ATOM, 0),
    ("C%\u00b9\u00b2CC%\u00b9\u00b2", DiagnosticKind.UNCLOSED_RING, 1),
    ("C\u0663CC\u0663", DiagnosticKind.UNKNOWN_ATOM, 1),
    # A ring closure repeating a ring bond or a chain bond, or closing on itself.
    ("C1C1", DiagnosticKind.BAD_BOND, 3),
    ("C12CCC12", DiagnosticKind.BAD_BOND, 7),
    ("C1(C1)", DiagnosticKind.BAD_BOND, 4),
    ("C11", DiagnosticKind.BAD_BOND, 2),
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


def test_parse_corpus_missing_column(tmp_path):
    p = _write(tmp_path, "wrong.csv", "id,foo\n1,C\n")
    with pytest.raises(DataError):
        parse_corpus(p)


# Blank lines, short and long rows, and a repeated ``smiles`` column: in a
# row that reaches the last one, its cell is the SMILES; in a row that
# stops short of it, csv.DictReader gives no SMILES (an empty string).
_RAGGED_CSV = (
    "id,smiles,note,smiles\n"
    "1,X,a,CCO\n"
    "\n"
    "2,CC\n"
    "3,N,b,c1ccccc1,extra,cells\n"
    "4,O,c,C1CC\n"
    "5\n"
    "\n"
    "6,,,  CN  \n"
)


def test_parse_corpus_reads_rows_as_dict_reader_does(tmp_path):
    import csv

    p = _write(tmp_path, "ragged.csv", _RAGGED_CSV)
    result = parse_corpus(p)
    with open(p, newline="") as fh:
        texts = [(r.get("smiles") or "").strip() for r in csv.DictReader(fh)]
    assert texts == ["CCO", "", "c1ccccc1", "C1CC", "", "CN"]
    assert [(r.index, r.smiles) for r in result.rows] == [(0, "CCO"), (2, "c1ccccc1"), (5, "CN")]
    assert [(f.index, f.smiles) for f in result.failures] == [(1, ""), (3, "C1CC"), (4, "")]


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
