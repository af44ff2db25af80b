"""Fingerprints, Dice similarity, and the retrieval report."""

import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fingerprint_oracle as oracle
from fingerprint_oracle import enumerate_simple_paths
from golden_corpus import GOLDEN
from graph_oracle import relabel, ring_atoms, scaffold_key
from molcontrast.datasets import scaffold_keys
import molcontrast.autodiff as ad
import molcontrast.encoder as encoder
import molcontrast.fingerprints as fingerprints
from molcontrast.encoder import EncoderConfig, EncoderModel, GraphBatch, embed_molecules
from molcontrast.errors import NumericAbort
from molcontrast.fingerprints import (
    _CHUNK,
    BinStat,
    Fingerprint,
    NeighborHit,
    RetrievalReport,
    _cosine_distances,
    _dice_rows,
    _extend,
    _fnv1a64_many,
    _fold_decimal,
    _hash_distinct,
    _refine_batch,
    circular_fp,
    cosine_distance,
    dice,
    fingerprint_chunks,
    fnv1a64,
    path_fp,
    retrieval_analysis,
)
from molcontrast.graph import AtomNode, BondEdge, BondType, MoleculeGraph, mask_token
from molcontrast.smiles import parse_smiles
from molgen import make_molecules, scaled_molecules, unlabeled_corpus
from test_graph import random_graphs


def small_model(seed=0):
    cfg = EncoderConfig(num_layers=2, hidden_dim=8, latent_dim=4)
    return EncoderModel.initialize(cfg, seed)


# -- hashing -----------------------------------------------------------------


def test_fnv1a64_known_vectors():
    # published reference vectors for 64-bit FNV-1a
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_stays_in_64_bits():
    rng = np.random.default_rng(0)
    for _ in range(50):
        data = rng.integers(0, 256, size=rng.integers(0, 40)).astype(np.uint8)
        assert 0 <= fnv1a64(bytes(data)) < 1 << 64


def _random_texts(rng, lengths):
    return [bytes(rng.integers(0, 256, size=n).astype(np.uint8)) for n in lengths]


@pytest.mark.parametrize(
    "lengths",
    [
        [],
        [0],
        [0, 0, 3],
        [5] * 7,  # equal lengths: every column updates every row
        [1, 2, 300, 3, 0, 2],  # one long row among short ones
        list(range(40, -1, -1)),
    ],
)
def test_fnv1a64_many_matches_scalar(lengths):
    texts = _random_texts(np.random.default_rng(len(lengths)), lengths)
    got = _fnv1a64_many(texts)
    assert got.dtype == np.uint64
    assert got.tolist() == [fnv1a64(t) for t in texts]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=24), max_size=12))
def test_fnv1a64_many_matches_scalar_on_any_bytes(texts):
    assert _fnv1a64_many(texts).tolist() == [fnv1a64(t) for t in texts]


def _streamed(rows):
    """The hash of every row of a uint8 table as a path grows it: the first
    value's digits, then ``",{bond},{z}"`` for each following pair."""
    rows = np.array(rows, dtype=np.uint8)
    h = _fold_decimal(np.full(len(rows), fnv1a64(b""), dtype=np.uint64), rows[:, 0])
    for j in range(1, rows.shape[1], 2):
        h = _extend(h, rows[:, j], rows[:, j + 1])
    return h


def _joined(rows):
    return [fnv1a64(",".join(map(str, row)).encode()) for row in rows]


@settings(max_examples=100, deadline=None)
# 1-, 2- and 3-digit values (119 is the mask token) side by side, so the
# second and third digit steps update only some rows.
@example([[6, 0, 119], [17, 3, 8], [119, 1, 6], [255, 2, 10], [0, 0, 0]])
@given(
    st.integers(0, 7).flatmap(
        lambda bonds: st.lists(
            st.lists(st.integers(0, 255), min_size=2 * bonds + 1, max_size=2 * bonds + 1),
            min_size=1,
            max_size=8,
        )
    )
)
def test_streamed_hash_matches_joined_text(rows):
    assert _streamed(rows).tolist() == _joined(rows)


def _invariant_text(z, d, c, r):
    return f"{z}|{d}|{c}|{r}"


@pytest.mark.parametrize(
    "keys",
    [
        [],
        [[6, 1, -1, 0]],  # a single row
        [[8, 2, 0, 1]] * 5,  # every row equal
        # negative charges, isolated atoms (degree 0) and repeated rows
        [[8, 1, -1, 0], [7, 4, 1, 1], [8, 1, -1, 0], [6, 0, 0, 0], [8, 1, 1, 0],
         [6, 0, -2, 0], [6, 0, 0, 0]],
    ],
)
def test_distinct_row_hashing_matches_hashing_every_row(keys):
    table = np.array(keys, dtype=np.int64).reshape(-1, 4)
    want = [fnv1a64(_invariant_text(*row).encode()) for row in keys]
    assert _hash_distinct(table, _invariant_text).tolist() == want


def _refine_by_atom(b, labels):
    """A refine round built and hashed one atom at a time."""
    src, dst, bond, start = b.bonds_by_source()
    hashes = []
    for v in range(b.num_nodes):
        rows = range(start[v], start[v + 1])
        pairs = sorted((int(bond[i]), int(labels[dst[i]])) for i in rows)
        text = f"{labels[v]}|" + ";".join(f"{t},{u}" for t, u in pairs)
        hashes.append(fnv1a64(text.encode()))
    return hashes


@pytest.mark.parametrize("kind", ["random", "few", "equal"])
@pytest.mark.parametrize("smiles", [None, "C", "[Na+].[Cl-]"])
def test_refine_round_matches_per_atom_texts(kind, smiles):
    # Isolated atoms, ions, bonds listed twice and corpus molecules, with
    # labels all distinct, drawn from three values (0 and 2^64 - 1 among
    # them) or all equal.
    if smiles is None:
        graphs = [g for g, *_ in HAND_BUILT.values()] + ORACLE_GRAPHS[:30]
    else:
        graphs = [parse_smiles(smiles)]
    b = GraphBatch.from_graphs(graphs)
    rng = np.random.default_rng(7)
    labels = {
        "random": lambda: rng.integers(0, 2**64, b.num_nodes, dtype=np.uint64),
        "few": lambda: rng.choice(np.array([0, 3, 2**64 - 1], dtype=np.uint64), b.num_nodes),
        "equal": lambda: np.full(b.num_nodes, 2**63 + 5, dtype=np.uint64),
    }[kind]()
    assert _refine_batch(b.bonds_by_source(), labels).tolist() == _refine_by_atom(b, labels)


# -- ring atoms --------------------------------------------------------------


def test_ring_atoms_cycle_and_chain():
    assert ring_atoms(parse_smiles("c1ccccc1")) == frozenset(range(6))
    assert ring_atoms(parse_smiles("CCCCCC")) == frozenset()


def test_ring_atoms_substituent_excluded():
    g = parse_smiles("Cc1ccccc1")
    assert ring_atoms(g) == frozenset(range(1, 7))


def test_ring_atoms_fused_and_spiro():
    assert ring_atoms(parse_smiles("c1ccc2ccccc2c1")) == frozenset(range(10))
    assert ring_atoms(parse_smiles("C1CC12CC2")) == frozenset(range(5))


def test_ring_atoms_biphenyl_bridge():
    # the inter-ring bond is a bridge, but both endpoints still sit on rings
    g = parse_smiles("c1ccccc1-c1ccccc1")
    assert ring_atoms(g) == frozenset(range(12))


# -- graphs the parser never builds -------------------------------------------


def _hand_built(atoms, bonds):
    return MoleculeGraph(
        tuple(AtomNode(z) for z in atoms), tuple(BondEdge(u, v, t) for u, v, t in bonds)
    )


_S, _D = BondType.SINGLE, BondType.DOUBLE
# Where "distinct neighbour" and "skip the parent" decide the answer: a bond
# listed twice is one neighbour to the core and closes no ring.  Each entry
# is (graph, ring atoms, scaffold key, sha256 of the packed circular bits),
# taken from the per-molecule walks these replaced.
HAND_BUILT = {
    "repeated_single_pair": (
        _hand_built([6, 6, 7], [(0, 1, _S), (0, 1, _S), (1, 2, _S)]),
        set(),
        2499684587622229579,
        "04fb27562005682fa99f56490469e38c96f365790dbc159a3cda95274ec638fb",
    ),
    "repeated_mixed_pair": (
        _hand_built([6, 6, 8], [(0, 1, _S), (0, 1, _D), (1, 2, _S)]),
        set(),
        2499684587622229579,
        "aa1aafeaeac5fb439f0a8096cf7e9bd518506c010e99ba600be31420748ed61b",
    ),
    "isolated_atom": (
        _hand_built([6, 6, 6, 17], [(0, 1, _S), (1, 2, _S), (0, 2, _S)]),
        {0, 1, 2},
        10918882163813593689,
        "1a11fd89c2d8dec13d318145fcf2e6c29abd258d5b1d3ceeef00b1fe035e004e",
    ),
    "two_fragments": (
        _hand_built(
            [6, 6, 6, 7, 7, 7, 7, 8],
            [(0, 1, _S), (1, 2, _S), (0, 2, _S), (3, 4, _S), (4, 5, _S), (5, 6, _S),
             (3, 6, _S), (6, 7, _D)],
        ),
        {0, 1, 2, 3, 4, 5, 6},
        2673081611653299609,
        "b0d465172113c1ddb05af2dbd85148b1d17f14ead943d688e3766d6c8299783f",
    ),
    "bridged_rings": (
        _hand_built(
            [6, 6, 6, 6, 6, 6, 9],
            [(0, 1, _S), (1, 2, _S), (0, 2, _S), (2, 3, _S), (3, 4, _S), (4, 5, _S),
             (3, 5, _S), (5, 6, _S)],
        ),
        {0, 1, 2, 3, 4, 5},
        16358124338033661400,
        "1ce10a7af30d0b54a9850dbab4cb6be6915f1cbee311e3d32f4ef3304ee486b1",
    ),
    "ring_with_repeated_pair": (
        _hand_built([6, 6, 6, 6], [(0, 1, _S), (1, 2, _S), (2, 3, _S), (0, 3, _S), (1, 2, _D)]),
        {0, 1, 2, 3},
        16187974018674810406,
        "e973bfb459a0c7da038bf85c4a8afdef6d3d2cda7355bbcca533ec730c017360",
    ),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_graphs_keep_their_rings_keys_and_bits(name):
    g, rings, key, bits = HAND_BUILT[name]
    assert ring_atoms(g) == rings
    assert scaffold_key(g) == key
    assert hashlib.sha256(np.packbits(circular_fp(g).bits).tobytes()).hexdigest() == bits


def test_hand_built_graphs_in_one_chunk():
    # Laid end to end in one pack, each graph still gets its own key.
    graphs = [g for g, *_ in HAND_BUILT.values()]
    assert scaffold_keys(graphs) == [key for _, _, key, _ in HAND_BUILT.values()]
    circular = np.concatenate([c for c, _ in fingerprint_chunks(graphs)])
    assert [hashlib.sha256(np.packbits(row).tobytes()).hexdigest() for row in circular] == [
        bits for *_, bits in HAND_BUILT.values()
    ]


# -- circular fingerprints ---------------------------------------------------


def test_circular_deterministic():
    g = parse_smiles("CC(=O)O")
    a = circular_fp(g)
    b = circular_fp(g)
    assert a.kind == "circular"
    np.testing.assert_array_equal(a.bits, b.bits)


def test_circular_methane_vs_ethane():
    a = circular_fp(parse_smiles("C"))
    b = circular_fp(parse_smiles("CC"))
    assert not np.array_equal(a.bits, b.bits)


def test_circular_benzene_three_bits():
    # all six atoms share one environment, so the initial invariant and each
    # of the two radius rounds contribute a single bit: 3 bits
    assert circular_fp(parse_smiles("c1ccccc1")).count() == 3


def test_circular_relabel_invariant():
    g = parse_smiles("CC(C)c1ccc(O)cc1")
    rng = np.random.default_rng(3)
    base = circular_fp(g)
    for _ in range(5):
        perm = rng.permutation(g.num_nodes).tolist()
        np.testing.assert_array_equal(circular_fp(relabel(g, perm)).bits, base.bits)


def test_circular_charge_sensitivity():
    a = circular_fp(parse_smiles("CC(=O)O"))
    b = circular_fp(parse_smiles("CC(=O)[O-]"))
    assert not np.array_equal(a.bits, b.bits)


# -- pinned hash values ------------------------------------------------------

# Set bits and scaffold keys of a charged chain, a fused ring system and two
# rings joined by a bridge, pinned so a change to the hashing cannot move a
# bit unnoticed.
PINNED_HASHES = {
    "acetate": (
        [143, 176, 243, 451, 965, 986, 1017, 1298, 1415, 1643, 1716, 1837],
        [1068, 1127, 1150, 1295, 1766, 1857],
        2499684587622229579,
    ),
    "indole skeleton": (
        [0, 7, 33, 44, 103, 318, 571, 628, 671, 808, 972, 1026, 1207, 1646, 1940, 2011],
        [158, 166, 253, 310, 333, 593, 601, 805, 946, 1030, 1094, 1102, 1213,
         1238, 1269, 1357, 1381, 1442, 1537, 1741, 1822, 1866, 1877, 1918, 1946, 1965],
        13113806858196302239,
    ),
    "biphenyl": (
        [44, 103, 318, 671, 811, 1697, 1940, 1949, 2045],
        [192, 224, 328, 352, 447, 601, 623, 783, 791, 1167, 1295, 1335, 1442,
         1463, 1503, 1512, 1537, 1584, 1866, 1946],
        2994126293470443386,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_hash_values_pinned(name):
    circular, path, scaffold = PINNED_HASHES[name]
    g = parse_smiles(next(m.smiles for m in GOLDEN if m.name == name))
    assert np.flatnonzero(circular_fp(g).bits).tolist() == circular
    assert np.flatnonzero(path_fp(g).bits).tolist() == path
    assert scaffold_key(g) == scaffold


# sha256 of the packed circular bits, the packed path bits and the
# little-endian uint64 scaffold keys of 2,000 molecules from each generator,
# pinned so that a faster hash cannot move one bit of a corpus unnoticed.
CORPUS_DIGESTS = {
    "make_molecules": (
        "330ecefe6c629677e011c8cf288d06ea56cb4336ac1214bc679a97532cf28f15",
        "01ccde19a598a0d8a08e05a551814aa1042268e9b8dc3972bbc7362d75f22921",
        "bb718247339252f181ae27c34fb8c8c209c0cb99578f0ce7a8278137d38b7986",
    ),
    "scaled_molecules": (
        "53da4dcf280c2cc9879082a8bce5bed7122e86a64ca91f4669a33bbe267a7294",
        "cec99e2a38d009bb306f3b6b695ad78c1abc3adbe12ee5795ce583671cd5e92c",
        "c1fd53a160a71ba5677be98ae05ef423f28f945b891b5d2b36e28b9ce586641c",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_bits_and_keys_pinned(name):
    if name == "make_molecules":
        graphs = [g for _, g in make_molecules(2000, 0)]
    else:
        graphs = [parse_smiles(s) for s in scaled_molecules(2000, 0)]
    chunks = list(fingerprint_chunks(graphs))
    circular = np.concatenate([c for c, _ in chunks])
    path = np.concatenate([p for _, p in chunks])
    keys = np.array(scaffold_keys(graphs), dtype="<u8")
    assert tuple(
        hashlib.sha256(data).hexdigest()
        for data in (np.packbits(circular).tobytes(), np.packbits(path).tobytes(), keys.tobytes())
    ) == CORPUS_DIGESTS[name]


# -- batched bits against the per-molecule oracle ---------------------------

# Every shape the walk and the refinement must get right: a lone atom, two
# ions, a chain longer than the 7-bond cap, fused and spiro rings, charges,
# multiple bonds and a three-digit atomic number (the mask token).
ORACLE_SMILES = (
    "C",
    "[Na+].[Cl-]",
    "C" * 10,
    "c1ccc2ccccc2c1",
    "C1CC12CC2",
    "C1CCC2(CC1)CCCC2",
    "CC(=O)[O-]",
    "C[N+](C)(C)C",
    "C#CC=CC",
    "c1ccc2c(c1)[nH]c1ccccc12",
    "C12C3C4C1C5C2C3C45",  # cubane: many paths per atom
    "C1C2CC3CC1CC(C2)C3",  # adamantane: bridged rings
    "C1CC1CCC1CC1",  # two rings joined by a chain of bridges
)
_MASKED = MoleculeGraph(
    (AtomNode(6), mask_token(), AtomNode(8, formal_charge=-1), mask_token()),
    (BondEdge(0, 1), BondEdge(1, 2, 1), BondEdge(1, 3)),
)
ORACLE_GRAPHS = (
    [parse_smiles(s) for s in ORACLE_SMILES]
    + [parse_smiles(m.smiles) for m in GOLDEN]
    + unlabeled_corpus(60, 11)
    + [_MASKED]
)


def _assert_bits_match_oracle(graphs):
    chunks = list(fingerprint_chunks(graphs))
    assert [len(c) for c, _ in chunks] == [
        min(_CHUNK, len(graphs) - lo) for lo in range(0, len(graphs), _CHUNK)
    ]
    circular = np.concatenate([c for c, _ in chunks])
    path = np.concatenate([p for _, p in chunks])
    assert circular.shape == path.shape == (len(graphs), 2048)
    for g, c, p in zip(graphs, circular, path):
        np.testing.assert_array_equal(c, oracle.circular_fp(g).bits)
        np.testing.assert_array_equal(p, oracle.path_fp(g).bits)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(ORACLE_GRAPHS), min_size=1, max_size=12))
def test_batched_bits_match_oracle(graphs):
    _assert_bits_match_oracle(graphs)


def test_batched_bits_match_oracle_across_chunks():
    graphs = unlabeled_corpus(_CHUNK + 40, 12) + ORACLE_GRAPHS
    _assert_bits_match_oracle(graphs)


def test_single_molecule_fps_match_oracle():
    for g in ORACLE_GRAPHS:
        np.testing.assert_array_equal(circular_fp(g).bits, oracle.circular_fp(g).bits)
        np.testing.assert_array_equal(path_fp(g).bits, oracle.path_fp(g).bits)


def test_ring_atoms_match_oracle():
    for g in ORACLE_GRAPHS:
        assert ring_atoms(g) == oracle.ring_atoms(g)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_ring_atoms_match_oracle_on_any_graph(g):
    assert ring_atoms(g) == oracle.ring_atoms(g)


def test_fingerprint_chunks_of_no_molecules():
    assert list(fingerprint_chunks([])) == []


# -- path fingerprints -------------------------------------------------------


def test_path_single_atom_empty():
    assert path_fp(parse_smiles("C")).count() == 0


def test_path_ethane_one_bit():
    assert path_fp(parse_smiles("CC")).count() == 1


def test_pentane_path_enumeration():
    # 4 one-bond + 3 two-bond + 2 three-bond + 1 four-bond paths
    paths = enumerate_simple_paths(parse_smiles("CCCCC"))
    assert len(paths) == 10
    by_len = {}
    for p in paths:
        by_len[len(p) - 1] = by_len.get(len(p) - 1, 0) + 1
    assert by_len == {1: 4, 2: 3, 3: 2, 4: 1}


def test_path_enumeration_dedupes_directions():
    paths = enumerate_simple_paths(parse_smiles("CCC"))
    assert sorted(paths) == [(0, 1), (0, 1, 2), (1, 2)]


def test_pentane_four_distinct_path_labels():
    # uniform chain: one label sequence per path length
    assert path_fp(parse_smiles("CCCCC")).count() == 4


def test_path_respects_max_len():
    # a 10-carbon chain has 10 - k paths of k bonds; only k <= 7 are kept
    g = parse_smiles("C" * 10)
    paths = enumerate_simple_paths(g)
    assert max(len(p) - 1 for p in paths) == 7
    assert len(paths) == sum(10 - k for k in range(1, 8))
    assert path_fp(g).count() == 7


def test_path_relabel_invariant():
    g = parse_smiles("CC(=O)Oc1ccccc1")
    rng = np.random.default_rng(5)
    base = path_fp(g)
    for _ in range(5):
        perm = rng.permutation(g.num_nodes).tolist()
        np.testing.assert_array_equal(path_fp(relabel(g, perm)).bits, base.bits)


def test_path_bond_type_sensitivity():
    a = path_fp(parse_smiles("C=C"))
    b = path_fp(parse_smiles("CC"))
    assert not np.array_equal(a.bits, b.bits)


# -- dice --------------------------------------------------------------------


def _fp(kind, nbits, on):
    bits = np.zeros(nbits, dtype=bool)
    bits[list(on)] = True
    return Fingerprint(kind, bits)


def test_dice_identity_and_disjoint():
    a = _fp("circular", 8, [0, 3])
    assert dice(a, a) == 1.0
    assert dice(a, _fp("circular", 8, [1, 2])) == 0.0


def test_dice_half_overlap():
    assert dice(_fp("path", 8, [0, 1]), _fp("path", 8, [1, 2])) == 0.5


def test_dice_both_empty_is_one():
    assert dice(_fp("circular", 8, []), _fp("circular", 8, [])) == 1.0


def test_dice_mismatch_errors():
    with pytest.raises(ValueError):
        dice(_fp("circular", 8, [0]), _fp("path", 8, [0]))
    with pytest.raises(ValueError):
        dice(_fp("path", 8, [0]), _fp("path", 16, [0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_dice_matches_bit_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(32) < 0.4
    b = rng.random(32) < 0.4
    inter = sum(1 for x, y in zip(a, b) if x and y)
    na = int(a.sum())
    nb = int(b.sum())
    expected = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
    got = dice(Fingerprint("path", a), Fingerprint("path", b))
    assert got == expected
    assert got == dice(Fingerprint("path", b), Fingerprint("path", a))
    assert 0.0 <= got <= 1.0


def bool_dice(query, rows):
    """Dice of one bool row against every row, by summing the bools."""
    total = int(query.sum()) + rows.sum(axis=1)
    shared = (rows & query).sum(axis=1)
    out = np.ones(len(rows))
    some = total > 0
    out[some] = 2.0 * shared[some] / total[some]
    return out


@pytest.mark.parametrize("nbits", [1, 13, 64, 2048])
def test_dice_rows_match_summed_bools(nbits):
    # Widths that are not a multiple of 8 leave padding in the last byte.
    rng = np.random.default_rng(nbits)
    rows = rng.random((40, nbits)) < 0.3
    rows[3] = False
    rows[4] = True
    for query in (rows[0], rows[3], rows[4], np.zeros(nbits, dtype=bool)):
        np.testing.assert_array_equal(_dice_rows(query, rows), bool_dice(query, rows))
    empty = np.zeros((5, nbits), dtype=bool)
    np.testing.assert_array_equal(_dice_rows(empty[0], empty), np.ones(5))


def test_molecular_dice_similar_vs_dissimilar():
    toluene = circular_fp(parse_smiles("Cc1ccccc1"))
    ethylbenzene = circular_fp(parse_smiles("CCc1ccccc1"))
    hexane = circular_fp(parse_smiles("CCCCCC"))
    assert dice(toluene, ethylbenzene) > dice(toluene, hexane)


# -- cosine distance ---------------------------------------------------------


def test_cosine_distance_anchors():
    assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


def test_cosine_distance_errors():
    with pytest.raises(ValueError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def test_vector_cosine_distances_match_per_row():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((50, 16)).astype(np.float32)
    rows[7] = rows[3]  # exact duplicates
    rows[9] = -2.5 * rows[3]  # antipodal
    q = rows[3]
    got = _cosine_distances(q, rows)
    want = [cosine_distance(q, r) for r in rows]
    np.testing.assert_array_equal(got, want)


def test_vector_cosine_distances_reject_zero_vectors():
    rows = np.ones((3, 4))
    with pytest.raises(ValueError):
        _cosine_distances(np.zeros(4), rows)
    rows[1] = 0.0
    with pytest.raises(ValueError):
        _cosine_distances(np.ones(4), rows)


# -- retrieval analysis ------------------------------------------------------


def test_query_copies_fill_every_bin_with_ones():
    query = parse_smiles("CC(=O)O")
    corpus = [query] * 20
    report = retrieval_analysis(query, corpus, small_model(), bins=20)
    assert report.corpus_size == 20
    assert report.bin_count == 20
    assert len(report.bins) == 40  # both fingerprint kinds per bin
    for stat in report.bins:
        assert stat.mean == 1.0
        assert stat.std == 0.0
        assert stat.sample_size == 1


def test_bins_partition_uniformly():
    smiles = ["C" * k for k in range(1, 9)] + ["CO", "CN", "CCO", "CCN"]
    corpus = [parse_smiles(s) for s in smiles]
    report = retrieval_analysis(parse_smiles("CCC"), corpus, small_model(), bins=4)
    circ = [s for s in report.bins if s.fp_kind == "circular"]
    assert [s.sample_size for s in circ] == [3, 3, 3, 3]
    assert [s.bin_index for s in circ] == [0, 1, 2, 3]


def test_query_in_corpus_is_rank_zero():
    corpus = [parse_smiles(s) for s in ("CCO", "CCN", "CCC", "CO", "CN", "CC")]
    report = retrieval_analysis(corpus[2], corpus, small_model(), bins=2, top_k=3)
    assert report.neighbors[0].corpus_index == 2
    assert report.neighbors[0].cosine_distance == pytest.approx(0.0, abs=1e-6)
    assert report.neighbors[0].dice_circular == 1.0
    assert report.neighbors[0].dice_path == 1.0
    assert [h.rank for h in report.neighbors] == [0, 1, 2]


def test_retrieval_deterministic():
    corpus = [parse_smiles(s) for s in ("CCO", "CCN", "CCC", "CO", "CN", "CC")]
    model = small_model()
    a = retrieval_analysis(corpus[0], corpus, model, bins=3)
    b = retrieval_analysis(corpus[0], corpus, model, bins=3)
    assert a.bins == b.bins
    assert a.neighbors == b.neighbors


def test_retrieval_sampling_clamps():
    corpus = [parse_smiles("CCO")] * 12
    report = retrieval_analysis(
        parse_smiles("CCO"), corpus, small_model(), bins=3, samples_per_bin=2
    )
    assert all(s.sample_size == 2 for s in report.bins)


@pytest.mark.parametrize("samples_per_bin", [None, 3, 10])
def test_retrieval_matches_oracle(samples_per_bin):
    corpus = unlabeled_corpus(120, 13)
    model = small_model(2)
    for q in (corpus[0], parse_smiles("CC(=O)[O-]")):
        got = retrieval_analysis(
            q, corpus, model, bins=6, samples_per_bin=samples_per_bin, seed=5, top_k=12
        )
        want = oracle.retrieval_analysis(
            q, corpus, model, bins=6, samples_per_bin=samples_per_bin, seed=5, top_k=12
        )
        assert got == want


def test_retrieval_corpus_too_small():
    with pytest.raises(ValueError):
        retrieval_analysis(
            parse_smiles("C"), [parse_smiles("C")] * 3, small_model(), bins=4
        )


def test_retrieval_names_the_first_zero_representation(monkeypatch):
    # Representations of zero norm have no cosine distance; the first such
    # corpus molecule is named (the query's own row here is all ones).  The
    # second call reuses the corpus embedding and checks it again.
    embedded = []

    def embed(model, graphs):
        embedded.append(len(graphs))
        reps = np.ones((len(graphs), 4), dtype=np.float32)
        reps[2:] = 0.0
        return reps

    monkeypatch.setattr(fingerprints, "embed_molecules", embed)
    corpus = [parse_smiles(s) for s in ["CCO", "CCN", "CCC", "CO"]]
    model = small_model()
    for _ in range(2):
        with pytest.raises(NumericAbort, match="corpus molecule 2"):
            retrieval_analysis(corpus[0], corpus, model, bins=2)
    assert embedded == [4, 1, 1]


# -- the corpus embedding memo -----------------------------------------------

MEMO_SMILES = ["CCO", "CCN", "CCC", "CO", "CN", "CC"]


def counted_embeds(monkeypatch) -> list[int]:
    """The sizes of the ``embed_molecules`` calls retrieval makes from now."""
    sizes = []
    embed = fingerprints.embed_molecules

    def counted(model, graphs):
        sizes.append(len(graphs))
        return embed(model, graphs)

    monkeypatch.setattr(fingerprints, "embed_molecules", counted)
    return sizes


def test_memo_hit_reports_what_a_fresh_call_reports(monkeypatch):
    # 150 molecules are two inference batches, so two workers split them.
    smiles = [s for s, _ in make_molecules(150, 3)]
    corpus = [parse_smiles(s) for s in smiles]
    model = small_model(4)
    sizes = counted_embeds(monkeypatch)
    before = ad._workers
    try:
        ad.set_threads(1)
        retrieval_analysis(corpus[0], corpus, model, bins=5)
        ad.set_threads(2)
        hit = retrieval_analysis(corpus[7], corpus, model, bins=5, samples_per_bin=4)
        # Parsed again, the graphs are other objects: the call misses.
        again = [parse_smiles(s) for s in smiles]
        fresh = retrieval_analysis(again[7], again, model, bins=5, samples_per_bin=4)
    finally:
        ad.set_threads(before)
    assert sizes == [150, 1, 1, 150, 1]
    assert hit == fresh
    assert hit == oracle.retrieval_analysis(
        corpus[7], corpus, model, bins=5, samples_per_bin=4
    )


def test_memo_misses_after_a_parameter_is_edited_in_place(monkeypatch):
    corpus = [parse_smiles(s) for s in MEMO_SMILES]
    model = small_model()
    sizes = counted_embeds(monkeypatch)
    first = retrieval_analysis(corpus[0], corpus, model, bins=3)
    model.params["layers.1.mlp.bias2"].data[0] += 1.0
    edited = retrieval_analysis(corpus[0], corpus, model, bins=3)
    again = [parse_smiles(s) for s in MEMO_SMILES]
    assert sizes == [6, 1, 6, 1]
    assert edited != first
    assert edited == retrieval_analysis(again[0], again, model, bins=3)


def test_memo_reused_only_for_the_same_graphs_in_order(monkeypatch):
    corpus = [parse_smiles(s) for s in MEMO_SMILES]
    model = small_model()
    sizes = counted_embeds(monkeypatch)

    def embeds(graphs) -> bool:
        start = len(sizes)
        retrieval_analysis(corpus[0], graphs, model, bins=3)
        return sizes[start:] == [len(graphs), 1]

    assert embeds(corpus)
    assert not embeds(list(corpus))
    assert not embeds(tuple(corpus))
    others = [
        corpus[:2] + [parse_smiles("CCCl")] + corpus[3:],
        corpus + [parse_smiles("CS")],
        corpus[:-1],
        corpus[::-1],
        [parse_smiles(s) for s in MEMO_SMILES],
    ]
    for other in others:
        assert embeds(other)
        assert embeds(corpus)  # the miss replaced the memo


def test_embed_molecules_runs_a_forward_pass_every_call(monkeypatch):
    corpus = [parse_smiles(s) for s in MEMO_SMILES]
    model = small_model()
    retrieval_analysis(corpus[0], corpus, model, bins=3)
    passes = []
    represent = encoder.represent

    def counted(tape, model, batch):
        passes.append(batch.num_graphs)
        return represent(tape, model, batch)

    monkeypatch.setattr(encoder, "represent", counted)
    first = embed_molecules(model, corpus)
    assert np.array_equal(embed_molecules(model, corpus), first)
    assert passes == [6, 6]


def test_memo_keeps_no_corpus_alive():
    corpus = [parse_smiles(s) for s in MEMO_SMILES]
    model = small_model()
    retrieval_analysis(parse_smiles("CS"), corpus, model, bins=3)
    assert not fingerprints._memo[2].flags.writeable
    assert not fingerprints._memo[3].flags.writeable  # the row norms
    reps, norms = (weakref.ref(a) for a in fingerprints._memo[2:])
    graph = weakref.ref(corpus[0])
    # A new corpus replaces the memo and frees the old embedding and its
    # norms at once.
    other = [parse_smiles(s) for s in MEMO_SMILES]
    retrieval_analysis(parse_smiles("CS"), other, model, bins=3)
    assert reps() is None and norms() is None
    reps, norms = (weakref.ref(a) for a in fingerprints._memo[2:])
    del corpus, other
    # Freed by reference counts alone, before any collection.
    assert fingerprints._memo is None
    assert reps() is None and norms() is None and graph() is None
    gc.collect()
    assert fingerprints._memo is None


# -- one fingerprint pass a query --------------------------------------------


def two_pass_report(query, corpus, model, bins, samples_per_bin=None, seed=0, top_k=9):
    """The retrieval report from a fingerprint pass over the query alone and
    one over the picks alone, with Dice summed over bool rows."""
    reps = embed_molecules(model, list(corpus))
    distances = _cosine_distances(embed_molecules(model, [query])[0], reps)
    order = np.argsort(distances, kind="mergesort")
    rng = np.random.default_rng(seed)
    chosen = [
        rng.choice(members, size=samples_per_bin, replace=False)
        if samples_per_bin is not None and samples_per_bin < len(members)
        else members
        for members in np.array_split(order, bins)
    ]
    top = order[:top_k]
    picks = np.unique(np.concatenate(chosen + [top])).tolist()
    [(query_circular, query_path)] = fingerprint_chunks([query])
    circular, path = (
        np.concatenate(bits) for bits in zip(*fingerprint_chunks([corpus[i] for i in picks]))
    )
    dc, dp = bool_dice(query_circular[0], circular), bool_dice(query_path[0], path)
    row = {i: r for r, i in enumerate(picks)}
    stats = []
    for b, members in enumerate(chosen):
        rows = [row[i] for i in members.tolist()]
        for kind, d in (("circular", dc[rows]), ("path", dp[rows])):
            stats.append(BinStat(b, kind, float(np.mean(d)), float(np.std(d)), len(d)))
    neighbors = [
        NeighborHit(rank, i, float(distances[i]), float(dc[row[i]]), float(dp[row[i]]))
        for rank, i in enumerate(top.tolist())
    ]
    return RetrievalReport(len(corpus), bins, stats, neighbors)


@pytest.fixture(scope="module")
def corpus_300():
    return unlabeled_corpus(300, 21)


# (bins, samples per bin, top k) -> molecules in the one pass, query
# included: one short of the chunk, a full chunk, one past it, and whole
# bins over two chunks.  The samples leave room for 5 to 8 of the top k.
ONE_PASS = {
    (4, 63, 8): 255,
    (2, 125, 20): 256,
    (3, 84, 12): 257,
    (5, None, 9): 301,
}


@pytest.mark.parametrize("inside", [True, False], ids=["query_inside", "query_outside"])
@pytest.mark.parametrize(
    "settings", sorted(ONE_PASS, key=ONE_PASS.get), ids=lambda s: f"{ONE_PASS[s]}_in_pass"
)
def test_one_pass_report_matches_two_passes(monkeypatch, corpus_300, inside, settings):
    bins, samples_per_bin, top_k = settings
    query = corpus_300[5] if inside else parse_smiles("CC(=O)Nc1ccc(O)cc1")
    model = small_model(3)
    # Another corpus, kept alive, fills the memo first, so the first call
    # below replaces its embedding and the second reuses the replacement.
    other = unlabeled_corpus(300, 22)
    retrieval_analysis(query, other, model, bins=2)
    passes = []
    chunks = fingerprints.fingerprint_chunks

    def counted(graphs):
        passes.append(len(graphs))
        return chunks(graphs)

    monkeypatch.setattr(fingerprints, "fingerprint_chunks", counted)
    sizes = counted_embeds(monkeypatch)
    kwargs = dict(bins=bins, samples_per_bin=samples_per_bin, seed=3, top_k=top_k)
    miss = retrieval_analysis(query, corpus_300, model, **kwargs)
    hit = retrieval_analysis(query, corpus_300, model, **kwargs)
    assert sizes == [300, 1, 1]
    assert passes == [ONE_PASS[settings]] * 2
    want = two_pass_report(query, corpus_300, model, **kwargs)
    assert miss == want
    assert hit == want
