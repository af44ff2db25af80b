"""Fingerprints, Dice similarity, and the retrieval report."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fingerprint_oracle as oracle
from fingerprint_oracle import enumerate_simple_paths
from golden_corpus import GOLDEN
import molcontrast.fingerprints as fingerprints
from molcontrast.datasets import scaffold_key
from molcontrast.encoder import EncoderConfig, EncoderModel
from molcontrast.errors import NumericAbort
from molcontrast.fingerprints import (
    _CHUNK,
    Fingerprint,
    _cosine_distances,
    _fnv1a64_many,
    circular_fp,
    cosine_distance,
    dice,
    fingerprint_chunks,
    fnv1a64,
    path_fp,
    retrieval_analysis,
    ring_atoms,
)
from molcontrast.graph import AtomNode, BondEdge, MoleculeGraph, mask_token, relabel
from molcontrast.smiles import parse_smiles
from molgen import unlabeled_corpus


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
    # corpus molecule is named (the query's own row here is all ones).
    def embed(model, graphs):
        reps = np.ones((len(graphs), 4), dtype=np.float32)
        reps[2:] = 0.0
        return reps

    monkeypatch.setattr(fingerprints, "embed_molecules", embed)
    corpus = [parse_smiles(s) for s in ["CCO", "CCN", "CCC", "CO"]]
    with pytest.raises(NumericAbort, match="corpus molecule 2"):
        retrieval_analysis(corpus[0], corpus, small_model(), bins=2)
