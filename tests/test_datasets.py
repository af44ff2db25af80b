"""Scaffolds, splits, metrics, and labeled CSV ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fingerprint_oracle as oracle
from golden_corpus import GOLDEN
from graph_oracle import murcko_scaffold, relabel, scaffold_key, validate
from molcontrast.datasets import (
    Split,
    UndefinedMetric,
    load_labeled_csv,
    mae,
    mean_task_metric,
    rmse,
    roc_auc,
    scaffold_keys,
    scaffold_split,
)
from molcontrast.errors import DataError
from molcontrast.fingerprints import _CHUNK
from molcontrast.graph import BondType
from molcontrast.smiles import parse_smiles
from test_fingerprints import ORACLE_GRAPHS
from test_graph import random_graphs


# -- murcko scaffold ---------------------------------------------------------


def test_benzene_is_fixed_point():
    g = parse_smiles("c1ccccc1")
    assert murcko_scaffold(g) == g


def test_toluene_prunes_to_benzene():
    core = murcko_scaffold(parse_smiles("Cc1ccccc1"))
    assert core.num_nodes == 6
    assert core.num_edges == 6
    assert all(e.bond_type == BondType.AROMATIC for e in core.edges)


def test_acyclic_gives_empty_scaffold():
    core = murcko_scaffold(parse_smiles("CCCCCC"))
    assert core.num_nodes == 0 and core.num_edges == 0


def test_linker_atoms_survive():
    # diphenylmethane: the CH2 bridge has degree 2 and stays
    core = murcko_scaffold(parse_smiles("c1ccccc1Cc1ccccc1"))
    assert core.num_nodes == 13
    assert core.num_edges == 14


def test_ibuprofen_scaffold_is_benzene():
    core = murcko_scaffold(parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"))
    assert core.num_nodes == 6
    assert all(e.bond_type == BondType.AROMATIC for e in core.edges)


def test_murcko_matches_oracle():
    for g in ORACLE_GRAPHS:
        assert murcko_scaffold(g) == oracle.murcko_scaffold(g)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_murcko_matches_oracle_on_any_graph(g):
    assert murcko_scaffold(g) == oracle.murcko_scaffold(g)


@pytest.mark.parametrize("entry", GOLDEN, ids=[g.name for g in GOLDEN])
def test_murcko_idempotent_on_goldens(entry):
    g = parse_smiles(entry.smiles)
    once = murcko_scaffold(g)
    twice = murcko_scaffold(once)
    assert once == twice
    assert validate(once) == []


# -- scaffold keys -----------------------------------------------------------


def test_key_invariant_under_relabeling():
    g = parse_smiles("c1ccc2ccccc2c1")
    rng = np.random.default_rng(0)
    base = scaffold_key(g)
    for _ in range(5):
        perm = rng.permutation(g.num_nodes).tolist()
        assert scaffold_key(relabel(g, perm)) == base


def test_key_same_scaffold_same_key():
    assert scaffold_key(parse_smiles("Cc1ccccc1")) == scaffold_key(
        parse_smiles("Oc1ccccc1")
    )
    assert scaffold_key(parse_smiles("c2ccccc2")) == scaffold_key(
        parse_smiles("c1ccccc1")
    )


def test_key_distinguishes_bond_types():
    # benzene vs cyclohexane: same topology, different bond labels
    assert scaffold_key(parse_smiles("c1ccccc1")) != scaffold_key(
        parse_smiles("C1CCCCC1")
    )


def test_key_distinguishes_elements():
    assert scaffold_key(parse_smiles("c1ccncc1")) != scaffold_key(
        parse_smiles("c1ccccc1")
    )


def test_empty_scaffold_sentinel():
    acyclic = [parse_smiles(s) for s in ("CC", "CCCC", "C(=O)O", "N")]
    keys = {scaffold_key(g) for g in acyclic}
    assert len(keys) == 1


def test_batched_scaffold_keys_match_oracle():
    # acyclic molecules between ring systems, across a chunk boundary
    from molgen import unlabeled_corpus

    graphs = [parse_smiles(m.smiles) for m in GOLDEN]
    graphs += unlabeled_corpus(_CHUNK + 30, 14)
    keys = scaffold_keys(graphs)
    assert keys == [oracle.scaffold_key(g) for g in graphs]
    assert keys[:5] == [scaffold_key(g) for g in graphs[:5]]
    assert scaffold_keys([]) == []


# -- scaffold split ----------------------------------------------------------

_TEN_DISTINCT = [
    "c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCCC1", "c1ccoc1",
    "c1ccsc1", "c1cc[nH]c1", "c1ccc2ccccc2c1", "C1CC1", "C1CCC1",
]

_BENZENE_FAMILY = [
    "Cc1ccccc1", "CCc1ccccc1", "CCCc1ccccc1", "Oc1ccccc1", "Nc1ccccc1",
    "Fc1ccccc1", "Clc1ccccc1", "COc1ccccc1", "C=Cc1ccccc1",
]


def test_ten_singletons_split_8_1_1():
    graphs = [parse_smiles(s) for s in _TEN_DISTINCT]
    split = scaffold_split(graphs)
    assert len(split.train_indices) == 8
    assert len(split.valid_indices) == 1
    assert len(split.test_indices) == 1


def test_nine_plus_two_singletons():
    graphs = [parse_smiles(s) for s in _BENZENE_FAMILY + ["C1CCCCC1", "C1CCCC1"]]
    split = scaffold_split(graphs)
    # the size-9 benzene group fills train; the singletons land in valid/test
    assert split.train_indices == list(range(9))
    assert len(split.valid_indices) == 1
    assert len(split.test_indices) == 1


def test_split_deterministic():
    graphs = [parse_smiles(s) for s in _TEN_DISTINCT]
    a = scaffold_split(graphs)
    b = scaffold_split(graphs)
    assert a.assignment == b.assignment


def test_split_fraction_validation():
    graphs = [parse_smiles(s) for s in _TEN_DISTINCT]
    with pytest.raises(DataError):
        scaffold_split(graphs, (0.5, 0.2, 0.2))
    with pytest.raises(DataError):
        scaffold_split(graphs, (1.0, 0.0, 0.0))


def test_split_needs_three_groups():
    graphs = [parse_smiles(s) for s in ("Cc1ccccc1", "Oc1ccccc1", "C1CCCCC1")]
    with pytest.raises(DataError):
        scaffold_split(graphs)  # only 2 scaffold groups


def test_split_rejects_empty_bucket():
    # sizes [5, 5, 1]: both big groups land in train, the singleton jumps
    # straight to test, leaving validation empty
    graphs = [parse_smiles(s) for s in _BENZENE_FAMILY[:5]]
    graphs += [parse_smiles(s) for s in ("CC1CCCCC1", "CCC1CCCCC1", "OC1CCCCC1", "NC1CCCCC1", "FC1CCCCC1")]
    graphs.append(parse_smiles("c1ccoc1"))
    with pytest.raises(DataError):
        scaffold_split(graphs)


def test_split_integrity_on_generated_data():
    from molgen import oxygen_dataset

    dataset = oxygen_dataset(120, seed=9)
    graphs = dataset.graphs()
    split = scaffold_split(graphs)
    n = len(graphs)
    groups = {}
    for i, g in enumerate(graphs):
        groups.setdefault(scaffold_key(g), []).append(i)
    g_max = max(len(m) for m in groups.values())
    # no scaffold group spans two splits
    for members in groups.values():
        assert len({split.assignment[i] for i in members}) == 1
    assert abs(len(split.train_indices) / n - 0.8) <= g_max / n + 1e-9
    # partition is total and disjoint
    assert sorted(
        split.train_indices + split.valid_indices + split.test_indices
    ) == list(range(n))


def test_split_indices_match_assignment():
    graphs = [parse_smiles(s) for s in _TEN_DISTINCT]
    split = scaffold_split(graphs)
    for i, where in enumerate(split.assignment):
        assert where in (Split.TRAIN, Split.VALID, Split.TEST)
        assert i in split.indices(where)


# -- roc_auc -----------------------------------------------------------------


def pair_auc(scores, labels):
    """Pairwise enumeration oracle: fraction of won pos-neg pairs, ties 0.5."""
    wins = 0.0
    total = 0
    for i, yi in enumerate(labels):
        if yi != 1:
            continue
        for j, yj in enumerate(labels):
            if yj != 0:
                continue
            total += 1
            if scores[i] > scores[j]:
                wins += 1.0
            elif scores[i] == scores[j]:
                wins += 0.5
    return wins / total


def test_auc_perfect_separation():
    assert roc_auc([0.1, 0.9], [0, 1]) == 1.0
    assert roc_auc([0.9, 0.1], [0, 1]) == 0.0


def test_auc_all_ties():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_hand_example():
    assert roc_auc([0.8, 0.2, 0.6, 0.9], [0, 0, 1, 1]) == 0.75


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetric):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(UndefinedMetric):
        roc_auc([0.1, 0.9], [0, 0])


def test_auc_shape_validation():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2, 0.3], [0, 1])


def test_auc_rejects_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        roc_auc([0.1, float("nan"), 0.3], [0, 1, 1])
    assert roc_auc([-np.inf, 0.0, np.inf, np.inf], [0, 1, 0, 1]) == 0.625


def test_auc_matches_pair_oracle_exactly():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        if rng.random() < 0.5:
            scores = rng.random(n)  # continuous, ties unlikely
        else:
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # many ties
        assert roc_auc(scores, labels) == pair_auc(scores, labels)
        checked += 1


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(50)
    labels = rng.integers(0, 2, size=50)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


# -- rmse / mae --------------------------------------------------------------


def test_regression_metrics_perfect():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_regression_metrics_hand_example():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)
    assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5


def test_regression_metrics_single_element():
    assert rmse([2.0], [5.0]) == pytest.approx(3.0)
    assert mae([2.0], [5.0]) == pytest.approx(3.0)


def test_regression_metric_validation():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(UndefinedMetric):
        mae([], [])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rmse_at_least_mae(values, seed):
    rng = np.random.default_rng(seed)
    target = rng.uniform(-100, 100, size=len(values))
    assert rmse(values, target) >= mae(values, target) - 1e-12


# -- multitask averaging -----------------------------------------------------


def test_mean_task_metric_skips_undefined():
    predictions = np.array([[0.9, 0.1], [0.2, 0.4], [0.7, 0.6]])
    labels = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    observed = np.array([[True, True], [True, True], [True, True]])
    mean, per_task = mean_task_metric(roc_auc, predictions, labels, observed)
    # task 1 has only positives -> undefined, excluded from the mean
    assert per_task[1] is None
    assert per_task[0] == 1.0
    assert mean == 1.0


def test_mean_task_metric_respects_mask():
    predictions = np.array([[0.9], [0.2], [0.4]])
    labels = np.array([[1.0], [0.0], [1.0]])
    observed = np.array([[True], [True], [False]])
    mean, per_task = mean_task_metric(roc_auc, predictions, labels, observed)
    assert mean == 1.0  # the masked row (a miss) is never seen


def test_mean_task_metric_all_undefined():
    predictions = np.array([[0.9], [0.2]])
    labels = np.array([[1.0], [1.0]])
    observed = np.array([[True], [True]])
    with pytest.raises(UndefinedMetric):
        mean_task_metric(roc_auc, predictions, labels, observed)


def test_mean_task_metric_regression():
    predictions = np.array([[0.0, 1.0], [0.0, 2.0]])
    labels = np.array([[3.0, 1.0], [4.0, 2.0]])
    observed = np.ones((2, 2), dtype=bool)
    mean, per_task = mean_task_metric(mae, predictions, labels, observed)
    assert per_task == [3.5, 0.0]
    assert mean == 1.75


# -- labeled CSV loading -----------------------------------------------------


def test_load_labeled_classification(tmp_path):
    p = tmp_path / "tox.csv"
    p.write_text("smiles,taskA,taskB\nCCO,1,0\nCC,,1\nc1ccccc1,0,\n")
    dataset, failures = load_labeled_csv(p, "classification")
    assert failures == []
    assert dataset.task_names == ("taskA", "taskB")
    assert dataset.task_count == 2
    assert len(dataset) == 3
    labels, observed = dataset.label_arrays()
    np.testing.assert_array_equal(labels[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(observed[:, 0], [True, False, True])
    np.testing.assert_array_equal(observed[:, 1], [True, True, False])


def test_load_labeled_regression(tmp_path):
    p = tmp_path / "sol.csv"
    p.write_text("smiles,logS\nCCO,-0.77\nCC,1.34\n")
    dataset, _ = load_labeled_csv(p, "regression")
    labels, observed = dataset.label_arrays()
    np.testing.assert_allclose(labels[:, 0], [-0.77, 1.34])
    assert observed.all()


def test_load_labeled_rejects_nonbinary_classification(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("smiles,y\nCCO,2\n")
    with pytest.raises(DataError):
        load_labeled_csv(p, "classification")


def test_load_labeled_rejects_bad_float(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("smiles,y\nCCO,abc\n")
    with pytest.raises(DataError):
        load_labeled_csv(p, "regression")


def test_load_labeled_skips_malformed_smiles(tmp_path):
    p = tmp_path / "part.csv"
    p.write_text("smiles,y\nCCO,1\nC1CC,0\nCC,0\n")
    dataset, failures = load_labeled_csv(p, "classification")
    assert len(dataset) == 2
    assert len(failures) == 1
    assert failures[0].index == 1


def test_load_labeled_reads_cells_as_dict_reader_does(tmp_path):
    # A short row leaves its missing labels unobserved, a long row's extra
    # cells are ignored, blank lines are no rows, and a repeated label
    # column reads its last cell (blank, so unobserved, where a row stops
    # short of it).
    p = tmp_path / "ragged.csv"
    p.write_text("smiles,y,z,y\nCCO,1,0,0\n\nCC,1\nCN,0,1,1,9,9\nCO\n")
    dataset, failures = load_labeled_csv(p, "classification")
    assert failures == []
    assert [r.index for r in dataset.rows] == [0, 1, 2, 3]
    assert dataset.task_names == ("y", "z", "y")
    labels, observed = dataset.label_arrays()
    np.testing.assert_array_equal(labels, [[0, 0, 0], [0, 0, 0], [1, 1, 1], [0, 0, 0]])
    np.testing.assert_array_equal(
        observed, [[True, True, True], [False, False, False], [True, True, True], [False] * 3]
    )


def test_load_labeled_structural_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("structure,y\nCCO,1\n")
    with pytest.raises(DataError):
        load_labeled_csv(p, "classification")  # no smiles column
    p2 = tmp_path / "nolabel.csv"
    p2.write_text("smiles\nCCO\n")
    with pytest.raises(DataError):
        load_labeled_csv(p2, "classification")
    with pytest.raises(DataError):
        load_labeled_csv(p, "ranking")
    with pytest.raises(DataError):
        load_labeled_csv(tmp_path / "missing.csv", "classification")


def test_load_labeled_reports_errors_in_the_order_it_always_has(tmp_path):
    # The first bad label by row, then by column, is the error; but a read
    # error anywhere in the file comes first, and so does a file with no
    # label column.  The undecodable byte sits past the reader's first
    # decoded block, so the bad label is read before it.
    rows = "CCO,1,2\nCC,x,1\n" + "CN,1,0\n" * 2000
    p = tmp_path / "labels.csv"
    p.write_text("smiles,y,z\n" + rows)
    with pytest.raises(DataError, match="^row 0, column z: classification label"):
        load_labeled_csv(p, "classification")
    with pytest.raises(DataError, match="^row 1, column y: bad label 'x'$"):
        load_labeled_csv(p, "regression")
    p.write_bytes(b"smiles,y,z\n" + rows.encode() + b"C\xff,1,0\n")
    with pytest.raises(DataError, match="^cannot read "):
        load_labeled_csv(p, "classification")
    p.write_bytes(b"smiles\n" + b"CCO\n" * 4000 + b"C\xff\n")
    with pytest.raises(DataError, match="^cannot read "):
        load_labeled_csv(p, "classification")
