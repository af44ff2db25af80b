"""Contrastive loss: analytic anchors, brute-force oracle, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contrastive_oracle as oracle
from molcontrast.autodiff import Tape, backward, check_gradients, tensor
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast.encoder import EncoderConfig, EncoderModel, GraphBatch, project, represent
from molcontrast.errors import NumericAbort
from molcontrast.smiles import parse_smiles


def brute_force_nt_xent(z: np.ndarray, temperature: float) -> float:
    """Direct double-loop evaluation of the loss in float64.

    Independent of the tape implementation: normalizes explicitly, builds the
    full similarity matrix, and sums exponentials term by term without any
    max-shift trick.
    """
    z = np.asarray(z, dtype=np.float64)
    two_n = z.shape[0]
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    u = z / norms
    sim = u @ u.T
    total = 0.0
    for i in range(two_n):
        j = i + 1 if i % 2 == 0 else i - 1
        denom = 0.0
        for k in range(two_n):
            if k != i:
                denom += math.exp(sim[i, k] / temperature)
        total += -math.log(math.exp(sim[i, j] / temperature) / denom)
    return total / two_n


# -- config validation -------------------------------------------------------


def test_config_validation():
    ContrastiveConfig(0.1, 2)
    with pytest.raises(ValueError):
        ContrastiveConfig(temperature=0.0)
    with pytest.raises(ValueError):
        ContrastiveConfig(temperature=-1.0)
    with pytest.raises(ValueError):
        ContrastiveConfig(batch_size=1)


# -- analytic anchor values --------------------------------------------------


def _loss(z, temperature, batch_size):
    tape = Tape()
    cfg = ContrastiveConfig(temperature=temperature, batch_size=batch_size)
    return float(nt_xent(tape, tensor(z, dtype=np.float64), cfg).data)


def test_identical_pairs_orthogonal_cross():
    # pairs identical, cross orthogonal: each term -log(e^10 / (e^10 + 2e^0))
    z = np.array(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float64
    )
    expected = math.log(1.0 + 2.0 * math.exp(-10.0))
    got = _loss(z, 0.1, 2)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(9.0797e-5, abs=1e-8)
    assert got == pytest.approx(brute_force_nt_xent(z, 0.1), abs=1e-9)


def test_all_identical_rows_log_2n_minus_1():
    # every similarity is 1, so each term is log(2N - 1) regardless of tau
    for temperature in (0.05, 0.1, 0.5, 1.0):
        z = np.tile([3.0, 4.0], (32, 1))
        got = _loss(z, temperature, 16)
        assert got == pytest.approx(math.log(31.0), abs=1e-9)
    assert math.log(31.0) == pytest.approx(3.43399, abs=1e-5)


def test_orthonormal_pairs_tau_half():
    # closed form log(1 + 2 e^{-2}) = 0.2395448...
    z = np.array(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float64
    )
    expected = math.log(1.0 + 2.0 * math.exp(-2.0))
    got = _loss(z, 0.5, 2)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(brute_force_nt_xent(z, 0.5), abs=1e-9)


# -- brute-force oracle on random batches ------------------------------------


def test_matches_brute_force_on_random_batches():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.choice([2, 4, 8]))
        d = int(rng.choice([3, 8, 16]))
        temperature = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
        z = rng.standard_normal((2 * n, d))
        got = _loss(z, temperature, n)
        want = brute_force_nt_xent(z, temperature)
        assert got == pytest.approx(want, abs=1e-6), (trial, n, d, temperature)


# -- invariances -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_scale_invariance(n, temperature, seed, c):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * n, 4))
    assert _loss(c * z, temperature, n) == pytest.approx(
        _loss(z, temperature, n), abs=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pair_order_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * n, 5))
    swapped = z.copy()
    for i in range(n):
        swapped[[2 * i, 2 * i + 1]] = swapped[[2 * i + 1, 2 * i]]
    assert _loss(swapped, 0.1, n) == pytest.approx(_loss(z, 0.1, n), abs=1e-9)


def test_small_temperature_does_not_overflow():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((16, 8))
    got = _loss(z, 0.05, 8)
    assert math.isfinite(got)
    assert got == pytest.approx(brute_force_nt_xent(z, 0.05), abs=1e-6)


# -- shape and content validation --------------------------------------------


def test_row_count_must_match_config():
    tape = Tape()
    cfg = ContrastiveConfig(temperature=0.1, batch_size=4)
    with pytest.raises(ValueError):
        nt_xent(tape, tensor(np.ones((4, 3))), cfg)


def test_odd_row_count_rejected():
    tape = Tape()
    cfg = ContrastiveConfig(temperature=0.1, batch_size=2)
    with pytest.raises(ValueError):
        nt_xent(tape, tensor(np.ones((3, 3))), cfg)


def test_one_dimensional_latents_rejected():
    cfg = ContrastiveConfig(temperature=0.1, batch_size=2)
    with pytest.raises(ValueError, match="2-d"):
        nt_xent(Tape(), tensor(np.ones(4)), cfg)


def test_nt_xent_rejects_zero_rows():
    z = np.ones((4, 3))
    z[2] = 0.0
    cfg = ContrastiveConfig(temperature=0.1, batch_size=2)
    with pytest.raises(NumericAbort, match="row 2 has near-zero norm; cannot normalize"):
        nt_xent(Tape(), tensor(z, requires_grad=True), cfg)


# -- gradients ---------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal((8, 5))

    def build(tape, params):
        cfg = ContrastiveConfig(temperature=0.1, batch_size=4)
        return nt_xent(tape, params[0], cfg)

    assert check_gradients(build, [z0]) < 1e-4


def test_gradient_flows_to_all_rows():
    tape = Tape()
    rng = np.random.default_rng(3)
    z = tensor(rng.standard_normal((8, 5)), requires_grad=True, dtype=np.float64)
    loss = nt_xent(tape, z, ContrastiveConfig(temperature=0.1, batch_size=4))
    grads = backward(tape, loss)
    g = grads[z]
    assert g.shape == (8, 5)
    assert (np.abs(g).sum(axis=1) > 0).all()


# -- the one record ----------------------------------------------------------


def test_loss_is_one_record_and_a_frozen_model_records_none():
    graphs = [parse_smiles(s) for s in ("CCO", "CCN", "c1ccccc1", "c1ccncc1")]
    model = EncoderModel.initialize(EncoderConfig(num_layers=2, hidden_dim=8, latent_dim=4), 0)
    batch = GraphBatch.from_graphs(graphs)
    cfg = ContrastiveConfig(temperature=0.1, batch_size=2)
    for m, records in ((model, 1), (model.frozen(), 0)):
        tape = Tape()
        z = project(tape, m, represent(tape, m, batch))
        before = len(tape)
        nt_xent(tape, z, cfg)
        assert len(tape) - before == records


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=2, max_value=64),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matches_the_chain_of_generic_records_bitwise(dtype, n, width, temperature, seed):
    # Rows scaled by 1e-3 to 1e2, so some batches mix tiny and large norms.
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 2, (2 * n, 1))
    z0 = (rng.standard_normal((2 * n, width)) * scales).astype(dtype)
    cfg = ContrastiveConfig(temperature=temperature, batch_size=n)
    got = []
    for loss_fn in (nt_xent, oracle.nt_xent):
        tape = Tape()
        z = tensor(z0, requires_grad=True, dtype=dtype)
        loss = loss_fn(tape, z, cfg)
        dz = backward(tape, loss)[z]
        got.append((np.asarray(loss.data).tobytes(), loss.data.dtype, dz.dtype, dz.tobytes()))
    assert got[0] == got[1]
