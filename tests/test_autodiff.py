"""Tape autodiff: forward values, backward rules, finite-difference oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from molcontrast.autodiff import (
    IndexPlan,
    Tape,
    add,
    backward,
    check_gradients,
    constant,
    div,
    dropout,
    embedding_lookup,
    exp,
    gradcheck_report,
    l2_normalize_rows,
    linear,
    log,
    matmul_t,
    mean,
    message_sum,
    mul,
    numeric_gradients,
    relu,
    scale,
    segment_mean,
    segment_sum,
    softplus,
    sub,
    tensor,
)
from molcontrast.autodiff import sum as tsum


# -- tensor construction ----------------------------------------------------


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        tensor([float("inf")])
    t = constant([float("nan")])  # constants skip the check
    assert np.isnan(t.data).any()


def test_tensor_dtype_and_flags():
    t = tensor([[1, 2]], requires_grad=True)
    assert t.dtype == np.float32
    assert t.requires_grad
    assert not constant([1.0]).requires_grad
    t64 = tensor([1.0], dtype=np.float64)
    assert t64.dtype == np.float64


def test_tape_skips_untracked_ops():
    tape = Tape()
    a = constant([1.0, 2.0])
    b = constant([3.0, 4.0])
    add(tape, a, b)
    assert len(tape) == 0
    p = tensor([1.0], requires_grad=True)
    add(tape, p, constant([1.0]))
    assert len(tape) == 1


# -- hand-checked forward values --------------------------------------------


def test_linear_forward():
    tape = Tape()
    x = tensor([[1.0, 2.0]])
    w = tensor([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
    b = tensor([10.0, 20.0, 30.0])
    y = linear(tape, x, w, b)
    np.testing.assert_allclose(y.data, [[11.0, 22.0, 31.0]])


def test_embedding_lookup_forward():
    tape = Tape()
    table = tensor([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    y = embedding_lookup(tape, table, [2, 0, 2])
    np.testing.assert_allclose(y.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])


def test_segment_sum_and_mean_forward():
    tape = Tape()
    x = tensor([[1.0], [2.0], [3.0], [4.0]])
    seg = [0, 0, 1, 0]
    np.testing.assert_allclose(
        segment_sum(tape, x, seg, 2).data, [[7.0], [3.0]]
    )
    np.testing.assert_allclose(
        segment_mean(tape, x, seg, 2).data, [[7.0 / 3.0], [3.0]], rtol=1e-6
    )


def test_segment_mean_rejects_empty_segment():
    tape = Tape()
    x = tensor([[1.0], [1.0]])
    with pytest.raises(ValueError):
        segment_mean(tape, x, [0, 0], 3)
    # segment_sum tolerates the same case: empty segments are zero
    out = segment_sum(tape, x, [0, 0], 3)
    np.testing.assert_allclose(out.data, [[2.0], [0.0], [0.0]])


def test_matmul_t_forward():
    tape = Tape()
    a = tensor([[1.0, 2.0]])
    b = tensor([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(matmul_t(tape, a, b).data, [[11.0, 17.0]])


def test_l2_normalize_rows_unit_norm():
    tape = Tape()
    x = tensor([[3.0, 4.0], [-1.0, 0.0]])
    y = l2_normalize_rows(tape, x)
    np.testing.assert_allclose(y.data[0], [0.6, 0.8], rtol=1e-6)
    np.testing.assert_allclose(y.data[1], [-1.0, 0.0], rtol=1e-6)
    with pytest.raises(ValueError):
        l2_normalize_rows(tape, tensor([[0.0, 0.0]]))


def test_softplus_overflow_safe():
    tape = Tape()
    y = softplus(tape, tensor([100.0, -100.0, 0.0]))
    np.testing.assert_allclose(y.data[0], 100.0, rtol=1e-6)
    assert y.data[1] == pytest.approx(0.0, abs=1e-6)
    assert y.data[2] == pytest.approx(np.log(2.0), rel=1e-6)


def test_elementwise_forward():
    tape = Tape()
    a = tensor([2.0, -3.0])
    b = tensor([4.0, 5.0])
    np.testing.assert_allclose(add(tape, a, b).data, [6.0, 2.0])
    np.testing.assert_allclose(sub(tape, a, b).data, [-2.0, -8.0])
    np.testing.assert_allclose(mul(tape, a, b).data, [8.0, -15.0])
    np.testing.assert_allclose(div(tape, a, b).data, [0.5, -0.6])
    np.testing.assert_allclose(scale(tape, a, -2.0).data, [-4.0, 6.0])
    np.testing.assert_allclose(relu(tape, a).data, [2.0, 0.0])
    np.testing.assert_allclose(
        exp(tape, tensor([0.0, 1.0])).data, [1.0, np.e], rtol=1e-6
    )
    np.testing.assert_allclose(
        log(tape, tensor([1.0, np.e])).data, [0.0, 1.0], rtol=1e-6
    )


def test_sum_and_mean_forward():
    tape = Tape()
    x = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert float(tsum(tape, x).data) == 10.0
    assert float(mean(tape, x).data) == 2.5
    with pytest.raises(ValueError):
        mean(tape, tensor(np.zeros((0, 3))))


def test_float64_accumulation_in_reductions():
    # a naive float32 running sum loses the middle term entirely
    tape = Tape()
    x = tensor([1e8, 1.0, -1e8])
    assert float(tsum(tape, x).data) == 1.0


def test_float64_accumulation_in_matmul():
    tape = Tape()
    a = tensor([[1e8, 1.0, -1e8]], requires_grad=True)
    b = tensor([[1.0, 1.0, 1.0]])
    out = matmul_t(tape, a, b)
    assert float(out.data[0, 0]) == 1.0


# -- scatter order ----------------------------------------------------------
# Every scatter must add rows exactly as np.add.at does, so np.add.at is the
# oracle: results are compared byte for byte, on magnitudes spread widely
# enough that any other summation order changes the low bits.

# (rows, segment ids): empty segments, zero-length ids, narrow segments
# (the slot-wise path) and a wide fan-in into a 5-row table (the per-segment
# path).
_SCATTER_CASES = {
    "empty_segments": (6, np.array([0, 4, 0, 4, 4, 1, 0])),
    "zero_length": (3, np.array([], dtype=np.int64)),
    "narrow": (
        40,
        np.random.default_rng(1).permutation(
            np.repeat(np.arange(40), 1 + np.arange(40) % 4)
        ),
    ),
    "wide_fan_in": (5, np.random.default_rng(2).integers(0, 5, 3000)),
}


def _spread_rows(n, width, dtype, seed=0):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-7, 8, (n, 1))
    return (rng.standard_normal((n, width)) * scale).astype(dtype)


def _add_at(x, ids, rows, dtype):
    out = np.zeros((rows, x.shape[1]), dtype=dtype)
    np.add.at(out, ids, x)
    return out


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_SCATTER_CASES))
def test_segment_sum_matches_add_at_bitwise(case, dtype, width):
    rows, ids = _SCATTER_CASES[case]
    x = _spread_rows(ids.size, width, dtype)
    got = segment_sum(Tape(), tensor(x, dtype=dtype), ids, rows).data
    want = _add_at(x.astype(np.float64), ids, rows, np.float64).astype(dtype)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["narrow", "wide_fan_in"])
def test_segment_mean_matches_add_at_bitwise(case, dtype, width):
    rows, ids = _SCATTER_CASES[case]
    x = _spread_rows(ids.size, width, dtype)
    got = segment_mean(Tape(), tensor(x, dtype=dtype), ids, rows).data
    counts = np.bincount(ids, minlength=rows)
    acc = _add_at(x.astype(np.float64), ids, rows, np.float64)
    want = (acc / counts[:, None]).astype(dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_SCATTER_CASES))
def test_embedding_lookup_backward_matches_add_at_bitwise(case, dtype, width):
    rows, ids = _SCATTER_CASES[case]
    table = tensor(
        _spread_rows(rows, width, dtype, seed=1), requires_grad=True, dtype=dtype
    )
    upstream = _spread_rows(ids.size, width, dtype, seed=2)
    tape = Tape()
    out = embedding_lookup(tape, table, ids)
    loss = tsum(tape, mul(tape, out, constant(upstream, dtype=dtype)))
    got = backward(tape, loss)[table]
    want = _add_at(upstream, ids, rows, dtype)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_SCATTER_CASES))
def test_one_plan_reused_across_ops_matches_add_at_bitwise(case, dtype, width):
    rows, ids = _SCATTER_CASES[case]
    plan = IndexPlan(ids, rows)
    x = tensor(_spread_rows(ids.size, width, dtype), requires_grad=True, dtype=dtype)
    table = tensor(
        _spread_rows(rows, width, dtype, seed=1), requires_grad=True, dtype=dtype
    )
    up_rows = _spread_rows(rows, width, dtype, seed=2)
    up_ids = _spread_rows(ids.size, width, dtype, seed=3)
    acc = _add_at(x.data.astype(np.float64), ids, rows, np.float64)
    counts = np.bincount(ids, minlength=rows)
    for _ in range(2):  # the second pass runs on the plan's cached schedule
        tape = Tape()
        summed = segment_sum(tape, x, plan)
        looked = embedding_lookup(tape, table, plan)
        assert summed.data.tobytes() == acc.astype(dtype).tobytes()
        assert looked.data.tobytes() == table.data[ids].tobytes()
        loss = add(
            tape,
            tsum(tape, mul(tape, summed, constant(up_rows, dtype=dtype))),
            tsum(tape, mul(tape, looked, constant(up_ids, dtype=dtype))),
        )
        grads = backward(tape, loss)
        assert grads[x].tobytes() == up_rows[ids].tobytes()
        assert grads[table].tobytes() == _add_at(up_ids, ids, rows, dtype).tobytes()
        if (counts == 0).any():
            with pytest.raises(ValueError):
                segment_mean(Tape(), x, plan)
            continue
        tape = Tape()
        mean_out = segment_mean(tape, x, plan)
        assert mean_out.data.tobytes() == (acc / counts[:, None]).astype(dtype).tobytes()
        loss = tsum(tape, mul(tape, mean_out, constant(up_rows, dtype=dtype)))
        inv = (1.0 / counts).astype(dtype)
        want = up_rows[ids] * inv[ids][:, None]
        assert backward(tape, loss)[x].tobytes() == want.tobytes()


def test_index_plan_validates_once_and_checks_rows():
    with pytest.raises(IndexError):
        IndexPlan(np.array([0, 3]), 3)
    with pytest.raises(IndexError):
        IndexPlan(np.array([-1]), 3)
    with pytest.raises(ValueError):
        IndexPlan(np.zeros((2, 2), dtype=np.int64), 3)
    plan = IndexPlan(np.array([0, 2, 2]), 3)
    x = tensor(np.ones((3, 2)))
    with pytest.raises(ValueError):
        segment_sum(Tape(), x, plan, 4)  # plan and num_segments disagree
    with pytest.raises(ValueError):
        embedding_lookup(Tape(), tensor(np.ones((4, 2))), plan)  # 4-row table
    with pytest.raises(ValueError):
        segment_sum(Tape(), tensor(np.ones((2, 2))), plan)  # 2 rows, 3 ids
    with pytest.raises(ValueError):
        segment_sum(Tape(), x, np.array([0, 2, 2]))  # raw ids need a count
    assert plan.schedule() is plan.schedule()
    assert plan.counts.tolist() == [1, 0, 2]


def _message_chain(tape, x, src, dst, types, type_ids, dirs, dir_ids, coeff):
    # The public-op chain the encoder layers ran before message_sum.
    edge = add(
        tape,
        embedding_lookup(tape, types, type_ids),
        embedding_lookup(tape, dirs, dir_ids),
    )
    msg = add(tape, embedding_lookup(tape, x, src), edge)
    if coeff is not None:
        col = constant(coeff[:, None].astype(x.dtype), dtype=x.dtype)
        msg = mul(tape, msg, col)
    return segment_sum(tape, msg, dst, x.shape[0])


@pytest.mark.parametrize("with_coeff", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_message_sum_matches_public_op_chain_bitwise(with_coeff, dtype):
    rng = np.random.default_rng(5)
    nodes, edges, width = 30, 90, 16
    src = rng.integers(0, nodes, edges)
    dst = rng.integers(0, nodes, edges)  # narrow fan-in: the slot path
    type_ids = rng.integers(0, 5, edges)  # wide fan-in: the block path
    dir_ids = rng.integers(0, 3, edges)
    coeff = rng.uniform(0.1, 1.0, edges) if with_coeff else None
    arrays = [
        _spread_rows(nodes, width, dtype, seed=6),
        _spread_rows(5, width, dtype, seed=7),
        _spread_rows(3, width, dtype, seed=8),
    ]
    upstream = constant(_spread_rows(nodes, width, dtype, seed=9), dtype=dtype)
    plans = [
        IndexPlan(src, nodes),
        IndexPlan(dst, nodes),
        IndexPlan(type_ids, 5),
        IndexPlan(dir_ids, 3),
    ]
    results = {}
    for way in ("chain", "raw ids", "plans", "plans again"):
        tape = Tape()
        x, types, dirs = (tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
        if way == "chain":
            out = _message_chain(
                tape, x, src, dst, types, type_ids, dirs, dir_ids, coeff
            )
        else:
            ids = (src, dst, type_ids, dir_ids) if way == "raw ids" else plans
            out = message_sum(
                tape, x, ids[0], ids[1], types, ids[2], dirs, ids[3], coeff
            )
        grads = backward(tape, tsum(tape, mul(tape, out, upstream)))
        results[way] = [out.data.tobytes()] + [
            grads[t].tobytes() for t in (x, types, dirs)
        ]
    for way in ("raw ids", "plans", "plans again"):
        assert results[way] == results["chain"], way


def test_message_sum_is_one_record_and_skips_constant_tables():
    tape = Tape()
    x = tensor(np.ones((3, 2)), requires_grad=True)
    types = constant(np.ones((2, 2)))
    dirs = constant(np.ones((2, 2)))
    out = message_sum(tape, x, [0, 1, 2], [1, 2, 0], types, [0, 1, 1], dirs, [1, 1, 0])
    assert len(tape) == 1
    np.testing.assert_array_equal(out.data, np.full((3, 2), 3.0))
    grads = tape._records[0].backward_fn(np.ones((3, 2), dtype=np.float32))
    assert grads[0] is not None and grads[1] is None and grads[2] is None
    with pytest.raises(ValueError):
        message_sum(tape, x, [0, 1], [1, 2, 0], types, [0, 1, 1], dirs, [1, 1, 0])
    with pytest.raises(IndexError):
        message_sum(tape, x, [0, 1, 3], [1, 2, 0], types, [0, 1, 1], dirs, [1, 1, 0])


def test_constant_operands_get_no_gradient_computed():
    tape = Tape()
    p = tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    c = constant(np.array([[3.0, 4.0]]))
    for op in (add, sub, mul, div, matmul_t):
        out = op(tape, p, c)
        g = np.ones_like(out.data)
        dp, dc = tape._records[-1].backward_fn(g)
        assert dp is not None and dc is None, op.__name__
        out = op(tape, c, p)
        dc, dp = tape._records[-1].backward_fn(g)
        assert dp is not None and dc is None, op.__name__


# -- dropout ----------------------------------------------------------------


def test_dropout_zero_rate_is_identity():
    tape = Tape()
    x = tensor([[1.0, 2.0]], requires_grad=True)
    assert dropout(tape, x, 0.0, np.random.default_rng(0)) is x


def test_dropout_scales_survivors():
    tape = Tape()
    x = tensor(np.ones((1000,)))
    y = dropout(tape, x, 0.5, np.random.default_rng(3))
    kept = y.data[y.data != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.4 < kept.size / 1000 < 0.6


def test_dropout_deterministic_given_rng():
    x = tensor(np.arange(20.0))
    a = dropout(Tape(), x, 0.3, np.random.default_rng(11))
    b = dropout(Tape(), x, 0.3, np.random.default_rng(11))
    np.testing.assert_array_equal(a.data, b.data)


def test_dropout_rejects_bad_rate():
    tape = Tape()
    x = tensor([1.0])
    with pytest.raises(ValueError):
        dropout(tape, x, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dropout(tape, x, -0.1, np.random.default_rng(0))


# -- backward rules ---------------------------------------------------------


def test_backward_product_rule():
    tape = Tape()
    x = tensor([2.0, 3.0], requires_grad=True, dtype=np.float64)
    y = tensor([5.0, 7.0], requires_grad=True, dtype=np.float64)
    loss = tsum(tape, mul(tape, x, y))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [5.0, 7.0])
    np.testing.assert_allclose(grads[y], [2.0, 3.0])


def test_backward_fanout_accumulates():
    tape = Tape()
    x = tensor([1.5], requires_grad=True, dtype=np.float64)
    loss = tsum(tape, add(tape, x, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [2.0])


def test_backward_square_via_mul():
    tape = Tape()
    x = tensor([3.0, -2.0], requires_grad=True, dtype=np.float64)
    loss = tsum(tape, mul(tape, x, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [6.0, -4.0])


def test_backward_relu_gate():
    tape = Tape()
    x = tensor([2.0, -3.0], requires_grad=True, dtype=np.float64)
    loss = tsum(tape, relu(tape, x))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [1.0, 0.0])


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tensor([1.0, 2.0], requires_grad=True)
    y = add(tape, x, x)
    with pytest.raises(ValueError):
        backward(tape, y)


def test_backward_rejects_foreign_loss():
    tape = Tape()
    x = tensor([1.0], requires_grad=True)
    loss = tsum(Tape(), x)
    with pytest.raises(ValueError):
        backward(tape, loss)


def test_backward_accumulates_into_grad_map():
    x = tensor([1.0, 1.0], requires_grad=True, dtype=np.float64)

    tape1 = Tape()
    grads = backward(tape1, tsum(tape1, scale(tape1, x, 2.0)))
    tape2 = Tape()
    grads = backward(tape2, tsum(tape2, scale(tape2, x, 3.0)), grads)
    np.testing.assert_allclose(grads[x], [5.0, 5.0])


def test_constant_gets_no_gradient():
    tape = Tape()
    x = tensor([1.0], requires_grad=True, dtype=np.float64)
    c = constant([4.0], dtype=np.float64)
    loss = tsum(tape, mul(tape, x, c))
    grads = backward(tape, loss)
    assert c not in grads
    np.testing.assert_allclose(grads[x], [4.0])


# -- finite-difference oracle ------------------------------------------------


def test_numeric_gradients_on_quadratic():
    # d/dx sum(x^2) = 2x, known in closed form
    x = np.array([1.0, -2.0, 0.5])
    (g,) = numeric_gradients(lambda arrs: float((arrs[0] ** 2).sum()), [x])
    np.testing.assert_allclose(g, 2 * x, atol=1e-6)


def test_check_gradients_flags_wrong_derivative():
    # a deliberately broken backward: treat mul as add
    def build(tape, params):
        (x,) = params
        out = mul(tape, x, x)
        return tsum(tape, out)

    good = check_gradients(build, [np.array([1.0, 2.0])])
    assert good < 1e-6


def test_gradcheck_report_all_ops_pass():
    report = gradcheck_report(seed=0, eps=1e-4)
    assert len(report) == 20
    for op, err in report.items():
        assert err < 1e-4, f"{op}: {err}"


def test_gradcheck_report_deterministic():
    assert gradcheck_report(seed=0) == gradcheck_report(seed=0)


# -- properties -------------------------------------------------------------

_small = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(-3, 3, allow_nan=False, width=64),
)


@settings(max_examples=30, deadline=None)
@given(_small)
def test_sum_gradient_is_ones(a):
    tape = Tape()
    x = tensor(a, requires_grad=True, dtype=np.float64)
    grads = backward(tape, tsum(tape, x))
    np.testing.assert_array_equal(grads[x], np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(_small)
def test_linearity_of_backward(a):
    # grad of sum(2x) equals 2 * grad of sum(x)
    tape = Tape()
    x = tensor(a, requires_grad=True, dtype=np.float64)
    grads = backward(tape, tsum(tape, scale(tape, x, 2.0)))
    np.testing.assert_allclose(grads[x], 2.0 * np.ones_like(a))


@settings(max_examples=20, deadline=None)
@given(_small)
def test_add_then_mean_matches_finite_difference(a):
    def build(tape, params):
        x, y = params
        return mean(tape, mul(tape, add(tape, x, y), x))

    assert check_gradients(build, [a, a + 0.5]) < 1e-5


# -- determinism across BLAS thread counts ------------------------------------

_PRETRAIN_SCRIPT = """
import sys
from molcontrast.encoder import EncoderConfig
from molcontrast.training import PretrainConfig, pretrain, save_checkpoint
from molgen import unlabeled_corpus

corpus = unlabeled_corpus(160, seed=20)
for backbone in ("gin", "gcn"):
    enc = EncoderConfig(num_layers=3, hidden_dim=64, latent_dim=32, backbone=backbone)
    cfg = PretrainConfig(
        epochs=1, batch_size=16, lr=1e-3, warm_epochs=0, encoder=enc, seed=21
    )
    save_checkpoint(f"{sys.argv[1]}/{backbone}.ckpt", pretrain(corpus, cfg).checkpoint)
"""


def test_pretrain_checkpoints_identical_across_blas_threads(tmp_path):
    # The fixture config (3 layers, hidden 64, latent 32, batch 16), run in
    # fresh processes because BLAS reads its thread count at import.
    src = Path(__file__).resolve().parents[1] / "src"
    tests = Path(__file__).resolve().parent
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ)
        env.update(
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([str(src), str(tests)]),
        )
        subprocess.run(
            [sys.executable, "-c", _PRETRAIN_SCRIPT, str(out)],
            env=env,
            check=True,
            timeout=300,
        )
        outputs[threads] = {
            name: (out / f"{name}.ckpt").read_bytes() for name in ("gin", "gcn")
        }
    assert outputs["1"] == outputs["2"]
