"""Tape autodiff: forward values, backward rules, finite-difference oracle."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from molcontrast import autodiff as ad
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
from molcontrast.autodiff import _scatter_add
from molcontrast.autodiff import sum as tsum
from molcontrast.errors import NumericAbort


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
    with pytest.raises(NumericAbort, match="row 0 has near-zero norm"):
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


def test_products_run_in_the_operands_dtype():
    # Products run in the operands' dtype: a float64 tape keeps the 1.
    tape = Tape()
    a = tensor([[1e8, 1.0, -1e8]], requires_grad=True, dtype=np.float64)
    b = tensor([[1.0, 1.0, 1.0]], dtype=np.float64)
    out = matmul_t(tape, a, b)
    assert out.data.dtype == np.float64
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
    for _ in range(2):  # the second pass runs on the plan's cached layout
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
    assert plan.layout() is plan.layout() and plan.blocks() is plan.blocks()
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


@st.composite
def _scatter_ids(draw):
    """(rows, ids) shaped like the scatter edge cases.

    Covers empty rows (isolated atoms), all ids in one row, zero-length
    ids, and a widest row of exactly ``rows`` and ``rows + 1`` ids, the
    boundary between the degree-sorted and the block layout.
    """
    rows = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["any", "empty", "one_row", "widest_rows", "widest_rows_plus_one"]))
    if kind == "any":
        ids = draw(st.lists(st.integers(0, rows - 1), max_size=40))
    elif kind == "empty":
        ids = []
    elif kind == "one_row":
        ids = [draw(st.integers(0, rows - 1))] * draw(st.integers(1, 24))
    else:
        widest = rows if kind == "widest_rows" else rows + 1
        counts = draw(st.lists(st.integers(0, widest), min_size=rows, max_size=rows))
        counts[draw(st.integers(0, rows - 1))] = widest
        ids = draw(st.permutations(np.repeat(np.arange(rows), counts).tolist()))
    return rows, np.asarray(ids, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(
    case=_scatter_ids(),
    width=st.sampled_from([1, 3, 16]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_scatter_kernels_match_add_at_oracles_bitwise(case, width, dtype, seed):
    rows, ids = case
    plan = IndexPlan(ids, rows)
    assert plan.narrow == (ids.size == 0 or np.bincount(ids).max() <= rows)
    x = _spread_rows(ids.size, width, dtype, seed)
    up_rows = _spread_rows(rows, width, dtype, seed + 1)
    up_ids = _spread_rows(ids.size, width, dtype, seed + 2)
    # A row that sums only -0.0 must come out +0.0, as from zeros.
    x[seed % 3 :: 3] = -0.0
    up_ids[seed % 3 :: 3] = -0.0
    acc = _add_at(x.astype(np.float64), ids, rows, np.float64)
    for acc_dtype in (dtype, np.float64):  # never narrower than x
        got = _scatter_add(x, plan, acc_dtype)
        assert got.dtype == acc_dtype
        assert got.tobytes() == _add_at(x, ids, rows, acc_dtype).tobytes()
    assert _scatter_add(x, plan, np.float64, dtype).tobytes() == acc.astype(dtype).tobytes()

    tape = Tape()
    xt = tensor(x, requires_grad=True, dtype=dtype)
    summed = segment_sum(tape, xt, plan)
    assert summed.data.tobytes() == acc.astype(dtype).tobytes()
    grads = backward(tape, tsum(tape, mul(tape, summed, constant(up_rows, dtype=dtype))))
    assert grads[xt].tobytes() == up_rows[ids].tobytes()

    counts = np.bincount(ids, minlength=rows)
    if (counts == 0).any():
        with pytest.raises(ValueError):
            segment_mean(Tape(), xt, plan)
    else:
        want = (acc / counts[:, None]).astype(dtype)
        assert segment_mean(Tape(), xt, plan).data.tobytes() == want.tobytes()

    tape = Tape()
    table = tensor(_spread_rows(rows, width, dtype, seed + 3), requires_grad=True, dtype=dtype)
    looked = embedding_lookup(tape, table, plan)
    grads = backward(tape, tsum(tape, mul(tape, looked, constant(up_ids, dtype=dtype))))
    assert grads[table].tobytes() == _add_at(up_ids, ids, rows, dtype).tobytes()

    # message_sum: the ids are the edge targets (over ``rows`` nodes) and,
    # shuffled, the bond-type ids (over a ``rows``-row type table).
    rng = np.random.default_rng(seed)
    src = rng.integers(0, rows, ids.size)
    type_ids = rng.permutation(ids)
    dir_ids = rng.integers(0, 3, ids.size)
    arrays_in = [
        _spread_rows(rows, width, dtype, seed + 4),
        _spread_rows(rows, width, dtype, seed + 5),
        _spread_rows(3, width, dtype, seed + 6),
    ]
    upstream = constant(up_rows, dtype=dtype)
    for coeff in (None, rng.uniform(0.1, 1.0, ids.size)):
        results = []
        for fused in (False, True):
            tape = Tape()
            xm, types, dirs = (tensor(a, requires_grad=True, dtype=dtype) for a in arrays_in)
            op = message_sum if fused else _message_chain
            out = op(tape, xm, src, plan if fused else ids, types, type_ids, dirs, dir_ids, coeff)
            grads = backward(tape, tsum(tape, mul(tape, out, upstream)))
            results.append([out.data.tobytes()] + [grads[t].tobytes() for t in (xm, types, dirs)])
        assert results[1] == results[0]


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


def test_constant_gets_no_gradient():
    tape = Tape()
    x = tensor([1.0], requires_grad=True, dtype=np.float64)
    c = constant([4.0], dtype=np.float64)
    loss = tsum(tape, mul(tape, x, c))
    grads = backward(tape, loss)
    assert c not in grads
    np.testing.assert_allclose(grads[x], [4.0])


def test_backward_returns_exactly_the_parameters_the_loss_reaches():
    tape = Tape()
    x = tensor([[1.0, 2.0]], requires_grad=True, dtype=np.float64)
    w = tensor([[3.0, -1.0]], requires_grad=True, dtype=np.float64)
    unused = tensor([[5.0, 5.0]], requires_grad=True, dtype=np.float64)
    # w is used twice: loss = sum(x * w + w).
    loss = tsum(tape, add(tape, mul(tape, x, w), w))
    assert tape._records[-1].out is loss
    grads = backward(tape, loss)
    assert len(grads) == 2 and x in grads and w in grads and unused not in grads
    np.testing.assert_array_equal(grads[x], [[3.0, -1.0]])
    np.testing.assert_array_equal(grads[w], [[2.0, 3.0]])


@pytest.mark.parametrize("op", [add, sub, mul, div])
def test_only_constants_broadcast(op):
    column = np.array([[2.0], [4.0]])
    block = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # A constant may broadcast against a tracked operand of the output's shape.
    op(Tape(), tensor(block, requires_grad=True), constant(column))
    op(Tape(), constant(column), tensor(block, requires_grad=True))
    with pytest.raises(ValueError, match="broadcasts"):
        op(Tape(), tensor(column, requires_grad=True), constant(block))
    with pytest.raises(ValueError, match="broadcasts"):
        op(Tape(), constant(block), tensor(column, requires_grad=True))


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


# -- products split across worker threads -------------------------------------

needs_pinned_blas = pytest.mark.skipif(
    not ad._BLAS_PINNED, reason="numpy's bundled OpenBLAS was not found; products run unsplit"
)


class _CountingPool(ThreadPoolExecutor):
    """A real pool that records the row count of every block handed to it."""

    def __init__(self, workers):
        super().__init__(workers - 1)
        self.blocks = []

    def submit(self, fn, a, *args, **kwargs):
        self.blocks.append(a.shape[0])
        return super().submit(fn, a, *args, **kwargs)


def _with_workers(n, fn, pool=None):
    """``fn()`` with ``n`` product workers, then the process-wide count back."""
    before = ad._workers
    ad.set_threads(n)
    if pool is not None:
        ad._pool = pool
    try:
        return fn()
    finally:
        ad.set_threads(before)


@needs_pinned_blas
@pytest.mark.parametrize(
    "m, k, n, blocks",
    [
        (2800, 512, 1024, [700] * 4),  # paper-config linear
        (512, 2800, 1024, [128] * 4),  # its dw = x.T @ g
        (256, 256, 1024, [128, 128]),  # 2^26 multiply-adds: two blocks' worth
        (32, 64, 128, [32]),  # fixture-size product: under the gate
        (2800, 512, 1020, [2800]),  # width not a multiple of 8
        (3, 5000, 5000, [3]),  # one block would be a single row
    ],
)
def test_matmul64_splits_only_above_the_gate(m, k, n, blocks):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pool = _CountingPool(4)
    got = _with_workers(4, lambda: ad._matmul(a, b), pool)
    assert pool.blocks == blocks[1:]  # the calling thread computes block 0
    assert got.dtype == np.float32
    assert got.tobytes() == (a @ b).tobytes()


@needs_pinned_blas
def test_matmul_blocks_take_the_callers_error_state():
    # inf * 0 sets the invalid flag in every block; the suite turns the
    # RuntimeWarning a worker would print into an error.
    a = np.ones((2800, 512))
    a[:, 0] = np.inf
    b = np.zeros((512, 1024))
    pool = _CountingPool(4)
    with np.errstate(invalid="ignore"):
        got = _with_workers(4, lambda: ad._matmul(a, b), pool)
    assert pool.blocks == [700] * 3 and np.isnan(got).all()


@needs_pinned_blas
@settings(max_examples=50, deadline=None)
@example(1400, 128, 0, 28, "c", "float64", False, 0)  # a linear forward, 1024 wide
@example(512, 128, 0, 28, "a.T", "float64", False, 1)  # dw = x.T @ g
@example(700, 64, 0, 28, "b.T", "float64", False, 2)  # dx = g @ w.T
@example(5, 32, 0, 28, "c", "float64", True, 3)  # five rows: two blocks
@example(3, 32, 0, 28, "a.T", "float64", True, 4)  # fewer rows than workers
@example(1400, 128, 1, 28, "c", "float64", False, 5)  # 1023 wide: unsplit
@example(1400, 128, 0, 28, "c", "float32", False, 6)  # the same in sgemm
@example(512, 128, 0, 28, "a.T", "float32", False, 7)
@example(700, 64, 0, 28, "b.T", "float32", False, 8)
@example(1400, 127, 0, 28, "c", "float32", False, 9)  # 1016 wide: 8k, k odd
@example(700, 125, 0, 28, "b.T", "float32", True, 10)  # 1000 wide
@example(5, 31, 0, 28, "c", "float32", True, 11)  # 248 wide, five rows
@example(1400, 128, 1, 28, "c", "float32", False, 12)  # 1023 wide: unsplit
@example(700, 64, 3, 28, "b.T", "float32", True, 13)  # 509 wide: unsplit
@given(
    m=st.integers(2, 1024),
    eighths=st.integers(1, 128),
    ragged=st.one_of(st.just(0), st.integers(1, 7)),
    log_macs=st.integers(23, 28),
    layout=st.sampled_from(["c", "a.T", "b.T"]),
    dtype=st.sampled_from(["float32", "float64"]),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_matmul_split_matches_unsplit_bitwise(
    m, eighths, ragged, log_macs, layout, dtype, small_blocks, seed
):
    # Products of up to 2^28 multiply-adds, on both sides of the gate, with
    # neither operand above 2M elements; widths 8 * eighths - ragged.  The
    # transposed views are the ones linear's backward passes (x.T, w.T).
    # With small_blocks the block floor drops to 2M multiply-adds, still
    # above OpenBLAS's small-matrix kernels, so products of a few rows split.
    # Each dtype is compared with the unsplit product in that dtype.
    n = 8 * eighths - ragged
    k = max(1, min((1 << log_macs) // (m * n), (1 << 21) // max(m, n)))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if layout == "a.T" else (m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if layout == "b.T" else (k, n)).astype(dtype)
    a = a.T if layout == "a.T" else a
    b = b.T if layout == "b.T" else b
    expected = (a @ b).tobytes()
    floor = ad._BLOCK_MACS
    ad._BLOCK_MACS = 1 << 21 if small_blocks else floor
    try:
        for workers in (1, 2, 3, 4):
            got = _with_workers(workers, lambda: ad._matmul(a, b))
            assert got.dtype == dtype
            assert got.tobytes() == expected, workers
    finally:
        ad._BLOCK_MACS = floor


@needs_pinned_blas
@pytest.mark.parametrize("dtype, m, k", [("float32", 848, 516), ("float64", 848, 557)])
def test_product_with_own_transpose_is_gemm_for_any_thread_count(dtype, m, k):
    # Unsplit, a @ a.T would go to syrk, which rounds these shapes
    # differently from the gemm that each row block runs.
    a = np.random.default_rng(7).standard_normal((m, k)).astype(dtype)
    expected = (a @ a.T.copy()).tobytes()
    assert (a @ a.T).tobytes() != expected  # the shape tells syrk from gemm
    for workers in (1, 2, 4):
        assert _with_workers(workers, lambda: ad._matmul(a, a.T)).tobytes() == expected


@needs_pinned_blas
@pytest.mark.parametrize(
    "rows, width, out, submitted",
    [
        (640, 64, 128, []),  # fixture-size layer: under the gate
        (2800, 512, 1024, [1400, 256]),  # paper-size layer: dx, then dw = x.T @ g
    ],
)
def test_linear_backward_splits_only_above_the_gate(rows, width, out, submitted):
    rng = np.random.default_rng(6)
    x, w, b = (
        tensor(rng.standard_normal(shape), requires_grad=True)
        for shape in ((rows, width), (width, out), (out,))
    )
    r = rng.standard_normal((rows, out)).astype(np.float32)
    pool = _CountingPool(2)

    def run():
        tape = Tape()
        loss = ad.sum(tape, mul(tape, linear(tape, x, w, b), constant(r)))
        pool.blocks.clear()  # keep only what the backward submits
        return backward(tape, loss)

    grads = _with_workers(2, run, pool)
    assert pool.blocks == submitted  # the calling thread computes block 0
    assert grads[x].dtype == grads[w].dtype == np.float32
    assert grads[x].tobytes() == (r @ w.data.T).tobytes()
    assert grads[w].tobytes() == (x.data.T @ r).tobytes()


@needs_pinned_blas
def test_linear_and_matmul_t_gradients_identical_for_any_thread_count():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((700, 512)).astype(np.float32)
    w0 = rng.standard_normal((512, 256)).astype(np.float32)
    b0 = rng.standard_normal(256).astype(np.float32)
    z0 = rng.standard_normal((1200, 256)).astype(np.float32)
    r_lin = rng.standard_normal((700, 256)).astype(np.float32)
    r_mat = rng.standard_normal((700, 1200)).astype(np.float32)

    def run():
        tape = Tape()
        x, w, b, z = (tensor(v, requires_grad=True) for v in (x0, w0, b0, z0))
        y = linear(tape, x, w, b)
        s = matmul_t(tape, y, z)  # [700, 1200]
        loss = add(
            tape,
            ad.sum(tape, mul(tape, y, constant(r_lin))),
            ad.sum(tape, mul(tape, s, constant(r_mat))),
        )
        grads = backward(tape, loss)
        return [y.data.tobytes(), s.data.tobytes()] + [
            grads[t].tobytes() for t in (x, w, b, z)
        ]

    assert _with_workers(1, run) == _with_workers(2, run)


@needs_pinned_blas
def test_split_products_work_in_a_forked_child():
    import multiprocessing

    rng = np.random.default_rng(5)
    a = rng.standard_normal((600, 512))
    b = rng.standard_normal((512, 512))
    expected = a @ b

    def child():
        sys.exit(0 if np.array_equal(ad._matmul(a, b), expected) else 1)

    def fork_after_split():
        ad._matmul(a, b)  # starts the parent's pool threads
        proc = multiprocessing.get_context("fork").Process(target=child, daemon=True)
        proc.start()
        proc.join(timeout=60)
        return proc

    proc = _with_workers(2, fork_after_split)
    hung = proc.is_alive()  # waiting on pool threads that did not survive the fork
    if hung:
        proc.kill()
        proc.join(timeout=10)
    assert not hung
    assert proc.exitcode == 0


_BLAS_THREADS_SCRIPT = """
import ctypes, glob, os, sys
import numpy as np
import molcontrast.autodiff
lib = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_-*.so")
if not lib:
    sys.exit(3)
get = ctypes.CDLL(lib[0]).scipy_openblas_get_num_threads64_
get.restype = ctypes.c_int
print(get())
"""


def _env_without_thread_vars():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    return env


def test_import_pins_blas_to_one_thread():
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
        env=_env_without_thread_vars(), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 3:
        pytest.skip("numpy does not bundle scipy-openblas here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@needs_pinned_blas
def test_paper_width_pretrain_identical_for_any_threads(tmp_path):
    # Hidden 512 and batch 64: the layer products are well above the gate,
    # so --threads 2 and 4 split them.  BLAS is left to its own defaults.
    from molgen import write_corpus_csv

    data = tmp_path / "corpus.csv"
    write_corpus_csv(data, 140, seed=30)
    outputs = {}
    for backbone in ("gin", "gcn"):
        for threads in ("1", "2", "4"):
            out = tmp_path / f"{backbone}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "molcontrast.cli", "pretrain",
                 "--data", str(data), "--out", str(out), "--threads", threads,
                 "--backbone", backbone, "--layers", "3", "--hidden", "512",
                 "--latent", "256", "--batch", "64", "--epochs", "1",
                 "--warm-epochs", "0", "--seed", "4"],
                env=_env_without_thread_vars(), check=True, capture_output=True,
                timeout=120,
            )
            outputs[backbone, threads] = [
                (out / name).read_bytes() for name in ("checkpoint.bin", "loss.csv")
            ]
        assert (
            outputs[backbone, "1"] == outputs[backbone, "2"] == outputs[backbone, "4"]
        )
