"""Tape autodiff: forward values, backward rules, finite-difference oracle."""

import functools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import contrastive_oracle
from chain_ops import add, constant, matmul_t, mul, relu, scale, softplus, sub
from molcontrast import autodiff as ad
from molcontrast.autodiff import (
    IndexPlan,
    Tape,
    Tensor,
    backward,
    check_gradients,
    dropout,
    embedding_lookup,
    gradcheck_report,
    linear,
    message_sum,
    numeric_gradients,
    segment_mean,
    segment_sum,
    tensor,
)
from molcontrast.autodiff import _scatter_add
from molcontrast.autodiff import sum as tsum
from molcontrast.contrastive import ContrastiveConfig, nt_xent
from molcontrast import encoder as encoder_module
from molcontrast.encoder import EncoderConfig, EncoderModel, HeadSpec, embed_molecules
from molcontrast.errors import NumericAbort
from molcontrast.fingerprints import retrieval_analysis
from molcontrast.smiles import parse_smiles
from molcontrast.training import _masked_loss, predict_molecules
from molgen import make_molecules


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


def test_softplus_overflow_safe():
    tape = Tape()
    eye, zeros = tensor(np.eye(3)), tensor(np.zeros(3))
    (y,) = linear(tape, tensor([[100.0, -100.0, 0.0]]), eye, zeros, act="softplus").data
    np.testing.assert_allclose(y[0], 100.0, rtol=1e-6)
    assert y[1] == pytest.approx(0.0, abs=1e-6)
    assert y[2] == pytest.approx(np.log(2.0), rel=1e-6)


def test_elementwise_forward():
    tape = Tape()
    a = tensor([2.0, -3.0])
    b = tensor([4.0, 5.0])
    np.testing.assert_allclose(add(tape, a, b).data, [6.0, 2.0])
    np.testing.assert_allclose(sub(tape, a, b).data, [-2.0, -8.0])
    np.testing.assert_allclose(mul(tape, a, b).data, [8.0, -15.0])
    np.testing.assert_allclose(scale(tape, a, -2.0).data, [-4.0, 6.0])
    np.testing.assert_allclose(relu(tape, a).data, [2.0, 0.0])


def test_sum_and_mean_forward():
    tape = Tape()
    x = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert float(tsum(tape, x).data) == 10.0
    assert float(scale(tape, tsum(tape, x), 1 / x.data.size).data) == 2.5


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
    want = _add_at(x, ids, rows, dtype)
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
    acc = _add_at(x, ids, rows, dtype)
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
    acc = _add_at(x.data, ids, rows, dtype)
    counts = np.bincount(ids, minlength=rows)
    for _ in range(2):  # the second pass runs on the plan's cached layout
        tape = Tape()
        summed = segment_sum(tape, x, plan)
        looked = embedding_lookup(tape, table, plan)
        assert summed.data.tobytes() == acc.tobytes()
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


def _bond_counts(dst, type_ids, dir_ids, nodes, coeff=None, dtype=np.float32, rows=(5, 3)):
    """Each node's summed edge weights per type row, then per direction row
    (``rows`` table rows each), as the encoder's ``EdgeSet`` builds them."""
    counts = np.zeros((nodes, sum(rows)))
    weights = np.ones(len(dst)) if coeff is None else coeff
    np.add.at(counts, (dst, type_ids), weights)
    np.add.at(counts, (dst, rows[0] + np.asarray(dir_ids, dtype=np.int64)), weights)
    return counts.astype(dtype)


def _message_oracle(x, src, dst, counts, tables, coeff, add_self, g):
    """numpy reference for ``message_sum``: its output, then the gradients
    of ``x`` and of each table for the output gradient ``g``."""
    col = None if coeff is None else coeff.astype(x.dtype)[:, None]
    out = np.zeros_like(x)
    np.add.at(out, dst, x[src] if col is None else x[src] * col)
    out = out + counts @ np.concatenate(tables)
    dx = np.zeros_like(x)
    np.add.at(dx, src, g[dst] if col is None else g[dst] * col)
    if add_self:
        out, dx = x + out, g + dx
    cuts = np.cumsum([len(t) for t in tables])[:-1]
    return [out, dx, *np.split(counts.T @ g, cuts)]


def _bits(a):
    """``a``'s bytes with every NaN as the one quiet NaN: which operand's
    NaN payload (and sign) a sum of two NaNs keeps depends on the numpy
    loop that adds them (SIMD body, scalar tail, in place or not), so only
    where the NaNs are is compared; -0.0, +-inf and every other value are
    compared bit for bit."""
    return np.where(np.isnan(a), a.dtype.type(np.nan), a).tobytes()


def _message_bits(x, src, dst, counts, tables, coeff, add_self, g):
    """:func:`_bits` of ``message_sum``'s output and of the gradients its
    one record returns for ``g``; every input is tracked."""
    tape = Tape()
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, *tables)]
    out = message_sum(tape, ts[0], src, dst, counts, ts[1:], coeff, add_self)
    assert len(tape) == 1
    grads = tape._records[0].backward_fn(g, False)
    assert all(d.dtype == x.dtype for d in grads)
    return [_bits(a) for a in (out.data, *grads)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_message_sum_matches_numpy_oracle_bitwise(data):
    # NaN, +-inf and -0.0 in the node states, the tables and the incoming
    # gradient; a node may receive no edge, or more edges than there are
    # nodes (the block layout).
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    nodes = data.draw(st.integers(1, 6))
    edges = data.draw(st.integers(0, 14))
    ids = st.lists(st.integers(0, nodes - 1), min_size=edges, max_size=edges)
    src, dst = (np.array(data.draw(ids), dtype=np.int64) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    type_ids, dir_ids = rng.integers(0, 5, edges), rng.integers(0, 3, edges)
    width = data.draw(st.sampled_from([1, 3, 16]))
    x, types, dirs, g = (
        _with_specials(data.draw, shape, dtype)
        for shape in ((nodes, width), (5, width), (3, width), (nodes, width))
    )
    plans = data.draw(st.booleans())
    for coeff in (None, rng.uniform(0.1, 1.0, edges)):
        counts = _bond_counts(dst, type_ids, dir_ids, nodes, coeff, dtype)
        for add_self in (False, True):
            args = (counts, [types, dirs], coeff, add_self, g)
            with np.errstate(all="ignore"):
                want = [_bits(a) for a in _message_oracle(x, src, dst, *args)]
                ends = (IndexPlan(src, nodes), IndexPlan(dst, nodes)) if plans else (src, dst)
                assert _message_bits(x, *ends, *args) == want


def _message_chain(tape, x, src, dst, counts, stacked, coeff):
    # message_sum as public ops: the scaled gather summed per node, plus
    # the counts product as a bias-free linear over the stacked tables.
    msg = embedding_lookup(tape, x, src)
    if coeff is not None:
        col = constant(coeff[:, None].astype(x.dtype), dtype=x.dtype)
        msg = mul(tape, msg, col)
    bias = constant(np.zeros(x.shape[1]), dtype=x.dtype)
    edges = linear(tape, constant(counts, dtype=x.dtype), stacked, bias)
    return add(tape, segment_sum(tape, msg, dst, x.shape[0]), edges)


@pytest.mark.parametrize("with_coeff", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_message_sum_matches_public_op_chain_bitwise(with_coeff, dtype):
    rng = np.random.default_rng(5)
    nodes, edges, width = 30, 90, 16
    src = rng.integers(0, nodes, edges)
    dst = rng.integers(0, nodes, edges)  # narrow fan-in: the slot path
    type_ids = rng.integers(0, 5, edges)
    dir_ids = rng.integers(0, 3, edges)
    coeff = rng.uniform(0.1, 1.0, edges) if with_coeff else None
    counts = _bond_counts(dst, type_ids, dir_ids, nodes, coeff, dtype)
    arrays = [
        _spread_rows(nodes, width, dtype, seed=6),
        _spread_rows(5, width, dtype, seed=7),
        _spread_rows(3, width, dtype, seed=8),
    ]
    upstream = constant(_spread_rows(nodes, width, dtype, seed=9), dtype=dtype)
    plans = [IndexPlan(src, nodes), IndexPlan(dst, nodes)]
    results = {}
    for way in ("chain", "raw ids", "plans", "plans again"):
        tape = Tape()
        if way == "chain":
            x, stacked = (
                tensor(a, requires_grad=True, dtype=dtype)
                for a in (arrays[0], np.concatenate(arrays[1:]))
            )
            out = _message_chain(tape, x, src, dst, counts, stacked, coeff)
            grads = backward(tape, tsum(tape, mul(tape, out, upstream)))
            table_grads = np.split(grads[stacked], [5])
        else:
            x, types, dirs = (tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            ends = (src, dst) if way == "raw ids" else plans
            out = message_sum(tape, x, *ends, counts, [types, dirs], coeff)
            grads = backward(tape, tsum(tape, mul(tape, out, upstream)))
            table_grads = [grads[types], grads[dirs]]
        results[way] = [out.data.tobytes(), grads[x].tobytes()] + [
            g.tobytes() for g in table_grads
        ]
    for way in ("raw ids", "plans", "plans again"):
        assert results[way] == results["chain"], way


def test_message_sum_is_one_record_and_skips_constant_tables():
    tape = Tape()
    x = tensor(np.ones((3, 2)), requires_grad=True)
    types = constant(np.ones((2, 2)))
    dirs = constant(np.ones((2, 2)))
    counts = _bond_counts([1, 2, 0], [0, 1, 1], [1, 1, 0], 3, rows=(2, 2))
    out = message_sum(tape, x, [0, 1, 2], [1, 2, 0], counts, [types, dirs])
    assert len(tape) == 1
    np.testing.assert_array_equal(out.data, np.full((3, 2), 3.0))
    grads = tape._records[0].backward_fn(np.ones((3, 2), dtype=np.float32), False)
    assert grads[0] is not None and grads[1] is None and grads[2] is None
    with pytest.raises(ValueError):
        message_sum(tape, x, [0, 1], [1, 2, 0], counts, [types, dirs])
    with pytest.raises(IndexError):
        message_sum(tape, x, [0, 1, 3], [1, 2, 0], counts, [types, dirs])
    for bad in (counts[:2], counts[:, :3], counts.astype(np.float64)):
        with pytest.raises(ValueError, match="counts"):
            message_sum(tape, x, [0, 1, 2], [1, 2, 0], bad, [types, dirs])
    with pytest.raises(ValueError, match="tables"):
        message_sum(tape, x, [0, 1, 2], [1, 2, 0], counts, [types, constant(np.ones((2, 3)))])


# -- fused ops: one record, one buffer, the bits of the unfused chain ------

_SPECIALS = [np.nan, np.inf, -np.inf, -0.0]
# Around softplus's switch to its linear branch at 30.
_BEYOND_30 = [30.0, 31.5, -31.5, 45.0, -45.0]


def _with_specials(draw, shape, dtype, extra=()):
    """A ``shape`` array of ``dtype`` whose values mix NaN, +-inf and -0.0
    (and any ``extra`` values) with finite floats."""
    values = st.one_of(
        st.sampled_from(_SPECIALS + list(extra)),
        st.floats(-8, 8, width=32, allow_subnormal=False),
    )
    return draw(arrays(dtype, shape, elements=values))


def _run_bytes(build, inputs, upstream):
    """Forward bytes and the bytes of every input's gradient for the loss
    ``sum(build(tape, inputs) * upstream)``, special values allowed."""
    with np.errstate(all="ignore"):
        tape = Tape()
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in inputs]
        out = build(tape, ts)
        up = constant(upstream, dtype=out.data.dtype)
        grads = backward(tape, tsum(tape, mul(tape, out, up)))
    return [out.data.tobytes()] + [grads[t].tobytes() for t in ts]


@pytest.mark.parametrize("act", ["relu", "softplus"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fused_linear_matches_linear_then_activation_bitwise(act, data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    n, a, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    inputs = [
        _with_specials(data.draw, shape, dtype, _BEYOND_30)
        for shape in ((n, a), (a, k), (k,))
    ]
    upstream = _spread_rows(n, k, dtype, data.draw(st.integers(0, 2**16)))
    chain_act = {"relu": relu, "softplus": softplus}[act]
    fused = _run_bytes(lambda tape, t: linear(tape, *t, act=act), inputs, upstream)
    chain = _run_bytes(lambda tape, t: chain_act(tape, linear(tape, *t)), inputs, upstream)
    assert fused == chain


def test_fused_linear_is_one_record_and_rejects_other_activations():
    tape = Tape()
    x = tensor(np.ones((2, 3)), requires_grad=True)
    w, b = tensor(np.ones((3, 4))), tensor(np.zeros(4))
    linear(tape, x, w, b, act="relu")
    linear(tape, x, w, b, act="softplus")
    assert len(tape) == 2
    with pytest.raises(ValueError, match="activation"):
        linear(tape, x, w, b, act="tanh")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_message_sum_self_term_matches_add_bitwise(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    nodes = data.draw(st.integers(1, 6))
    edges = data.draw(st.integers(0, 12))
    ids = st.lists(st.integers(0, nodes - 1), min_size=edges, max_size=edges)
    src, dst = (np.array(data.draw(ids), dtype=np.int64) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    type_ids, dir_ids = rng.integers(0, 3, edges), rng.integers(0, 2, edges)
    width = data.draw(st.sampled_from([1, 3]))
    inputs = [
        _with_specials(data.draw, shape, dtype)
        for shape in ((nodes, width), (3, width), (2, width))
    ]
    upstream = _spread_rows(nodes, width, dtype, int(rng.integers(2**16)))
    for coeff in (None, rng.uniform(0.1, 1.0, edges)):
        counts = _bond_counts(dst, type_ids, dir_ids, nodes, coeff, dtype, rows=(3, 2))

        def aggregate(tape, t, add_self=False):
            x, types, dirs = t
            return message_sum(tape, x, src, dst, counts, [types, dirs], coeff, add_self)

        fused = _run_bytes(lambda tape, t: aggregate(tape, t, True), inputs, upstream)
        chain = _run_bytes(
            lambda tape, t: add(tape, t[0], aggregate(tape, t)), inputs, upstream
        )
        assert fused == chain


def _project(tape, t, r):
    return tsum(tape, mul(tape, t, constant(r, dtype=np.float64)))


def test_fused_linear_relu_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x, w = rng.uniform(-2, 2, (5, 4)), rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, 3)
    pre = x @ w + b
    # Off the kink at 0 by far more than eps, and both sides of it.
    assert np.abs(pre).min() > 0.1 and 0 < (pre > 0).sum() < pre.size
    r = rng.standard_normal((5, 3))
    err = check_gradients(
        lambda tape, p: _project(tape, linear(tape, *p, act="relu"), r), [x, w, b]
    )
    assert err < 1e-4


@pytest.mark.parametrize("with_coeff", [False, True])
def test_message_sum_self_term_gradients_match_finite_differences(with_coeff):
    rng = np.random.default_rng(12)
    src = np.array([0, 1, 1, 2, 3, 4, 4, 2])
    dst = np.array([1, 0, 2, 1, 4, 3, 0, 0])
    type_ids = np.array([0, 2, 1, 2, 2, 0, 1, 2])
    dir_ids = np.array([1, 0, 0, 1, 1, 1, 0, 0])
    coeff = rng.uniform(0.2, 1.0, src.size) if with_coeff else None
    counts = _bond_counts(dst, type_ids, dir_ids, 5, coeff, np.float64, rows=(3, 2))
    arrays_in = [rng.uniform(-2, 2, shape) for shape in ((5, 4), (3, 4), (2, 4))]
    r = rng.standard_normal((5, 4))
    err = check_gradients(
        lambda tape, p: _project(
            tape, message_sum(tape, p[0], src, dst, counts, p[1:], coeff, add_self=True), r
        ),
        arrays_in,
    )
    assert err < 1e-4


def test_no_backward_writes_into_its_incoming_gradient():
    # ``add`` returns its incoming gradient itself to both operands, which
    # is safe only while no backward writes into a gradient the walk does
    # not own.  Given an owned gradient, a backward may write into it, and
    # returns the bits it returns on a copy.
    rng = np.random.default_rng(13)

    def param(*shape, lo=-2.0):
        return tensor(rng.uniform(lo, 2, shape), requires_grad=True, dtype=np.float64)

    x, y, z = param(5, 4), param(5, 4), param(6, 4)
    w, b, table = param(4, 3), param(3), param(6, 4)
    seg = np.array([0, 1, 0, 2, 1])
    edges = (np.array([0, 1, 2, 3]), np.array([1, 0, 0, 4]))
    weights = np.array([0.5, 1.0, 2.0, 0.25])
    counts, weighted = (
        _bond_counts(edges[1], [0, 1, 2, 3], [5, 4, 3, 2], 5, c, np.float64, rows=(6, 6))
        for c in (None, weights)
    )
    labels = rng.integers(0, 2, (5, 4)).astype(np.float64)
    seen = rng.random((5, 4)) < 0.7
    builds = (
        lambda tape: embedding_lookup(tape, table, [0, 3, 3, 5, 1]),
        lambda tape: linear(tape, x, w, b),
        lambda tape: linear(tape, x, w, b, act="relu"),
        lambda tape: linear(tape, x, w, b, act="softplus"),
        lambda tape: relu(tape, x),
        lambda tape: softplus(tape, x),
        lambda tape: segment_sum(tape, x, seg, 3),
        lambda tape: segment_mean(tape, x, seg, 3),
        lambda tape: message_sum(tape, x, *edges, counts, [table, table]),
        lambda tape: message_sum(tape, x, *edges, weighted, [table, table], weights, add_self=True),
        lambda tape: matmul_t(tape, x, y),
        lambda tape: add(tape, x, y),
        lambda tape: sub(tape, x, y),
        lambda tape: mul(tape, x, y),
        lambda tape: scale(tape, x, -1.5),
        lambda tape: tsum(tape, x),
        lambda tape: dropout(tape, x, 0.5, np.random.default_rng(1)),
        lambda tape: nt_xent(tape, z, ContrastiveConfig(temperature=0.1, batch_size=3)),
        lambda tape: _masked_loss(tape, x, labels[:, :2], seen[:, :2], "classification"),
        lambda tape: _masked_loss(tape, x, labels, seen, "regression"),
    )
    # A backward runs once, so each case is recorded twice: one record is
    # told it does not own its gradient, its twin that it does.
    tapes = Tape(), Tape()
    outs = [[build(tape) for build in builds] for tape in tapes]
    assert len(tapes[0]) == len(tapes[1]) == 20
    for out, record, twin in zip(outs[0], *(tape._records for tape in tapes)):
        assert record.out == out.key
        g = rng.standard_normal(out.data.shape)
        before = g.copy()
        copied = [None if d is None else d.tobytes() for d in record.backward_fn(g, False)]
        assert g.tobytes() == before.tobytes()
        written = twin.backward_fn(before, True)
        assert [None if d is None else d.tobytes() for d in written] == copied


def _captured(fn) -> dict[int, np.ndarray]:
    """The arrays that closure ``fn`` (and every function it captures)
    holds, directly or in a tuple or list, by id; a captured tensor fails
    the test."""
    found, seen, stack = {}, set(), [fn]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        assert not isinstance(v, Tensor), "a backward closure captured a tensor"
        if isinstance(v, np.ndarray):
            found[id(v)] = v
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return found


def test_backward_closures_capture_only_the_arrays_they_read():
    rng = np.random.default_rng(5)
    x = tensor(rng.uniform(0.5, 2, (4, 3)), requires_grad=True)
    w, b = tensor(rng.standard_normal((3, 3)), requires_grad=True), tensor(np.zeros(3))
    c = constant(rng.uniform(0.5, 2, (4, 3)))
    tape = Tape()
    relu_out = linear(tape, x, w, b, act="relu")
    softplus_out = linear(tape, x, w, b, act="softplus")
    relu_only = relu(tape, x)
    cases = [  # (output, the arrays its backward reads)
        (linear(tape, x, w, b), [x, w]),
        (relu_out, [x, w]),
        (softplus_out, [x, w]),
        (mul(tape, x, c), [c]),
        (mul(tape, c, x), [c]),
        (matmul_t(tape, x, c), [c]),
        (relu_only, []),
        *((op(tape, x, c), []) for op in (add, sub)),
        *((op(tape, x), []) for op in (tsum, lambda t, v: scale(t, v, 2.0))),
        (segment_mean(tape, x, [0, 1, 0, 1], 2), []),
        (embedding_lookup(tape, x, [0, 3, 3]), []),
    ]
    # Of the operands and outputs, each backward holds just what it reads
    # (besides them, segment_mean holds its segment counts, each ReLU one
    # bit per element of ``out > 0``, and softplus its pre-activation).
    tensors = {id(t.data) for t in (x, w, c, *(out for out, _ in cases))}
    records = {r.out: r for r in tape._records}
    for out, reads in cases:
        held = _captured(records[out.key].backward_fn)
        assert held.keys() & tensors == {id(t.data) for t in reads}
        assert all(ref is None or isinstance(ref, int) or ref.requires_grad
                   for ref in records[out.key].inputs)
        if out is relu_out or out is relu_only:
            (bits,) = (a for key, a in held.items() if key not in tensors)
            assert bits.dtype == np.uint8 and bits.shape == (2,)  # 12 bits
            assert bits.tobytes() == np.packbits(out.data > 0, axis=None).tobytes()
        if out is softplus_out:
            (pre,) = (a for key, a in held.items() if key not in tensors)
            assert pre.tobytes() == linear(Tape(), x, w, b).data.tobytes()


def test_nt_xent_closure_keeps_what_the_chain_it_replaced_kept():
    # The one record holds what the fourteen records of the chain held:
    # the normalised rows in z's dtype and in float64, the row norms, the
    # shifted exponentials, their row sums and two constant masks; never
    # z or the logits.  The chain's row of ones is not kept: the
    # denominators' term broadcasts its column instead of multiplying by it.
    def sig(a):
        return a.dtype.str, a.shape, a.tobytes()

    z = tensor(np.random.default_rng(6).standard_normal((6, 5)), requires_grad=True)
    cfg = ContrastiveConfig(temperature=0.1, batch_size=3)
    fused, chain = Tape(), Tape()
    nt_xent(fused, z, cfg)
    contrastive_oracle.nt_xent(chain, z, cfg)
    (record,) = fused._records
    held = {sig(a) for a in _captured(record.backward_fn).values()}
    kept = [list(_captured(r.backward_fn).values()) for r in chain._records]
    ones = sig(np.ones((1, 6), dtype=np.float32))
    chain_held = {sig(a) for arrays in kept for a in arrays}
    assert ones in chain_held and held == chain_held - {ones} and len(held) == 7
    # Records 0, 1, 4 and 7 of the chain: normalisation, similarity, exp, log.
    y64, norms = sorted(kept[0], key=np.ndim, reverse=True)
    (zn,), (e,), (row_sum,) = kept[1], kept[4], kept[7]
    assert y64.dtype == norms.dtype == np.float64 and norms.shape == (6,)
    assert zn.dtype == e.dtype == row_sum.dtype == np.float32
    assert e.shape == (6, 6) and row_sum.shape == (6, 1)
    assert {sig(a) for a in (y64, norms, zn, e, row_sum)} <= held
    logits = ad._matmul(zn, zn.T) * np.float32(1 / cfg.temperature)
    assert sig(z.data) not in held and sig(logits) not in held


# -- gradient ownership --------------------------------------------------------


def _twice(tape, p):  # x read by two ops
    return mul(tape, relu(tape, p[0]), scale(tape, p[0], -1.5))


def _self_add(tape, p):  # add(a, a), gated and dropped out after
    a = relu(tape, p[0])
    return dropout(tape, relu(tape, add(tape, a, a)), 0.5, np.random.default_rng(3))


def _leaf_twice(tape, p):  # the leaves w and b read by two ops
    x, y, w, b = p
    return add(tape, linear(tape, x, w, b, act="relu"), linear(tape, y, w, b))


def _relu_pair(tape, p):  # the regression term of training._supervised_loss
    d = sub(tape, p[0], p[1])
    return add(tape, relu(tape, d), relu(tape, scale(tape, d, -1.0)))


def _linear_pair(tape, p):
    x, y, w, b = p
    return relu(
        tape, add(tape, linear(tape, x, w, b, act="relu"), linear(tape, y, w, b, act="relu"))
    )


def _passed_on(tape, p):  # a shared gradient handed on once, by sub
    b = relu(tape, p[1])
    return add(tape, sub(tape, relu(tape, p[0]), constant(0.5, dtype=p[0].dtype)), b)


_ALIASED = {
    f.__name__: f
    for f in (_twice, _self_add, _leaf_twice, _relu_pair, _linear_pair, _passed_on)
}


def _unowned(fn, g, owned):
    return fn(g, False)


def _aliased_grad_bits(build, inputs, upstream, walk_unowned):
    """:func:`_bits` of the output and of each input's gradient (None when
    the loss does not reach it) for ``sum(build(tape, inputs) * upstream)``;
    with ``walk_unowned`` every closure is told it owns nothing."""
    with np.errstate(all="ignore"):
        tape = Tape()
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in inputs]
        out = build(tape, ts)
        loss = tsum(tape, mul(tape, out, constant(upstream, dtype=out.data.dtype)))
        if walk_unowned:
            for record in tape._records:
                record.backward_fn = functools.partial(_unowned, record.backward_fn)
        grads = backward(tape, loss)
    return [_bits(out.data)] + [_bits(grads[t]) if t in grads else None for t in ts]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_owned_gradients_match_the_unowned_walk_bitwise(data):
    # Aliased gradients (one array handed to two inputs by ``add``, or a
    # tensor's gradient summed from two readers) never get written into:
    # the walk that lets closures write into what it owns gives the bits of
    # the walk where no closure writes into anything.  Only where the two
    # NaNs of an accumulation meet may the kept payload differ.
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    name = data.draw(st.sampled_from(sorted(_ALIASED)))
    n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    inputs = [_with_specials(data.draw, shape, dtype) for shape in ((n, d), (n, d), (d, d), (d,))]
    upstream = _spread_rows(n, d, dtype, data.draw(st.integers(0, 2**16)))
    build = _ALIASED[name]
    owned = _aliased_grad_bits(build, inputs, upstream, walk_unowned=False)
    assert owned == _aliased_grad_bits(build, inputs, upstream, walk_unowned=True)


@pytest.mark.parametrize("name", sorted(_ALIASED))
def test_aliased_gradients_match_finite_differences(name):
    rng = np.random.default_rng(17)
    arrays = [
        ad._away_from_kink(rng, (4, 3)),
        ad._away_from_kink(rng, (4, 3)),
        rng.uniform(-1, 1, (3, 3)),
        rng.uniform(-1, 1, 3),
    ]
    r = rng.standard_normal((4, 3))
    err = check_gradients(lambda tape, p: _project(tape, _ALIASED[name](tape, p), r), arrays)
    assert err < 1e-4


def test_the_walk_owns_fresh_arrays_and_shares_aliased_ones():
    # Each closure hears whether it owns its gradient: the loss seed is
    # owned, and so is a fresh array or a closure's own owned gradient
    # handed on once; the one gradient ``add`` hands to both operands is not.
    tape = Tape()
    x = tensor(np.ones((2, 3)), requires_grad=True)
    c = add(tape, relu(tape, x), scale(tape, x, 3.0))
    loss = tsum(tape, scale(tape, relu(tape, c), 2.0))
    seen = []
    for i, record in enumerate(tape._records):
        def spy(g, owned, fn=record.backward_fn, i=i):
            seen.append((i, owned))
            return fn(g, owned)
        record.backward_fn = spy
    grads = backward(tape, loss)
    # Records: relu(x), scale(x), add, relu, scale, sum; walked in reverse.
    assert seen == [(5, True), (4, True), (3, True), (2, True), (1, False), (0, False)]
    np.testing.assert_array_equal(grads[x], np.full((2, 3), 8.0, dtype=np.float32))


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
    acc = _add_at(x, ids, rows, dtype)
    got = _scatter_add(x, plan)
    assert got.dtype == dtype
    assert got.tobytes() == acc.tobytes()

    tape = Tape()
    xt = tensor(x, requires_grad=True, dtype=dtype)
    summed = segment_sum(tape, xt, plan)
    assert summed.data.tobytes() == acc.tobytes()
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
    xm, types, dirs = (
        _spread_rows(r, width, dtype, seed + 4 + i) for i, r in enumerate((rows, rows, 3))
    )
    for coeff in (None, rng.uniform(0.1, 1.0, ids.size)):
        counts = _bond_counts(ids, type_ids, dir_ids, rows, coeff, dtype, rows=(rows, 3))
        args = (counts, [types, dirs], coeff, False, up_rows)
        want = [_bits(a) for a in _message_oracle(xm, src, ids, *args)]
        assert _message_bits(xm, src, plan, *args) == want


def test_constant_operands_get_no_gradient_computed():
    tape = Tape()
    p = tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    c = constant(np.array([[3.0, 4.0]]))
    for op in (add, sub, mul, matmul_t):
        out = op(tape, p, c)
        g = np.ones_like(out.data)
        dp, dc = tape._records[-1].backward_fn(g, False)
        assert dp is not None and dc is None, op.__name__
        out = op(tape, c, p)
        dc, dp = tape._records[-1].backward_fn(g, False)
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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dropout_matches_float_mask_formula_bitwise(data):
    # The boolean mask scaled on the fly gives the bits of the float mask
    # ``(rng.random(shape) >= p).astype(dtype) / dtype(1 - p)`` in the
    # forward and in the gradient, for NaN, +-inf and -0.0 too.
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)))
    p = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    seed = data.draw(st.integers(0, 2**16))
    x, g = (_with_specials(data.draw, shape, dtype) for _ in range(2))
    # The backward gives those bits whether it copies ``g`` or, owning it,
    # writes into it.
    tape = Tape()
    with np.errstate(all="ignore"):
        y = dropout(tape, ad.Tensor(x, requires_grad=True), p, np.random.default_rng(seed))
        mask = (np.random.default_rng(seed).random(shape) >= p).astype(dtype) / dtype(1 - p)
        assert y.data.tobytes() == (x * mask).tobytes()
        expected = (g * mask).tobytes()
        (dx,) = tape._records[-1].backward_fn(g, False)
        assert dx.tobytes() == expected and dx is not g
        (dx,) = tape._records[-1].backward_fn(g, True)
        assert dx.tobytes() == expected and dx is g


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
    x = tensor([[2.0, -3.0]], requires_grad=True, dtype=np.float64)
    eye, zeros = (tensor(a, dtype=np.float64) for a in (np.eye(2), np.zeros(2)))
    loss = tsum(tape, linear(tape, x, eye, zeros, act="relu"))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], [[1.0, 0.0]])


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


def test_backward_consumes_the_tape():
    tape = Tape()
    x = tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    loss = tsum(tape, mul(tape, x, x))
    assert len(tape) == 2
    np.testing.assert_array_equal(backward(tape, loss)[x], [2.0, 4.0])
    assert len(tape) == 0 and not tape._live
    with pytest.raises(ValueError, match="consumed"):
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
    assert tape._records[-1].out == loss.key
    grads = backward(tape, loss)
    assert len(grads) == 2 and x in grads and w in grads and unused not in grads
    np.testing.assert_array_equal(grads[x], [[3.0, -1.0]])
    np.testing.assert_array_equal(grads[w], [[2.0, 3.0]])


@pytest.mark.parametrize("op", [add, sub, mul])
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
    assert len(report) == 13
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
        return scale(tape, tsum(tape, mul(tape, add(tape, x, y), x)), 1 / a.size)

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
    """A real pool that records the function of every part handed to it and
    the length of its first argument: a product block's rows, or how many
    Adam tiles or inference batches the part runs."""

    def __init__(self, workers):
        super().__init__(workers - 1)
        self.blocks = []
        self.parts = []

    def submit(self, run, fn, a, *args, **kwargs):
        self.parts.append(fn)
        self.blocks.append(len(a))
        return super().submit(run, fn, a, *args, **kwargs)


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
        # Cuts fall on multiples of 24 rows; the last block takes the rest.
        (2800, 512, 1024, [696, 696, 696, 712]),  # paper-config linear
        (512, 2800, 1024, [120, 120, 144, 128]),  # its dw = x.T @ g
        (256, 256, 1024, [120, 136]),  # 2^26 multiply-adds: two blocks' worth
        (32, 64, 128, [32]),  # fixture-size product: under the gate
        (2800, 512, 1020, [696, 696, 696, 712]),  # a width not a multiple of 8 too
        (3, 5000, 5000, [3]),  # one block would be a single row
        (72, 2048, 1024, [24, 24, 24]),  # three quanta: three of four workers
    ],
)
def test_matmul_splits_only_above_the_gate(m, k, n, blocks):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pool = _CountingPool(4)
    got = _with_workers(4, lambda: ad._matmul(a, b), pool)
    assert pool.blocks == blocks[:-1]  # the calling thread computes the last block
    assert got.dtype == np.float32
    assert got.tobytes() == (a @ b).tobytes()


@needs_pinned_blas
def test_matmul_never_splits_one_column(monkeypatch):
    # numpy runs a one-column product as a matrix-vector product (gemv),
    # whose bits a block edge moved on the SkylakeX, Haswell and
    # Sandybridge kernels; two columns are a gemm.
    monkeypatch.setattr(ad, "_BLOCK_MACS", 1 << 21)
    a = np.random.default_rng(0).standard_normal((2800, 4096)).astype(np.float32)
    for n, blocks in ((1, []), (2, [696, 696, 696])):
        b = np.ones((4096, n), dtype=np.float32)
        pool = _CountingPool(4)
        got = _with_workers(4, lambda: ad._matmul(a, b), pool)
        assert pool.blocks == blocks
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
    assert pool.blocks == [696, 696, 696] and np.isnan(got).all()


@needs_pinned_blas
@settings(max_examples=50, deadline=None)
@example(1400, 128, 0, 28, "c", "float64", False, 0)  # a linear forward, 1024 wide
@example(512, 128, 0, 28, "a.T", "float64", False, 1)  # dw = x.T @ g
@example(700, 64, 0, 28, "b.T", "float64", False, 2)  # dx = g @ w.T
@example(5, 32, 0, 28, "c", "float64", True, 3)  # five rows: under a quantum, unsplit
@example(3, 32, 0, 28, "a.T", "float64", True, 4)  # fewer rows than workers
@example(1400, 128, 1, 28, "c", "float64", False, 5)  # 1023 wide
@example(1400, 128, 0, 28, "c", "float32", False, 6)  # the same in sgemm
@example(512, 128, 0, 28, "a.T", "float32", False, 7)
@example(700, 64, 0, 28, "b.T", "float32", False, 8)
@example(1400, 127, 0, 28, "c", "float32", False, 9)  # 1016 wide: 8k, k odd
@example(700, 125, 0, 28, "b.T", "float32", True, 10)  # 1000 wide
@example(5, 31, 0, 28, "c", "float32", True, 11)  # 248 wide, five rows
@example(1400, 128, 1, 28, "c", "float32", False, 12)  # the same in sgemm
@example(700, 64, 3, 28, "b.T", "float32", True, 13)  # 509 wide
@example(8, 8, 0, 23, "a.T", "float32", True, 14)  # bond tables' grad counts.T @ g
@example(8, 64, 0, 23, "a.T", "float32", True, 15)  # the same, 512 wide
@example(50, 32, 0, 23, "c", "float32", True, 16)  # cut at row 24, not 25
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
        (2800, 512, 1024, [240, 1392]),  # paper-size layer: dw = x.T @ g, then dx
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
    assert pool.blocks == submitted  # the calling thread computes the last block
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


# -- inference batches dealt across worker threads -----------------------------


@needs_pinned_blas
@pytest.mark.parametrize("backbone", ["gin", "gcn"])
def test_inference_identical_for_any_thread_count(backbone):
    # Corpora around the 128-molecule inference batch: one molecule, a batch
    # one short of full, a full one, a batch and a molecule, three batches.
    graphs = [g for _, g in make_molecules(300, seed=40)]
    cfg = EncoderConfig(backbone=backbone, num_layers=3, hidden_dim=64, latent_dim=32)
    model = EncoderModel.initialize(cfg, 41)
    model.add_head(HeadSpec("classification", 2, hidden_dim=32), 42)

    def run():
        out = []
        for n in (1, 127, 128, 129, 300):
            corpus = graphs[:n]
            out.append(embed_molecules(model, corpus).tobytes())
            out.append(predict_molecules(model, corpus).tobytes())
            out.append(retrieval_analysis(graphs[-1], corpus, model, bins=min(n, 5)))
        return out

    expected = _with_workers(1, run)
    for workers in (2, 3):
        assert _with_workers(workers, run) == expected, workers


@needs_pinned_blas
def test_inference_parts_submit_no_products():
    # At hidden 512 a 128-molecule batch's products are above the gate.  The
    # pool has a thread more than the parts need, so a part that split its
    # products would show here instead of waiting on itself.  Each embed
    # matches the same molecules embedded on one worker.
    graphs = [g for _, g in make_molecules(200, seed=43)]
    model = EncoderModel.initialize(EncoderConfig(num_layers=2, hidden_dim=512, latent_dim=32), 44)

    def embed(corpus, workers, pool=None):
        return _with_workers(workers, lambda: embed_molecules(model, corpus), pool).tobytes()

    pool = _CountingPool(3)
    assert embed(graphs[:100], 2, pool) == embed(graphs[:100], 1)
    assert pool.parts and set(pool.parts) == {ad._matmul_block}  # one batch splits
    pool = _CountingPool(3)
    assert embed(graphs, 2, pool) == embed(graphs, 1)
    assert pool.parts == [encoder_module._forward_batches]


_PAPER_WIDTH_INFERENCE_SCRIPT = """
import sys
from molcontrast import autodiff as ad
from molcontrast.encoder import EncoderConfig, EncoderModel, embed_molecules
from molgen import make_molecules
graphs = [g for _, g in make_molecules(200, seed=43)]
model = EncoderModel.initialize(EncoderConfig(num_layers=2, hidden_dim=512, latent_dim=32), 44)
out = []
for threads in (1, 2):
    ad.set_threads(threads)
    out.append(embed_molecules(model, graphs).tobytes())
sys.exit(0 if out[0] == out[1] else 1)
"""


@needs_pinned_blas
def test_paper_width_inference_on_two_threads_finishes():
    # Two batches whose products are above the gate, on a pool of one
    # thread: a part that split them would wait on itself.  It runs in a
    # child so that a deadlock fails by the timeout; a hung pool thread
    # would also hang this process at exit.
    proc = subprocess.run(
        [sys.executable, "-c", _PAPER_WIDTH_INFERENCE_SCRIPT],
        env=_env_without_thread_vars(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_inference_abort_names_the_first_bad_batch_for_any_thread_count():
    # Bromine's embedding row overflows every molecule that holds it.  The
    # first such molecule is in the third batch and another is in the fourth,
    # which the second of two workers runs.
    size = encoder_module.INFERENCE_BATCH
    clean = [parse_smiles(s) for s in ("CCO", "c1ccccc1", "CC(=O)N")]
    graphs = [clean[i % 3] for i in range(4 * size)]
    graphs[2 * size + 5] = graphs[3 * size + 1] = parse_smiles("BrCBr")
    model = EncoderModel.initialize(EncoderConfig(num_layers=3, hidden_dim=64, latent_dim=32), 45)
    model.params["atom_embedding"].data[35] = 3e38
    messages = []
    for workers in (1, 2):
        with pytest.raises(NumericAbort) as info:
            _with_workers(workers, lambda: embed_molecules(model, graphs))
        messages.append(str(info.value))
    assert messages == [f"non-finite model output for molecules {2 * size} to {3 * size - 1}"] * 2



def test_run_parts_waits_for_every_part_and_raises_the_first_failure():
    # Three parts: parts 0 and 1 fail on the pool while part 2, the last,
    # sleeps on the calling thread.  Part 0's exception comes out, and only
    # once part 2 has finished.
    finished = []

    def part(k, errors):
        if k == 0:
            raise RuntimeError("part 0")
        if k == 1:
            raise ValueError("part 1")
        time.sleep(0.3)
        finished.append(k)

    with ThreadPoolExecutor(2) as pool:
        with pytest.raises(RuntimeError, match="part 0"):
            ad._run_parts(pool, part, [(0,), (1,), (2,)])
        assert finished == [2]


def test_run_parts_runs_the_last_part_on_the_calling_thread():
    # The last part runs here and the others on the pool; when the last
    # part fails too, an earlier part's failure is what comes out.
    caller = threading.get_ident()
    ran = {}

    def part(k, errors):
        ran[k] = threading.get_ident()
        if k in (1, 2):
            raise RuntimeError(f"part {k}")

    with ThreadPoolExecutor(2) as pool:
        ad._run_parts(pool, part, [(0,), (3,)])
        assert ran[3] == caller and ran[0] != caller
        with pytest.raises(RuntimeError, match="part 1"):
            ad._run_parts(pool, part, [(0,), (1,), (2,)])
        assert ran[2] == caller and ran[1] != caller

# -- every OpenBLAS kernel the host can run ------------------------------------

# The x86-64 kernel families that OpenBLAS's DYNAMIC_ARCH builds pick among
# (``OPENBLAS_CORETYPE`` forces one), and the CPU flags each needs.
_CORES = {"Haswell": {"avx2", "fma"}, "Zen": {"avx2", "fma"}, "SkylakeX": {"avx512f"}}
# The tests whose bits depend on where a split product cuts its rows, or on
# where inference cuts its batches.
_SPLIT_TESTS = (
    "test_matmul_splits_only_above_the_gate",
    "test_matmul_blocks_take_the_callers_error_state",
    "test_matmul_split_matches_unsplit_bitwise",
    "test_product_with_own_transpose_is_gemm_for_any_thread_count",
    "test_linear_backward_splits_only_above_the_gate",
    "test_linear_and_matmul_t_gradients_identical_for_any_thread_count",
    "test_pretrain_checkpoints_identical_across_blas_threads",
    "test_paper_width_pretrain_identical_for_any_threads",
    "test_inference_identical_for_any_thread_count",
    "test_inference_parts_submit_no_products",
    "test_paper_width_inference_on_two_threads_finishes",
)


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _corename(env) -> str:
    """The kernel OpenBLAS runs in a process started with ``env``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("blas_core.py"))],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.strip()


@needs_pinned_blas
@pytest.mark.parametrize("core", sorted(_CORES))
def test_split_tests_pass_on_every_kernel_the_host_runs(core):
    # MANUAL's "Determinism": outputs do not depend on --threads, whichever
    # kernel OpenBLAS picks.  The split tests rerun in a child whose
    # environment alone forces ``core``.
    if not _CORES[core] <= _cpu_flags():
        pytest.skip(f"this CPU cannot run the {core} kernels")
    env = {**_env_without_thread_vars(), "OPENBLAS_CORETYPE": core}
    kernel = _corename(env)
    if kernel.lower() != core.lower():
        pytest.skip(f"this OpenBLAS runs {core} on its {kernel} kernels")
    if kernel == _corename(_env_without_thread_vars()):
        pytest.skip(f"{kernel} is the kernel this suite runs on")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"tests/test_autodiff.py::{name}" for name in _SPLIT_TESTS)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
