import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc.diffcore import (
    _ADAM_BLOCK,
    AdamState,
    adam_step,
    apply_dropout,
    check_finite,
    dropout_mask,
    finite_difference_grad,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    make_rng,
    rel_error,
)
from fvassoc.errors import (
    ConfigError,
    DegenerateVectorError,
    NumericError,
    ShapeError,
)


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize_rows([[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(l2_normalize_rows(row), row)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateVectorError, match="row 1"):
            l2_normalize_rows([[1.0, 2.0], [0.0, 0.0]])

    def test_output_norms_are_one(self):
        rng = make_rng(5)
        x = rng.standard_normal((20, 7)) * 10
        norms = np.linalg.norm(l2_normalize_rows(x), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 2), (4, 3), (2, 9)])
    def test_backward_matches_finite_differences(self, shape):
        rng = make_rng(sum(shape))
        x = rng.standard_normal(shape) + 2.0
        g = rng.standard_normal(shape)
        gx = l2_normalize_rows_backward(x, g)
        fd = finite_difference_grad(
            lambda z: float((l2_normalize_rows(z) * g).sum()), x
        )
        assert rel_error(gx, fd) <= 1e-5


class TestDropout:
    def test_p_zero_is_identity(self):
        mask = dropout_mask(make_rng(0), (4, 5), 0.0)
        x = make_rng(1).standard_normal((4, 5))
        assert np.array_equal(apply_dropout(x, mask), x)

    def test_kept_fraction_and_scale(self):
        mask = dropout_mask(make_rng(3), (1, 100_000), 0.9)
        kept = mask != 0.0
        assert abs(kept.mean() - 0.1) <= 0.01
        assert np.allclose(mask[kept], 10.0)

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_mask(make_rng(0), (2, 2), 1.0)


def _reference_adam_step(param, grad, state):
    """The allocate-per-operation Adam update, kept only as the test oracle."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"adam_step: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}"
        )
    check_finite(grad, "adam gradient")
    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def _run_both(param, grads, lr=1e-3, transpose=False):
    """Apply `grads` in turn with the oracle and with adam_step."""
    if transpose:
        param = param.T
    ref_p, ref_s = param.copy(), AdamState.for_param(param, lr=lr)
    p, s = param.copy(order="K"), AdamState.for_param(param, lr=lr)
    for g in grads:
        g = g.T if transpose else g
        ref_p = _reference_adam_step(ref_p, g, ref_s)
        p = adam_step(p, g, s)
    return (ref_p, ref_s), (p, s)


def _assert_same(ref, got):
    (ref_p, ref_s), (p, s) = ref, got
    assert p.shape == ref_p.shape
    assert np.array_equal(p, ref_p)
    assert np.array_equal(s.m, ref_s.m)
    assert np.array_equal(s.v, ref_s.v)
    assert s.step == ref_s.step


_ADAM_SIZES = [1, _ADAM_BLOCK - 1, _ADAM_BLOCK, _ADAM_BLOCK + 1, 2 * _ADAM_BLOCK + 3]


class TestAdamMatchesOracle:
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_bit_identical_over_steps(self, data):
        size = data.draw(st.sampled_from(_ADAM_SIZES), label="size")
        divisors = [d for d in range(1, 400) if size % d == 0 and d < size]
        rows = data.draw(st.sampled_from([None] + divisors), label="rows")
        shape = (size,) if rows is None else (rows, size // rows)
        transpose = rows is not None and data.draw(st.booleans(), label="F-order")
        n_steps = data.draw(st.integers(1, 4), label="steps")
        lr = data.draw(st.sampled_from([0.0, 1e-3, 0.01, 0.3]), label="lr")
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = 10.0 ** rng.integers(-6, 4, size=shape)
        param = rng.standard_normal(shape)
        grads = [rng.standard_normal(shape) * scale for _ in range(n_steps)]
        ref, got = _run_both(param, grads, lr=lr, transpose=transpose)
        _assert_same(ref, got)

    def test_full_width_voice_head(self):
        rng = make_rng(21)
        param = rng.standard_normal((192, 7680)) / np.sqrt(7680)
        grads = [rng.standard_normal((192, 7680)) * 1e-3 for _ in range(3)]
        _assert_same(*_run_both(param, grads, lr=0.01))

    def test_updates_in_place_and_returns_param(self):
        p = make_rng(2).standard_normal((3, _ADAM_BLOCK + 5))
        state = AdamState.for_param(p)
        m, v = state.m, state.v
        out = adam_step(p, np.ones_like(p), state)
        assert out is p and state.m is m and state.v is v
        assert m.any() and v.any()

    def test_transposed_param_is_copied_and_returned(self):
        p = make_rng(3).standard_normal((5, 7)).T
        before = p.copy()
        state = AdamState.for_param(p)
        assert state.m.flags.c_contiguous
        out = adam_step(p, np.ones_like(p), state)
        assert out.flags.c_contiguous and out.shape == (7, 5)
        assert np.array_equal(p, before)
        assert (out < before).all()


class TestAdam:
    def test_zero_grad_leaves_param(self):
        p = np.array([[1.0, 2.0]])
        before = p.copy()
        state = AdamState.for_param(p)
        out = adam_step(p, np.zeros_like(p), state)
        assert np.array_equal(out, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, _ADAM_BLOCK + 2])
    def test_nonfinite_grad_rejected_before_any_update(self, bad, where):
        rng = make_rng(4)
        p = rng.standard_normal((2, _ADAM_BLOCK))
        state = AdamState.for_param(p)
        adam_step(p, rng.standard_normal(p.shape), state)
        before = (p.copy(), state.m.copy(), state.v.copy(), state.step)
        grad = rng.standard_normal(p.shape)
        grad.reshape(-1)[where] = bad
        with pytest.raises(NumericError):
            adam_step(p, grad, state)
        assert np.array_equal(p, before[0])
        assert np.array_equal(state.m, before[1])
        assert np.array_equal(state.v, before[2])
        assert state.step == before[3]

    def test_shape_mismatch_rejected_before_any_update(self):
        p = np.ones((2, 3))
        state = AdamState.for_param(p)
        with pytest.raises(ShapeError):
            adam_step(p, np.ones((3, 2)), state)
        assert state.step == 0 and not state.m.any()
        assert np.array_equal(p, np.ones((2, 3)))

    def test_scalar_first_step(self):
        p = np.array([[1.0]])
        state = AdamState.for_param(p, lr=0.1)
        out = adam_step(p, np.array([[1.0]]), state)
        # bias-corrected first step is lr * sign(grad) up to eps
        assert abs(out[0, 0] - 0.9) <= 1e-6

    def test_determinism(self):
        rng1, rng2 = make_rng(9), make_rng(9)
        p1 = np.ones((3, 3))
        p2 = np.ones((3, 3))
        s1 = AdamState.for_param(p1)
        s2 = AdamState.for_param(p2)
        for _ in range(10):
            g1 = rng1.standard_normal((3, 3))
            g2 = rng2.standard_normal((3, 3))
            p1 = adam_step(p1, g1, s1)
            p2 = adam_step(p2, g2, s2)
        assert np.array_equal(p1, p2)

    def test_step_count_increments(self):
        p = np.zeros((1, 1))
        state = AdamState.for_param(p)
        for expected in (1, 2, 3):
            p = adam_step(p, np.ones((1, 1)), state)
            assert state.step == expected


class TestFiniteDifferences:
    def test_linear(self):
        g = finite_difference_grad(lambda x: float(x.sum()), np.zeros((2, 3)))
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_quadratic(self):
        x = np.array([[1.0, 2.0]])
        g = finite_difference_grad(lambda z: 0.5 * float((z**2).sum()), x)
        assert np.max(np.abs(g - x)) <= 1e-8

    def test_constant(self):
        g = finite_difference_grad(lambda x: 7.0, np.ones((2, 2)))
        assert not g.any()

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            finite_difference_grad(lambda x: float("nan"), np.ones((1, 1)))


def test_rng_is_platform_stable():
    # PCG64 stream for a fixed seed is part of the determinism contract
    vals = make_rng(1234).integers(0, 1_000_000, size=3)
    assert list(vals) == list(make_rng(1234).integers(0, 1_000_000, size=3))
