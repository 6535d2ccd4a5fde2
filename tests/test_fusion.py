import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc.diffcore import make_rng
from fvassoc.errors import (
    ConfigError,
    DegenerateVectorError,
    FormatError,
    SchemaError,
    ShapeError,
)
from fvassoc.fusion import (
    MappingHead,
    XAttnModel,
    _attn_backward,
    _attn_forward,
    head_backward,
    head_forward,
    head_from_arrays,
    load_checkpoint,
    save_checkpoint,
    tokenize,
    xattn_backward,
    xattn_forward,
    xattn_loss,
)
from fvassoc.traineval import _score_inputs
from testlib import finite_difference_grad, rel_error


def head_to_arrays(head, prefix):
    return {f"{prefix}.weight": head.weight, f"{prefix}.bias": head.bias}


class TestMappingHead:
    def test_eval_identity_weight(self):
        head = MappingHead(weight=np.eye(4), bias=np.zeros(4), p_drop=0.9)
        x = make_rng(0).standard_normal((3, 4))
        y, _ = head_forward(head, x, train=False)
        assert np.array_equal(y, x)

    def test_train_with_zero_dropout_equals_eval(self):
        head = MappingHead.init(make_rng(1), in_dim=6, out_dim=4, p_drop=0.0)
        x = make_rng(2).standard_normal((5, 6))
        y_train, _ = head_forward(head, x, train=True, rng=make_rng(3))
        y_eval, _ = head_forward(head, x, train=False)
        assert np.array_equal(y_train, y_eval)

    def test_backward_zero_grad(self):
        head = MappingHead.init(make_rng(1), in_dim=3, out_dim=2, p_drop=0.5)
        x = make_rng(2).standard_normal((4, 3))
        _, cache = head_forward(head, x, train=True, rng=make_rng(3))
        gw, gb, gx = head_backward(head, cache, np.zeros((4, 2)), input_grad=True)
        assert not gw.any() and not gb.any() and not gx.any()

    def test_backward_scalar_chain_rule(self):
        head = MappingHead(weight=np.array([[2.0]]), bias=np.zeros(1), p_drop=0.5)
        x = np.array([[3.0]])
        y, cache = head_forward(head, x, train=True, rng=make_rng(4))
        mask = cache[1][0, 0]
        gw, gb, gx = head_backward(head, cache, np.array([[1.0]]),
                                   input_grad=True)
        assert gw[0, 0] == mask * 3.0
        assert gb[0] == 1.0
        assert gx[0, 0] == mask * 2.0

    @pytest.mark.parametrize("shape", [(1, 3, 2), (4, 6, 5), (2, 8, 3)])
    def test_weight_grad_matches_finite_differences(self, shape):
        batch, in_dim, out_dim = shape
        head = MappingHead.init(make_rng(10), in_dim, out_dim, p_drop=0.5)
        x = make_rng(11).standard_normal((batch, in_dim))
        y, cache = head_forward(head, x, train=True, rng=make_rng(12))
        xd, mask = cache
        grad_y = 2.0 * y / y.size  # d mean(y^2) / dy
        gw, gb, gx = head_backward(head, cache, grad_y, input_grad=True)

        def loss_w(w):
            return float(((xd @ w.T + head.bias) ** 2).mean())

        def loss_x(z):
            return float((((z * mask) @ head.weight.T + head.bias) ** 2).mean())

        assert rel_error(gw, finite_difference_grad(loss_w, head.weight)) <= 1e-5
        assert rel_error(gx, finite_difference_grad(loss_x, x)) <= 1e-5

    def test_input_gradient_only_on_request(self):
        head = MappingHead.init(make_rng(13), in_dim=6, out_dim=4, p_drop=0.5)
        x = make_rng(14).standard_normal((5, 6))
        _, cache = head_forward(head, x, train=True, rng=make_rng(15))
        grad_y = make_rng(16).standard_normal((5, 4))
        gw, gb, gx = head_backward(head, cache, grad_y)
        gw_x, gb_x, gx_x = head_backward(head, cache, grad_y, input_grad=True)
        assert gx is None and gx_x.shape == x.shape
        assert gw.tobytes() == gw_x.tobytes() and gb.tobytes() == gb_x.tobytes()

    def test_eval_forward_is_affine(self):
        head = MappingHead.init(make_rng(20), in_dim=5, out_dim=3, p_drop=0.9)
        rng = make_rng(21)
        x1 = rng.standard_normal((2, 5))
        x2 = rng.standard_normal((2, 5))
        f = lambda x: head_forward(head, x, train=False)[0]
        lhs = f(x1) + f(x2) - 2 * head.bias
        rhs = f(x1 + x2) - head.bias
        assert np.allclose(lhs, rhs, atol=1e-12)


def identity_head(dim):
    return MappingHead(weight=np.eye(dim), bias=np.zeros(dim), p_drop=0.0)


def score_rows(a, b):
    """Cosine of row i of a with row i of b, by the production scorer.

    Identity heads project each row exactly onto itself, so the scorer sees
    the rows as given."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    rows = np.arange(len(a))
    return _score_inputs(identity_head(a.shape[1]), identity_head(b.shape[1]),
                         (a, rows), rows, (b, rows), rows)


def cosine(a, b):
    """The production score of one (face, voice) pair, as a float."""
    (score,) = score_rows(a, b)
    return float(score)


class TestScorePair:
    def test_self_similarity(self):
        v = make_rng(0).standard_normal(8)
        assert cosine(v, v) == pytest.approx(1.0)
        m = make_rng(3).standard_normal((5, 8))
        assert np.allclose(score_rows(m, m), 1.0, rtol=0, atol=1e-12)

    def test_orthogonal(self):
        a = np.zeros(8)
        b = np.zeros(8)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_antipodal(self):
        v = make_rng(1).standard_normal(8)
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine(np.zeros(4), np.ones(4))
        rows = np.ones((3, 4))
        zero_row = rows.copy()
        zero_row[1] = 0.0
        with pytest.raises(DegenerateVectorError):
            score_rows(rows, zero_row)

    def test_symmetric_and_scale_invariant(self):
        rng = make_rng(2)
        for _ in range(20):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            a, b = rng.uniform(0.1, 10.0, size=2)
            assert abs(cosine(x, y) - cosine(y, x)) <= 1e-12
            assert abs(cosine(a * x, b * y) - cosine(x, y)) <= 1e-12


def toy_model(seed=3, d_model=4, voice_in=11, face_in=9):
    return XAttnModel.init(
        make_rng(seed), voice_in_dim=voice_in, face_in_dim=face_in, d_model=d_model
    )


class TestXAttn:
    def test_tokenize_pads_and_reshapes(self):
        x = np.arange(10.0).reshape(1, 10)
        toks = tokenize(x, 4)
        assert toks.shape == (1, 3, 4)
        assert np.array_equal(toks[0, 2], [8.0, 9.0, 0.0, 0.0])

    def test_zero_input_logit_is_output_bias(self):
        m = toy_model()
        m.params["out_b"] = 1.25
        logits, _ = xattn_forward(m, np.zeros((2, 11)), np.zeros((2, 9)))
        assert np.array_equal(logits, [1.25, 1.25])

    def test_attention_rows_sum_to_one(self):
        m = toy_model()
        rng = make_rng(5)
        _, cache = xattn_forward(
            m, rng.standard_normal((2, 11)), rng.standard_normal((2, 9))
        )
        for layer_cache in (cache[2], cache[3]):
            attn = layer_cache[5]
            assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-12

    def test_permutation_equivariance_of_key_value_tokens(self):
        # permuting key/value tokens together leaves attention output as-is
        m = toy_model(voice_in=12)  # 3 voice tokens, no padding
        rng = make_rng(6)
        ft = tokenize(rng.standard_normal((1, 9)), 4)
        vt = tokenize(rng.standard_normal((1, 12)), 4)
        out, _ = _attn_forward(ft, vt, m.params, "layer0", m.residual)
        perm = [2, 0, 1]
        out_p, _ = _attn_forward(ft, vt[:, perm, :], m.params, "layer0", m.residual)
        assert np.allclose(out, out_p, atol=1e-12)

    @pytest.mark.parametrize("residual", [True, False])
    def test_input_gradients_only_on_request(self, residual):
        m = toy_model(voice_in=12, face_in=8)
        m.residual, m.p_drop = residual, 0.3
        rng = make_rng(8)
        xv, xf = rng.standard_normal((3, 12)), rng.standard_normal((3, 8))
        logits, cache = xattn_forward(m, xv, xf, train=True, rng=make_rng(9))
        _, g_logits = xattn_loss(logits, [1.0, 0.0, 1.0])
        grads, gv, gf = xattn_backward(m, cache, g_logits)
        grads_x, gv_x, gf_x = xattn_backward(m, cache, g_logits, input_grads=True)
        assert gv is None and gf is None
        assert gv_x.shape == xv.shape and gf_x.shape == xf.shape
        assert grads.keys() == grads_x.keys()
        for name, g in grads.items():
            assert np.asarray(g).tobytes() == np.asarray(grads_x[name]).tobytes()

    def test_full_stack_gradients_match_finite_differences(self):
        m = toy_model(voice_in=12, face_in=8)  # 3 and 2 tokens at d_model=4
        rng = make_rng(7)
        xv = rng.standard_normal((2, 12))
        xf = rng.standard_normal((2, 8))
        labels = np.array([1.0, 0.0])

        logits, cache = xattn_forward(m, xv, xf)
        _, g_logits = xattn_loss(logits, labels)
        grads, gv, gf = xattn_backward(m, cache, g_logits, input_grads=True)

        def loss_for(mutate):
            mm = copy.deepcopy(m)
            mutate(mm)
            z, _ = xattn_forward(mm, xv, xf)
            return xattn_loss(z, labels)[0]

        for i in range(2):
            for name in ("wq", "wk", "wv", "wo"):
                def f(arr, i=i, name=name):
                    def mut(mm):
                        mm.params[f"layer{i}.{name}"] = arr
                    return loss_for(mut)

                fd = finite_difference_grad(f, m.params[f"layer{i}.{name}"])
                assert rel_error(grads[f"layer{i}.{name}"], fd) <= 1e-4

        def f_out(arr):
            def mut(mm):
                mm.params["out_w"] = arr.ravel()
            return loss_for(mut)

        fd = finite_difference_grad(f_out, m.params["out_w"].reshape(1, -1))
        assert rel_error(grads["out_w"], fd.ravel()) <= 1e-4

        def f_xv(z):
            logits2, _ = xattn_forward(m, z, xf)
            return xattn_loss(logits2, labels)[0]

        assert rel_error(gv, finite_difference_grad(f_xv, xv)) <= 1e-4

    def test_shape_errors(self):
        m = toy_model()
        with pytest.raises(ShapeError):
            xattn_forward(m, np.zeros((1, 10)), np.zeros((1, 9)))


class TestDropoutDraws:
    """Each train-mode forward draws and applies its dropout masks bit for
    bit as the two-step mask-then-apply helpers below did, in the same order
    (the voice mask before the face mask in the cross-attention model)."""

    @staticmethod
    def reference_mask(rng, shape, p_drop):
        keep = rng.random(shape) >= p_drop
        return keep.astype(np.float64) / (1.0 - p_drop)

    @staticmethod
    def reference_apply(x, mask):
        return np.asarray(x, dtype=np.float64) * mask

    @pytest.mark.parametrize("p_drop", [0.3, 0.5, 0.9])
    def test_head_forward_matches_the_reference(self, p_drop):
        head = MappingHead.init(make_rng(30), in_dim=7, out_dim=3, p_drop=p_drop)
        x = make_rng(31).standard_normal((6, 7))
        rng, ref_rng = make_rng(32), make_rng(32)
        y, (xd, mask) = head_forward(head, x, train=True, rng=rng)
        ref_mask = self.reference_mask(ref_rng, x.shape, p_drop)
        ref_xd = self.reference_apply(x, ref_mask)
        assert mask.tobytes() == ref_mask.tobytes()
        assert xd.tobytes() == ref_xd.tobytes()
        assert y.tobytes() == (ref_xd @ head.weight.T + head.bias).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("p_drop", [0.3, 0.5])
    def test_xattn_forward_matches_the_reference(self, p_drop):
        m = toy_model(voice_in=12, face_in=8)
        m.p_drop = p_drop
        data = make_rng(40)
        xv, xf = data.standard_normal((3, 12)), data.standard_normal((3, 8))
        rng, ref_rng = make_rng(41), make_rng(41)
        logits, cache = xattn_forward(m, xv, xf, train=True, rng=rng)
        mv = self.reference_mask(ref_rng, xv.shape, p_drop)
        mf = self.reference_mask(ref_rng, xf.shape, p_drop)
        ref_logits, ref_cache = xattn_forward(
            m, self.reference_apply(xv, mv), self.reference_apply(xf, mf)
        )
        masks = cache[6]
        assert masks[0].tobytes() == mv.tobytes()
        assert masks[1].tobytes() == mf.tobytes()
        assert logits.tobytes() == ref_logits.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the backward pass multiplies each input gradient by its mask
        _, gv, gf = xattn_backward(m, cache, np.ones(3), input_grads=True)
        _, ref_gv, ref_gf = xattn_backward(m, ref_cache, np.ones(3), input_grads=True)
        assert gv.tobytes() == (ref_gv * mv).tobytes()
        assert gf.tobytes() == (ref_gf * mf).tobytes()

    def test_head_train_forward_with_dropout_needs_an_rng(self):
        head = MappingHead.init(make_rng(1), in_dim=3, out_dim=2, p_drop=0.5)
        with pytest.raises(ConfigError, match="needs an rng"):
            head_forward(head, np.ones((2, 3)), train=True)

    def test_xattn_train_forward_with_dropout_needs_an_rng(self):
        m = toy_model()
        m.p_drop = 0.3
        with pytest.raises(ConfigError, match="needs an rng"):
            xattn_forward(m, np.ones((2, 11)), np.ones((2, 9)), train=True)


def _reference_attn_forward(xq, xkv, layer, residual):
    """Oracle: one cross-attention layer written with einsum."""
    d = xq.shape[-1]
    q = xq @ layer["wq"]
    k = xkv @ layer["wk"]
    v = xkv @ layer["wv"]
    s = np.einsum("bqd,bkd->bqk", q, k) / np.sqrt(d)
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    a = e / e.sum(axis=-1, keepdims=True)
    c = np.einsum("bqk,bkd->bqd", a, v)
    o = c @ layer["wo"]
    y = xq + o if residual else o
    return y, (xq, xkv, q, k, v, a, c)


def _reference_attn_backward(grad_y, layer, cache, residual):
    """Oracle: _reference_attn_forward's gradients, written with einsum."""
    xq, xkv, q, k, v, a, c = cache
    d = xq.shape[-1]
    grad_o = grad_y
    grad_xq = grad_y.copy() if residual else np.zeros_like(xq)
    grad_c = grad_o @ layer["wo"].T
    g_wo = np.einsum("bqd,bqe->de", c, grad_o)
    grad_a = np.einsum("bqd,bkd->bqk", grad_c, v)
    grad_v = np.einsum("bqk,bqd->bkd", a, grad_c)
    grad_s = a * (grad_a - (grad_a * a).sum(axis=-1, keepdims=True))
    grad_s = grad_s / np.sqrt(d)
    grad_q = np.einsum("bqk,bkd->bqd", grad_s, k)
    grad_k = np.einsum("bqk,bqd->bkd", grad_s, q)
    g_wq = np.einsum("bqd,bqe->de", xq, grad_q)
    g_wk = np.einsum("bkd,bke->de", xkv, grad_k)
    g_wv = np.einsum("bkd,bke->de", xkv, grad_v)
    grad_xq = grad_xq + grad_q @ layer["wq"].T
    grad_xkv = grad_k @ layer["wk"].T + grad_v @ layer["wv"].T
    grads = {"wq": g_wq, "wk": g_wk, "wv": g_wv, "wo": g_wo}
    return grad_xq, grad_xkv, grads


@settings(max_examples=200, deadline=None, database=None)
@given(batch=st.integers(1, 5), t_q=st.integers(1, 10),
       t_kv=st.integers(1, 10), d=st.integers(1, 8), residual=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_attention_layer_matches_einsum_reference(batch, t_q, t_kv, d,
                                                  residual, seed):
    rng = make_rng(seed)
    xq = rng.standard_normal((batch, t_q, d))
    xkv = rng.standard_normal((batch, t_kv, d))
    layer = {name: rng.standard_normal((d, d))
             for name in ("wq", "wk", "wv", "wo")}
    grad_y = rng.standard_normal((batch, t_q, d))
    params = {f"layer0.{name}": w for name, w in layer.items()}

    y, cache = _attn_forward(xq, xkv, params, "layer0", residual)
    want_y, want_cache = _reference_attn_forward(xq, xkv, layer, residual)
    got = _attn_backward(grad_y, params, "layer0", cache, residual)
    want = _reference_attn_backward(grad_y, layer, want_cache, residual)

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    close(y, want_y)
    close(got[0], want[0])
    close(got[1], want[1])
    assert list(got[2]) == [f"layer0.{name}" for name in want[2]]
    for name in want[2]:
        close(got[2][f"layer0.{name}"], want[2][name])


class TestXAttnLoss:
    def test_logit_zero_label_one(self):
        loss, grad = xattn_loss([0.0], [1.0])
        assert loss == pytest.approx(np.log(2.0))
        assert grad[0] == pytest.approx(-0.5)

    def test_large_logit_no_overflow(self):
        loss, _ = xattn_loss([40.0], [1.0])
        assert 0.0 <= loss <= 1e-15

    def test_extreme_logits_emit_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = xattn_loss([800.0, -800.0, 800.0, -800.0],
                                    [1.0, 0.0, 0.0, 1.0])
        assert loss == 400.0  # per pair: 0, 0, 800, 800
        assert grad.tolist() == [0.0, 0.0, 0.25, -0.25]

    def test_matches_the_two_branch_sigmoid(self):
        z = make_rng(3).uniform(-700.0, 700.0, size=10_000)
        y = (make_rng(4).random(10_000) < 0.5).astype(float)
        loss, grad = xattn_loss(z, y)
        want_loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                       np.exp(z) / (1.0 + np.exp(z)))
        assert loss == float(want_loss.mean())
        assert np.array_equal(grad, (sig - y) / z.size)

    def test_grad_at_zero(self):
        _, g0 = xattn_loss([0.0], [0.0])
        _, g1 = xattn_loss([0.0], [1.0])
        assert g0[0] == pytest.approx(0.5)
        assert g1[0] == pytest.approx(-0.5)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        head = MappingHead.init(make_rng(8), in_dim=7, out_dim=3)
        arrays = head_to_arrays(head, "head_face")
        arrays["clf.weight"] = make_rng(9).standard_normal((5, 3))
        meta = {"architecture": "mapping-heads", "out_dim": 3}
        save_checkpoint(tmp_path / "c.fvh", arrays, meta)
        back, back_meta = load_checkpoint(tmp_path / "c.fvh")
        assert back_meta == meta
        assert np.array_equal(back["head_face.weight"], head.weight)
        restored = head_from_arrays(back, "head_face", p_drop=0.9, expect_in_dim=7)
        assert np.array_equal(restored.bias, head.bias)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "c.fvh").write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "c.fvh")

    def test_dim_validation(self, tmp_path):
        head = MappingHead.init(make_rng(8), in_dim=7, out_dim=3)
        save_checkpoint(tmp_path / "c.fvh", head_to_arrays(head, "h"), {})
        arrays, _ = load_checkpoint(tmp_path / "c.fvh")
        from fvassoc.errors import SchemaError

        with pytest.raises(SchemaError):
            head_from_arrays(arrays, "h", p_drop=0.0, expect_in_dim=99)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("h.bias"), "has no array h.bias"),
        (lambda a: a.clear(), "has no array h.weight, h.bias"),
        (lambda a: a.update({"h.weight": a["h.weight"].ravel()}),
         "do not form a head"),
        (lambda a: a.update({"h.bias": a["h.bias"][:, :-1]}),
         "do not form a head"),
    ], ids=["no_bias", "no_arrays", "weight_1d", "short_bias"])
    def test_malformed_head_arrays_are_schema_errors(self, edit, message):
        head = MappingHead.init(make_rng(8), in_dim=7, out_dim=3)
        # as load_checkpoint returns them: every array 2-D
        arrays = {k: np.atleast_2d(v) for k, v in head_to_arrays(head, "h").items()}
        edit(arrays)
        with pytest.raises(SchemaError, match=message):
            head_from_arrays(arrays, "h", p_drop=0.0)

    def _saved(self, tmp_path):
        head = MappingHead.init(make_rng(8), in_dim=7, out_dim=3)
        save_checkpoint(
            tmp_path / "c.fvh", head_to_arrays(head, "h"), {"architecture": "x"}
        )
        data = (tmp_path / "c.fvh").read_bytes()
        meta_len = int.from_bytes(data[8:12], "little")
        return data, meta_len

    @pytest.mark.parametrize(
        "cut", ["header", "after_header", "mid_meta", "after_meta", "mid_count",
                "mid_array"]
    )
    def test_truncated_checkpoint_is_format_error(self, tmp_path, cut):
        data, meta_len = self._saved(tmp_path)
        at = {
            "header": 6,
            "after_header": 12,
            "mid_meta": 12 + meta_len // 2,
            "after_meta": 12 + meta_len,
            "mid_count": 12 + meta_len + 2,
            "mid_array": len(data) - 5,
        }[cut]
        (tmp_path / "cut.fvh").write_bytes(data[:at])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(tmp_path / "cut.fvh")

    def test_bytes_after_the_last_array_are_format_error(self, tmp_path):
        data, _ = self._saved(tmp_path)
        (tmp_path / "joined.fvh").write_bytes(data + data)
        with pytest.raises(FormatError, match=f"joined.fvh: {len(data)} "
                                              f"trailing bytes at byte {len(data)}"):
            load_checkpoint(tmp_path / "joined.fvh")

    def test_an_array_named_twice_is_format_error(self, tmp_path):
        # a placeholder of the same length is saved, then renamed in the bytes
        head = MappingHead.init(make_rng(8), in_dim=7, out_dim=3)
        arrays = head_to_arrays(head, "head_face")
        arrays["head_face.biaz"] = arrays["head_face.bias"] + 1.0
        save_checkpoint(tmp_path / "c.fvh", arrays, {})
        data = (tmp_path / "c.fvh").read_bytes()
        (tmp_path / "twice.fvh").write_bytes(
            data.replace(b"head_face.biaz", b"head_face.bias"))
        with pytest.raises(FormatError,
                           match="twice.fvh: array head_face.bias appears twice"):
            load_checkpoint(tmp_path / "twice.fvh")

    @pytest.mark.parametrize("meta", [b'{"a": "\xff"}', b"[1, 2]", b"{not json"])
    def test_bad_meta_block_is_format_error(self, tmp_path, meta):
        data, meta_len = self._saved(tmp_path)
        bad = (
            data[:8] + len(meta).to_bytes(4, "little") + meta
            + data[12 + meta_len:]
        )
        (tmp_path / "bad.fvh").write_bytes(bad)
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "bad.fvh")

