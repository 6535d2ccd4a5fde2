import numpy as np
import pytest

from fvassoc.aamloss import (
    AamConfig,
    _check_targets,
    _margin_pieces,
    aam_loss_and_grad,
    init_classifier,
    joint_step,
)
from fvassoc.diffcore import (
    AdamState,
    adam_step,
    as_mat,
    l2_normalize_rows,
    make_rng,
)
from fvassoc.errors import DegenerateVectorError
from fvassoc.fusion import MappingHead
from testlib import finite_difference_grad, rel_error, softmax_xent_on_cosines


def aam_logits(x, clf_weight, cfg, targets):
    """Scaled-cosine logits with the additive angular margin on the target."""
    cfg.validate()
    x = as_mat(x)
    targets = _check_targets(targets, x.shape[0], clf_weight.shape[0])
    xn = l2_normalize_rows(x)
    wn = l2_normalize_rows(clf_weight)
    cos = np.clip(xn @ wn.T, -1.0, 1.0)
    logits = cfg.scale * cos
    rows = np.arange(x.shape[0])
    value, _ = _margin_pieces(cos[rows, targets], cfg)
    logits[rows, targets] = cfg.scale * value
    return logits


def random_instance(seed, batch=4, dim=12, n_classes=5):
    rng = make_rng(seed)
    x = rng.standard_normal((batch, dim))
    w = rng.standard_normal((n_classes, dim))
    t = rng.integers(0, n_classes, size=batch)
    return x, w, t


class TestAamLogits:
    def test_zero_margin_is_scaled_cosine(self):
        x, w, t = random_instance(1)
        cfg = AamConfig(scale=30.0, margin=0.0)
        logits = aam_logits(x, w, cfg, t)
        cos = l2_normalize_rows(x) @ l2_normalize_rows(w).T
        assert np.allclose(logits, 30.0 * cos, atol=1e-12)

    def test_aligned_target_logit(self):
        w = make_rng(2).standard_normal((3, 8))
        x = w[1:2].copy()  # exactly aligned with class 1
        cfg = AamConfig(scale=30.0, margin=0.2)
        logits = aam_logits(x, w, cfg, [1])
        assert logits[0, 1] == pytest.approx(30.0 * np.cos(0.2), abs=1e-9)
        assert abs(logits[0, 1] - 29.4020) <= 5e-4

    def test_margin_never_helps_target(self):
        cfg = AamConfig(scale=30.0, margin=0.2)
        plain = AamConfig(scale=30.0, margin=0.0)
        for seed in range(20):
            x, w, t = random_instance(seed + 100)
            with_m = aam_logits(x, w, cfg, t)
            without = aam_logits(x, w, plain, t)
            rows = np.arange(len(t))
            assert np.all(with_m[rows, t] <= without[rows, t] + 1e-12)

    def test_zero_row_rejected(self):
        _, w, _ = random_instance(3)
        cfg = AamConfig()
        with pytest.raises(DegenerateVectorError):
            aam_logits(np.zeros((1, 12)), w, cfg, [0])

    def test_target_out_of_range(self):
        x, w, _ = random_instance(4)
        with pytest.raises(IndexError):
            aam_logits(x, w, AamConfig(), [99, 0, 0, 0])

    def test_scale_invariance_of_geometry(self):
        x, w, t = random_instance(5)
        cfg = AamConfig()
        a = aam_logits(x, w, cfg, t)
        b = aam_logits(7.3 * x, w, cfg, t)
        assert np.max(np.abs(a - b)) <= 1e-10


class TestAamLoss:
    def test_single_class_zero_loss(self):
        x, _, _ = random_instance(6)
        w = make_rng(7).standard_normal((1, 12))
        loss, gx, gw = aam_loss_and_grad(x, w, AamConfig(), [0, 0, 0, 0])
        assert loss == 0.0
        assert np.allclose(gx, 0.0, atol=1e-15)
        assert np.allclose(gw, 0.0, atol=1e-15)

    def test_reduction_to_plain_softmax(self):
        cfg = AamConfig(scale=1.0, margin=0.0)
        for seed in range(100):
            x, w, t = random_instance(seed)
            loss, _, _ = aam_loss_and_grad(x, w, cfg, t)
            ref = softmax_xent_on_cosines(x, w, t)
            assert abs(loss - ref) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        x, w, t = random_instance(seed + 50, batch=4, dim=192, n_classes=5)
        cfg = AamConfig(scale=30.0, margin=0.2)
        _, gx, gw = aam_loss_and_grad(x, w, cfg, t)
        fx = finite_difference_grad(
            lambda z: aam_loss_and_grad(z, w, cfg, t)[0], x
        )
        fw = finite_difference_grad(
            lambda z: aam_loss_and_grad(x, z, cfg, t)[0], w
        )
        assert rel_error(gx, fx) <= 1e-5
        assert rel_error(gw, fw) <= 1e-5

    def test_zero_row_adds_zero_loss_and_counts_in_the_batch(self):
        x, w, t = random_instance(60, batch=5, dim=16, n_classes=5)
        x[2] = 0.0  # a face row that dropout zeroed, bias still 0
        cfg = AamConfig(scale=30.0, margin=0.2)
        loss, gx, gw = aam_loss_and_grad(x, w, cfg, t)
        rest = np.arange(5) != 2
        per_row = [aam_loss_and_grad(x[i:i + 1], w, cfg, t[i:i + 1])[0]
                   for i in np.flatnonzero(rest)]
        assert loss == pytest.approx(sum(per_row) / 5, rel=1e-12)
        assert not gx[2].any()

        def loss_of_rest(z):
            full = x.copy()
            full[rest] = z
            return aam_loss_and_grad(full, w, cfg, t)[0]

        fx = finite_difference_grad(loss_of_rest, x[rest])
        fw = finite_difference_grad(
            lambda z: aam_loss_and_grad(x, z, cfg, t)[0], w
        )
        assert rel_error(gx[rest], fx) <= 1e-5
        assert rel_error(gw, fw) <= 1e-5

    def test_batch_of_only_zero_rows_has_zero_loss(self):
        _, w, _ = random_instance(61)
        loss, gx, gw = aam_loss_and_grad(np.zeros((3, 12)), w, AamConfig(),
                                         [0, 1, 2])
        assert loss == 0.0 and not gx.any() and not gw.any()
        assert gx.shape == (3, 12) and gw.shape == w.shape

    def test_margin_monotonicity_when_target_is_argmax(self):
        rng = make_rng(8)
        checked = 0
        while checked < 10:
            x, w, t = random_instance(int(rng.integers(0, 10_000)))
            cos = l2_normalize_rows(x) @ l2_normalize_rows(w).T
            if not np.all(cos.argmax(axis=1) == t):
                # force alignment: aim each row at its target class
                x = l2_normalize_rows(w)[t] + 0.1 * make_rng(checked).standard_normal(
                    (len(t), w.shape[1])
                )
            losses = [
                aam_loss_and_grad(x, w, AamConfig(scale=30.0, margin=m), t)[0]
                for m in (0.0, 0.1, 0.2, 0.3)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
            checked += 1

    def test_softmax_rows_sum_to_one(self):
        x, w, t = random_instance(9)
        logits = aam_logits(x, w, AamConfig(), t)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def make_params(seed, in_dim=10, out_dim=6, n_classes=4):
    rng = make_rng(seed)
    head_f = MappingHead.init(rng, in_dim, out_dim)
    head_v = MappingHead.init(rng, in_dim, out_dim)
    clf = init_classifier(rng, n_classes, out_dim)
    return {"head_face.weight": head_f.weight, "head_face.bias": head_f.bias,
            "head_voice.weight": head_v.weight, "head_voice.bias": head_v.bias,
            "clf.weight": clf}


def snapshot(params):
    return {name: arr.copy() for name, arr in params.items()}


def adam_states(params, lr):
    return {name: AdamState.for_param(arr, lr=lr) for name, arr in params.items()}


def apply_adam(params, grads, opt):
    for name, arr in params.items():
        adam_step(arr, grads[name], opt[name])


class TestJointStep:
    def test_zero_lr_leaves_parameters(self):
        params = make_params(0)
        opt = adam_states(params, lr=0.0)
        before = snapshot(params)
        rng = make_rng(1)
        x = rng.standard_normal((4, 10))
        fl, vl, grads = joint_step(params, 0.0, x, [0, 1, 2, 3], x, [0, 1, 2, 3],
                                   AamConfig(), rng)
        apply_adam(params, grads, opt)
        assert fl > 0 and vl > 0
        after = snapshot(params)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_classifier_gradient_doubles_with_identical_batches(self):
        params = make_params(2)
        params["head_voice.weight"] = params["head_face.weight"].copy()
        params["head_voice.bias"] = params["head_face.bias"].copy()
        rng = make_rng(3)
        x = rng.standard_normal((4, 10))
        t = [0, 1, 2, 3]
        cfg = AamConfig()
        from fvassoc.fusion import head_forward

        face = MappingHead(params["head_face.weight"], params["head_face.bias"])
        y, _ = head_forward(face, x, train=False)
        _, _, g_single = aam_loss_and_grad(y, params["clf.weight"], cfg, t)
        _, _, grads = joint_step(params, 0.0, x, t, x, t, cfg, rng)
        assert np.allclose(grads["clf.weight"], 2.0 * g_single, atol=1e-12)

    def test_loss_decreases_on_separable_data(self):
        # two well-separated clusters per modality
        rng = make_rng(4)
        n_classes = 4
        centers = 3.0 * rng.standard_normal((n_classes, 10))
        params = make_params(5, n_classes=n_classes)
        opt = adam_states(params, lr=1e-2)
        losses = []
        for step in range(50):
            t = rng.integers(0, n_classes, size=16)
            x = centers[t] + 0.05 * rng.standard_normal((16, 10))
            fl, vl, grads = joint_step(params, 0.2, x, t, x, t, AamConfig(), rng)
            apply_adam(params, grads, opt)
            losses.append(fl + vl)
        avg = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert avg[-1] < avg[0]
