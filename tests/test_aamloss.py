import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc.aamloss import (
    AamConfig,
    _check_targets,
    _margin_pieces,
    aam_loss_and_grad,
    init_classifier,
    joint_step,
)
from fvassoc.diffcore import (
    EPS_NORM,
    AdamState,
    adam_step,
    as_mat,
    l2_normalize_rows,
    make_rng,
)
from fvassoc.errors import DegenerateVectorError
from fvassoc.fusion import MappingHead, head_backward, head_forward, head_from_arrays
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


# ---------------------------------------------------------------------------
# joint_step normalizes the classifier once for both losses; these
# references normalize it once per loss, each with its own backward, as the
# loss did before, and must agree to the bit.


def _normalize(x):
    norms = np.linalg.norm(x, axis=1)
    bad = np.nonzero(norms <= EPS_NORM)[0]
    if bad.size:
        raise DegenerateVectorError(f"row {bad[0]} has norm {norms[bad[0]]:g}")
    return x / norms[:, None]


def _normalize_backward(x, g):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    u = x / norms
    return (g - (g * u).sum(axis=1, keepdims=True) * u) / norms


def reference_aam(x, w, cfg, targets):
    """One modality's loss and gradients, normalizing `w` itself."""
    x, targets = as_mat(x), np.asarray(targets)
    n = x.shape[0]
    keep = np.linalg.norm(x, axis=1) > EPS_NORM
    if not keep.all():
        grad_x = np.zeros_like(x)
        if not keep.any():
            return 0.0, grad_x, np.zeros_like(w)
        loss, grad_kept, grad_w = reference_aam(x[keep], w, cfg, targets[keep])
        frac = keep.sum() / n
        grad_x[keep] = grad_kept * frac
        return float(loss * frac), grad_x, grad_w * frac
    xn, wn = _normalize(x), _normalize(w)
    cos = np.clip(xn @ wn.T, -1.0, 1.0)
    rows = np.arange(n)
    value, deriv = _margin_pieces(cos[rows, targets], cfg)
    logits = cfg.scale * cos
    logits[rows, targets] = cfg.scale * value
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[rows, targets].mean())
    g_logits = np.exp(log_probs)
    g_logits[rows, targets] -= 1.0
    g_logits /= n
    g_cos = g_logits * cfg.scale
    g_cos[rows, targets] *= deriv
    return (loss, _normalize_backward(x, g_cos @ wn),
            _normalize_backward(w, g_cos.T @ xn))


def reference_joint_step(params, p_drop, face_x, face_t, voice_x, voice_t,
                         cfg, rng):
    """joint_step with two independent losses whose classifier gradients
    are summed afterwards."""
    heads = [head_from_arrays(params, p, p_drop) for p in ("head_face", "head_voice")]
    out = [head_forward(h, x, train=True, rng=rng)
           for h, x in zip(heads, (face_x, voice_x))]
    losses = [reference_aam(y, params["clf.weight"], cfg, t)
              for (y, _), t in zip(out, (face_t, voice_t))]
    grads = {"clf.weight": losses[0][2] + losses[1][2]}
    for prefix, head, (_, cache), (_, g_y, _) in zip(
            ("head_face", "head_voice"), heads, out, losses):
        grads[f"{prefix}.weight"], grads[f"{prefix}.bias"], _ = head_backward(
            head, cache, g_y)
    return losses[0][0], losses[1][0], grads


@st.composite
def joint_instances(draw):
    """Params, batches and a p_drop; zero biases, and some input rows zero,
    so whole rows reach the loss with no direction."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_face, n_voice = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    in_face, in_voice = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    out_dim, n_classes = draw(st.integers(1, 48)), draw(st.integers(1, 40))
    rng = make_rng(seed)
    params = {"head_face.weight": rng.standard_normal((out_dim, in_face)),
              "head_face.bias": np.zeros(out_dim),
              "head_voice.weight": rng.standard_normal((out_dim, in_voice)),
              "head_voice.bias": np.zeros(out_dim),
              "clf.weight": rng.standard_normal((n_classes, out_dim))}
    face_x = rng.standard_normal((n_face, in_face))
    voice_x = rng.standard_normal((n_voice, in_voice))
    face_x[draw(st.lists(st.integers(0, n_face - 1), max_size=n_face))] = 0.0
    voice_x[draw(st.lists(st.integers(0, n_voice - 1), max_size=n_voice))] = 0.0
    targets = [rng.integers(0, n_classes, n) for n in (n_face, n_voice)]
    p_drop = draw(st.sampled_from([0.0, 0.5, 0.9]))
    return params, p_drop, face_x, targets[0], voice_x, targets[1], seed


class TestSharedNormalization:
    @settings(max_examples=150, deadline=None, database=None)
    @given(joint_instances(), st.sampled_from([0.0, 0.2, 0.5]))
    def test_joint_step_matches_two_independent_losses_bit_for_bit(
            self, instance, margin):
        params, p_drop, fx, ft, vx, vt, seed = instance
        cfg = AamConfig(scale=30.0, margin=margin)
        got = joint_step(params, p_drop, fx, ft, vx, vt, cfg, make_rng(seed))
        want = reference_joint_step(params, p_drop, fx, ft, vx, vt, cfg,
                                    make_rng(seed))
        assert got[0] == want[0] and got[1] == want[1]
        assert sorted(got[2]) == sorted(want[2])
        for name, grad in want[2].items():
            assert np.array_equal(got[2][name], grad), name

    @pytest.mark.parametrize("zeroed", [[0], [1, 3], [0, 1, 2, 3]])
    def test_zeroed_rows_take_the_kept_rows_branch_bit_for_bit(self, zeroed):
        params = make_params(6)  # zero biases: a zero input row stays zero
        rng = make_rng(7)
        fx, vx = rng.standard_normal((2, 4, 10))
        fx[zeroed] = 0.0
        args = (params, 0.0, fx, [0, 1, 2, 3], vx, [3, 2, 1, 0], AamConfig())
        got = joint_step(*args, make_rng(8))
        want = reference_joint_step(*args, make_rng(8))
        assert got[0] == want[0] and got[1] == want[1]
        for name, grad in want[2].items():
            assert np.array_equal(got[2][name], grad), name

    def test_zero_classifier_row_raises_with_the_row_and_norm(self):
        params = make_params(3, n_classes=4)
        params["clf.weight"][2] = 0.0
        x = make_rng(4).standard_normal((3, 10))
        with pytest.raises(DegenerateVectorError, match=r"^row 2 has norm 0$"):
            joint_step(params, 0.0, x, [0, 1, 3], x, [1, 2, 3], AamConfig(),
                       make_rng(5))
        with pytest.raises(DegenerateVectorError, match=r"^row 2 has norm 0$"):
            reference_joint_step(params, 0.0, x, [0, 1, 3], x, [1, 2, 3],
                                 AamConfig(), make_rng(5))
