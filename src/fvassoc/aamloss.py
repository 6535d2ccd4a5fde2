"""Shared additive-angular-margin softmax classifier.

One weight matrix (n_speakers x embed_dim) receives the projected embeddings
of BOTH modalities, so face and voice heads are pulled into a single angular
space. Logits are scaled cosines; the target class gets cos(theta + m)
instead of cos(theta), which forces same-speaker embeddings to cluster
tightly in angle while different speakers end up near-orthogonal.

Gradients through the margin, the row normalizations, and the scale are
derived by hand and validated against finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .diffcore import (
    EPS_NORM,
    AdamState,
    adam_step,
    as_mat,
    l2_normalize_rows,
    l2_normalize_rows_backward,
)
from .errors import ConfigError, ShapeError
from .fusion import head_backward, head_forward


@dataclass
class AamConfig:
    scale: float = 30.0
    margin: float = 0.2  # radians

    def validate(self):
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.margin < np.pi / 2:
            raise ConfigError(f"margin must be in [0, pi/2), got {self.margin}")


def init_classifier(rng, n_speakers, dim=192):
    """Gaussian rows scaled 1/sqrt(dim): near-orthogonal at init."""
    return rng.standard_normal((n_speakers, dim)) / np.sqrt(dim)


def _check_targets(targets, batch, n_classes):
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if targets.shape[0] != batch:
        raise ShapeError(f"{targets.shape[0]} targets for batch of {batch}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise IndexError(
            f"target out of range [0, {n_classes}): {targets.min()}..{targets.max()}"
        )
    return targets


def _margin_pieces(cos_t, cfg):
    """Target-logit value and its derivative w.r.t. cos(theta).

    Normal branch: cos(theta + m) = cos*cos_m - sin*sin_m, with
    sin = sqrt(1 - cos^2) clamped at zero. Easy-margin fallback when
    cos <= cos(pi - m): use cos - m*sin(m), which stays monotone in theta.
    """
    cos_m = np.cos(cfg.margin)
    sin_m = np.sin(cfg.margin)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = cos_t * cos_m - sin_t * sin_m
    # d(phi)/d(cos) = cos_m + (cos/sin) * sin_m; guard sin ~ 0
    safe_sin = np.maximum(sin_t, 1e-12)
    dphi = cos_m + (cos_t / safe_sin) * sin_m
    fallback = cos_t <= np.cos(np.pi - cfg.margin)
    value = np.where(fallback, cos_t - cfg.margin * sin_m, phi)
    deriv = np.where(fallback, 1.0, dphi)
    return value, deriv


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


def aam_loss_and_grad(x, clf_weight, cfg, targets):
    """Mean softmax cross-entropy over AAM logits with exact gradients.

    Returns (loss, grad_x, grad_clf_weight). A row of `x` with norm at most
    EPS_NORM has no direction: it adds zero loss and zero gradient but still
    counts in the batch size that the mean divides by.
    """
    cfg.validate()
    x = as_mat(x)
    w = as_mat(clf_weight)
    n, n_classes = x.shape[0], w.shape[0]
    targets = _check_targets(targets, n, n_classes)
    keep = np.linalg.norm(x, axis=1) > EPS_NORM
    if not keep.all():
        # dropout can zero a whole input row while the head bias is still 0
        grad_x = np.zeros_like(x)
        if not keep.any():
            return 0.0, grad_x, np.zeros_like(w)
        loss, grad_kept, grad_w = aam_loss_and_grad(x[keep], w, cfg, targets[keep])
        frac = keep.sum() / n  # the kept rows' mean, re-divided by n
        grad_x[keep] = grad_kept * frac
        return float(loss * frac), grad_x, grad_w * frac

    xn = l2_normalize_rows(x)
    wn = l2_normalize_rows(w)
    cos_raw = xn @ wn.T
    cos = np.clip(cos_raw, -1.0, 1.0)
    rows = np.arange(n)
    value, deriv = _margin_pieces(cos[rows, targets], cfg)
    logits = cfg.scale * cos
    logits[rows, targets] = cfg.scale * value

    # stable log-softmax cross-entropy
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -float(log_probs[rows, targets].mean())

    probs = np.exp(log_probs)
    g_logits = probs.copy()
    g_logits[rows, targets] -= 1.0
    g_logits /= n

    g_cos = g_logits * cfg.scale
    g_cos[rows, targets] *= deriv
    # clip is inactive except at exact +-1; treat as pass-through there
    g_xn = g_cos @ wn
    g_wn = g_cos.T @ xn
    grad_x = l2_normalize_rows_backward(x, g_xn)
    grad_w = l2_normalize_rows_backward(w, g_wn)
    return loss, grad_x, grad_w


def softmax_xent_on_cosines(x, clf_weight, targets):
    """Reference loss: plain softmax cross-entropy on raw cosines.

    aam_loss_and_grad with margin=0, scale=1 must match this exactly.
    """
    xn = l2_normalize_rows(as_mat(x))
    wn = l2_normalize_rows(as_mat(clf_weight))
    logits = xn @ wn.T
    targets = np.asarray(targets, dtype=np.int64).ravel()
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(log_probs[np.arange(len(targets)), targets].mean())


@dataclass
class JointParams:
    """Both mapping heads plus the shared classifier, with Adam state."""

    head_face: object
    head_voice: object
    clf_weight: np.ndarray
    opt: dict  # name -> AdamState

    @classmethod
    def create(cls, head_face, head_voice, clf_weight, lr):
        params = cls(head_face, head_voice, clf_weight, {})
        for name, arr in params.named_params():
            params.opt[name] = AdamState.for_param(arr, lr=lr)
        return params

    def named_params(self):
        return [
            ("head_face.weight", self.head_face.weight),
            ("head_face.bias", self.head_face.bias),
            ("head_voice.weight", self.head_voice.weight),
            ("head_voice.bias", self.head_voice.bias),
            ("clf.weight", self.clf_weight),
        ]


def joint_step(params, face_x, face_targets, voice_x, voice_targets, cfg, rng):
    """One joint optimization step on L_face + L_voice.

    Both modality batches run their own head (train mode) into the SAME
    classifier; the classifier gradient is the sum of both contributions.
    Returns (face loss, voice loss, gradient dict).
    """
    n_classes = params.clf_weight.shape[0]
    for t in (face_targets, voice_targets):
        _check_targets(t, len(np.atleast_1d(t)), n_classes)

    fy, f_cache = head_forward(params.head_face, face_x, train=True, rng=rng)
    vy, v_cache = head_forward(params.head_voice, voice_x, train=True, rng=rng)

    f_loss, g_fy, g_w_face = aam_loss_and_grad(
        fy, params.clf_weight, cfg, face_targets
    )
    v_loss, g_vy, g_w_voice = aam_loss_and_grad(
        vy, params.clf_weight, cfg, voice_targets
    )
    g_fw, g_fb, _ = head_backward(params.head_face, f_cache, g_fy)
    g_vw, g_vb, _ = head_backward(params.head_voice, v_cache, g_vy)
    g_clf = g_w_face + g_w_voice

    grads = {
        "head_face.weight": g_fw,
        "head_face.bias": g_fb,
        "head_voice.weight": g_vw,
        "head_voice.bias": g_vb,
        "clf.weight": g_clf,
    }
    for name, arr in params.named_params():
        adam_step(arr, grads[name], params.opt[name])
    return f_loss, v_loss, grads
