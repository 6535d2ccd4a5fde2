"""Shared additive-angular-margin softmax classifier.

One weight matrix (n_speakers x embed_dim) receives the projected embeddings
of BOTH modalities, so face and voice heads are pulled into a single angular
space. Logits are scaled cosines; the target class gets cos(theta + m)
instead of cos(theta), which forces same-speaker embeddings to cluster
tightly in angle while different speakers end up near-orthogonal.

Gradients through the margin, the row normalizations, and the scale are
derived by hand and validated against finite differences. `joint_step`
gives one step's losses and its gradients, keyed by the parameter names
the checkpoint uses; the trainer's early-stopping loop applies the update.
"""

from dataclasses import dataclass

import numpy as np

from .diffcore import EPS_NORM, as_mat, l2_normalize_rows_backward, unit_rows
from .errors import ConfigError, ShapeError
from .fusion import head_backward, head_forward, head_from_arrays


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


def aam_loss_and_grad(x, clf_weight, cfg, targets, clf_unit=None):
    """Mean softmax cross-entropy over AAM logits with exact gradients.

    Returns (loss, grad_x, grad_clf_weight). A row of `x` with norm at most
    EPS_NORM has no direction: it adds zero loss and zero gradient but still
    counts in the batch size that the mean divides by. `clf_unit` is
    `unit_rows(clf_weight)` when the caller has it already.
    """
    cfg.validate()
    x = as_mat(x)
    w = as_mat(clf_weight)
    n = x.shape[0]
    targets = _check_targets(targets, n, w.shape[0])
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    keep = norms[:, 0] > EPS_NORM
    if keep.all():
        return _aam(x, norms, targets, cfg, w, clf_unit or unit_rows(w))
    # dropout can zero a whole input row while the head bias is still 0
    grad_x = np.zeros_like(x)
    if not keep.any():
        return 0.0, grad_x, np.zeros_like(w)
    loss, grad_kept, grad_w = _aam(x[keep], norms[keep], targets[keep], cfg,
                                   w, clf_unit or unit_rows(w))
    frac = keep.sum() / n  # the kept rows' mean, re-divided by n
    grad_x[keep] = grad_kept * frac
    return float(loss * frac), grad_x, grad_w * frac


def _aam(x, norms, targets, cfg, w, w_unit):
    """`aam_loss_and_grad` of rows that all have a direction, from their
    `norms` and the classifier's `unit_rows`, reusing buffers in place."""
    n = x.shape[0]
    xn, wn = x / norms, w_unit[1]
    cos = np.clip(xn @ wn.T, -1.0, 1.0)
    rows = np.arange(n)
    value, deriv = _margin_pieces(cos[rows, targets], cfg)
    logits = np.multiply(cos, cfg.scale, out=cos)
    logits[rows, targets] = cfg.scale * value

    # stable log-softmax cross-entropy
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    logits -= np.log(probs.sum(axis=1, keepdims=True))  # now log-probabilities
    loss = -float(logits[rows, targets].mean())

    g = np.exp(logits, out=probs)  # d loss / d logits
    g[rows, targets] -= 1.0
    g /= n
    g *= cfg.scale  # d loss / d cos
    g[rows, targets] *= deriv
    # clip is inactive except at exact +-1; treat as pass-through there
    grad_x = l2_normalize_rows_backward(x, g @ wn, (norms, xn))
    grad_w = l2_normalize_rows_backward(w, g.T @ xn, w_unit)
    return loss, grad_x, grad_w


def joint_step(params, p_drop, face_x, face_targets, voice_x, voice_targets,
               cfg, rng):
    """Losses and gradients of one joint step on L_face + L_voice.

    `params` holds head_face.weight/.bias, head_voice.weight/.bias and
    clf.weight. Each modality batch runs its head (train mode, dropout
    `p_drop`) into the SAME classifier, whose gradient sums both parts.
    Both losses share one normalization of it; each part of its gradient
    takes its own normalize-backward before the sum, which keeps the order
    of the floating-point sums. Nothing is updated. Returns (face loss,
    voice loss, grads by name).
    """
    clf = params["clf.weight"]
    for t in (face_targets, voice_targets):
        _check_targets(t, len(np.atleast_1d(t)), clf.shape[0])
    head_face = head_from_arrays(params, "head_face", p_drop)
    head_voice = head_from_arrays(params, "head_voice", p_drop)

    fy, f_cache = head_forward(head_face, face_x, train=True, rng=rng)
    vy, v_cache = head_forward(head_voice, voice_x, train=True, rng=rng)

    clf_unit = unit_rows(clf)
    f_loss, g_fy, g_w_face = aam_loss_and_grad(fy, clf, cfg, face_targets, clf_unit)
    v_loss, g_vy, g_w_voice = aam_loss_and_grad(vy, clf, cfg, voice_targets, clf_unit)
    g_fw, g_fb, _ = head_backward(head_face, f_cache, g_fy)
    g_vw, g_vb, _ = head_backward(head_voice, v_cache, g_vy)

    grads = {
        "head_face.weight": g_fw,
        "head_face.bias": g_fb,
        "head_voice.weight": g_vw,
        "head_voice.bias": g_vb,
        "clf.weight": g_w_face + g_w_voice,
    }
    return f_loss, v_loss, grads
