"""Dense float64 numerics with hand-derived gradients.

All training math runs on 2-D row-major float64 numpy arrays. Randomness
flows through `make_rng(seed)`, which is a numpy PCG64 generator: the same
seed yields the same stream on every platform, so training runs and dropout
masks are bit-reproducible within one numpy/BLAS build (other builds may
round matrix products differently).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateVectorError, NumericError, ShapeError,
                     check_fraction)

EPS_NORM = 1e-12


def make_rng(seed):
    """Deterministic PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_mat(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def unit_rows(x):
    """(norms, x / norms): each row's Euclidean norm, as a column, and the
    row divided by it. Rows with norm <= EPS_NORM are rejected: there is no
    meaningful direction to normalize onto."""
    x = as_mat(x)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.flatnonzero(norms[:, 0] <= EPS_NORM)
    if bad.size:
        raise DegenerateVectorError(f"row {bad[0]} has norm {norms[bad[0], 0]:g}")
    return norms, x / norms


def l2_normalize_rows(x):
    """Divide each row by its Euclidean norm (see `unit_rows`)."""
    return unit_rows(x)[1]


def l2_normalize_rows_backward(x, grad_out, unit=None):
    """Jacobian-vector product of row normalization, from `unit` =
    unit_rows(x) when the caller has it, in one buffer reused in place.

    Per row: grad_x = (g - (g . u) u) / ||x||  with u = x / ||x||.
    """
    x = as_mat(x)
    g = as_mat(grad_out)
    if g.shape != x.shape:
        raise ShapeError(f"normalize backward: grad {g.shape} vs input {x.shape}")
    norms, u = unit or unit_rows(x)
    out = g * u
    np.multiply(out.sum(axis=1, keepdims=True), u, out=out)
    np.subtract(g, out, out=out)
    out /= norms
    return out


def dropout(x, p_drop, rng):
    """(x * mask, mask): inverted dropout of the float64 matrix `x`, whose
    mask is 0 with probability p_drop, else 1/(1-p_drop), drawn from `rng`.
    At p_drop 0 (eval mode) it is (x, None) and draws nothing."""
    check_fraction(p_drop=p_drop)
    if p_drop == 0.0:
        return x, None
    if rng is None:
        raise ConfigError("train-mode forward with p_drop > 0 needs an rng")
    mask = (rng.random(x.shape) >= p_drop).astype(np.float64) / (1.0 - p_drop)
    return x * mask, mask


_ADAM_BLOCK = 16384  # elements per block of the in-place Adam update
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam moments; step counter increments once per update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_param(cls, param, lr=1e-3):
        shape = np.shape(param)
        return cls(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def adam_step(param, grad, state):
    """One Adam update with bias correction, in place only. Returns `param`.

    `param` must be a C-contiguous float64 array (of any shape, 0-d
    included); anything else raises ShapeError. The parameter and the
    moments `state.m`/`state.v` are updated in place, `_ADAM_BLOCK` elements
    at a time through two block-sized scratch buffers, and `state.step` is
    incremented. The moments must be C-contiguous, as `AdamState.for_param`
    makes them. The layout, shape and finiteness checks run before anything
    is mutated. Every element goes through the same operations in the same
    order as the textbook formula m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g, param -= lr*(m/bc1) / (sqrt(v/bc2) + eps), so
    results are bit-identical to an update that allocates each
    intermediate. Deterministic.
    """
    if not (isinstance(param, np.ndarray) and param.dtype == np.float64
            and param.flags.c_contiguous):
        raise ShapeError("adam_step: param must be a C-contiguous float64 array")
    grad = np.asarray(grad, dtype=np.float64, order="C")
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"adam_step: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite values in adam gradient")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    p, g = param.reshape(-1), grad.reshape(-1)
    m, v = state.m.reshape(-1), state.v.reshape(-1)
    n = p.size
    s1 = np.empty(min(n, _ADAM_BLOCK))
    s2 = np.empty_like(s1)
    for lo in range(0, n, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, n)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = s1[: hi - lo], s2[: hi - lo]
        mb *= b1
        np.multiply(gb, c1, out=a)
        mb += a  # m = b1*m + (1-b1)*g
        vb *= b2
        np.multiply(gb, c2, out=a)
        a *= gb
        vb += a  # v = b2*v + ((1-b2)*g)*g
        np.divide(mb, bc1, out=a)
        a *= lr  # lr * m_hat
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps  # sqrt(v_hat) + eps
        a /= b
        pb -= a
    return param
