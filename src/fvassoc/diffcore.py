"""Dense float64 numerics with hand-derived gradients.

All training math runs on 2-D row-major float64 numpy arrays. Randomness
flows through `make_rng(seed)`, which is a numpy PCG64 generator: the same
seed yields the same stream on every platform, so training runs and dropout
masks are bit-reproducible within one numpy/BLAS build (other builds may
round matrix products differently).

Includes a central finite-difference oracle used by the test suite to check
every analytic gradient in the project.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateVectorError,
    NumericError,
    ShapeError,
)

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


def check_finite(x, what="result"):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def l2_normalize_rows(x):
    """Divide each row by its Euclidean norm.

    Rows with norm <= EPS_NORM are rejected: there is no meaningful
    direction to normalize onto.
    """
    x = as_mat(x)
    norms = np.linalg.norm(x, axis=1)
    bad = np.nonzero(norms <= EPS_NORM)[0]
    if bad.size:
        raise DegenerateVectorError(f"row {bad[0]} has norm {norms[bad[0]]:g}")
    return x / norms[:, None]


def l2_normalize_rows_backward(x, grad_out):
    """Jacobian-vector product of row normalization.

    Per row: grad_x = (g - (g . u) u) / ||x||  with u = x / ||x||.
    """
    x = as_mat(x)
    g = as_mat(grad_out)
    if g.shape != x.shape:
        raise ShapeError(f"normalize backward: grad {g.shape} vs input {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    bad = np.nonzero(norms[:, 0] <= EPS_NORM)[0]
    if bad.size:
        raise DegenerateVectorError(f"row {bad[0]} has norm {norms[bad[0], 0]:g}")
    u = x / norms
    return (g - (g * u).sum(axis=1, keepdims=True) * u) / norms


def dropout_mask(rng, shape, p_drop):
    """Inverted-dropout mask: 0 with probability p_drop, else 1/(1-p_drop).

    Eval mode never calls this; the eval path is exactly the identity.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ConfigError(f"p_drop must be in [0, 1), got {p_drop}")
    if p_drop == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= p_drop
    return keep.astype(np.float64) / (1.0 - p_drop)


def apply_dropout(x, mask):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mask.shape:
        raise ShapeError(f"dropout: input {x.shape} vs mask {mask.shape}")
    return x * mask


_ADAM_BLOCK = 16384  # elements per block of the in-place Adam update


@dataclass
class AdamState:
    """Per-parameter Adam moments; step counter increments once per update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        shape = np.shape(param)
        return cls(
            m=np.zeros(shape),
            v=np.zeros(shape),
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


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
    check_finite(grad, "adam gradient")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
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


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a matrix."""
    if h <= 0:
        raise ConfigError(f"finite difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        fp = f(xp)
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value near index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def rel_error(a, b):
    """Relative error ||a - b|| / max(||a||, ||b||) between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
