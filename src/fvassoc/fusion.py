"""Trainable fusion heads.

Two architectures:

* MappingHead — dropout + single linear layer projecting a concatenated
  modality embedding into the shared space (default 192 dims). Pairs are
  scored by cosine similarity of the two projected vectors.

* XAttnModel — the alternative joint architecture: both concatenated
  embeddings are right-padded with zeros to a multiple of d_model, reshaped
  row-major into token sequences, passed through two single-head
  cross-attention layers (layer 1: face queries voice; layer 2: voice
  queries the layer-1 output), mean-pooled and projected to one same/
  different logit. Residual connections are on by default, layer norm off.

All backward passes are hand-derived and checked against finite differences
in the test suite.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffcore import apply_dropout, as_mat, dropout_mask
from .errors import ConfigError, FormatError, SchemaError, ShapeError


@dataclass
class MappingHead:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    p_drop: float = 0.9

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @classmethod
    def init(cls, rng, in_dim, out_dim=192, p_drop=0.9):
        w = rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)
        return cls(weight=w, bias=np.zeros(out_dim), p_drop=p_drop)

    def copy(self):
        h = MappingHead(self.weight.copy(), self.bias.copy(), self.p_drop)
        return h


def head_forward(head, x, train=False, rng=None):
    """y = dropout(x) @ W.T + b in train mode; dropout is skipped in eval.

    Returns (y, cache); pass the cache to head_backward.
    """
    x = as_mat(x)
    if x.shape[1] != head.in_dim:
        raise ShapeError(f"head_forward: input {x.shape} vs in_dim {head.in_dim}")
    if train and head.p_drop > 0.0:
        if rng is None:
            raise ConfigError("train-mode forward with p_drop > 0 needs an rng")
        mask = dropout_mask(rng, x.shape, head.p_drop)
        xd = apply_dropout(x, mask)
    else:
        mask = None
        xd = x
    y = xd @ head.weight.T + head.bias
    return y, (xd, mask)


def head_backward(head, cache, grad_y):
    """Gradients of head_forward w.r.t. weight, bias, and input."""
    xd, mask = cache
    grad_y = as_mat(grad_y)
    if grad_y.shape != (xd.shape[0], head.out_dim):
        raise ShapeError(
            f"head_backward: grad {grad_y.shape} vs output "
            f"{(xd.shape[0], head.out_dim)}"
        )
    grad_w = grad_y.T @ xd
    grad_b = grad_y.sum(axis=0)
    grad_x = grad_y @ head.weight
    if mask is not None:
        grad_x = grad_x * mask
    return grad_w, grad_b, grad_x


# ---------------------------------------------------------------------------
# Cross-attention model


def n_tokens(in_dim, d_model):
    return -(-in_dim // d_model)  # ceil


def tokenize(x, d_model):
    """Right-pad each row with zeros to a multiple of d_model and reshape.

    (batch, in_dim) -> (batch, T, d_model), row-major.
    """
    x = as_mat(x)
    t = n_tokens(x.shape[1], d_model)
    padded = np.zeros((x.shape[0], t * d_model))
    padded[:, : x.shape[1]] = x
    return padded.reshape(x.shape[0], t, d_model)


@dataclass
class XAttnModel:
    d_model: int
    voice_in_dim: int
    face_in_dim: int
    # two layers of (Wq, Wk, Wv, Wo), each (d_model, d_model)
    layers: list = field(default_factory=list)
    out_w: np.ndarray = None  # (d_model,)
    out_b: np.ndarray = None  # 0-d
    p_drop: float = 0.0
    residual: bool = True

    @classmethod
    def init(cls, rng, voice_in_dim, face_in_dim, d_model=128, p_drop=0.0,
             residual=True):
        scale = 1.0 / np.sqrt(d_model)
        layers = [
            {
                name: rng.standard_normal((d_model, d_model)) * scale
                for name in ("wq", "wk", "wv", "wo")
            }
            for _ in range(2)
        ]
        return cls(
            d_model=d_model,
            voice_in_dim=voice_in_dim,
            face_in_dim=face_in_dim,
            layers=layers,
            out_w=rng.standard_normal(d_model) * scale,
            out_b=np.zeros(()),
            p_drop=p_drop,
            residual=residual,
        )

    def param_items(self):
        for i, layer in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo"):
                yield f"layer{i}.{name}", layer[name]
        yield "out_w", self.out_w
        yield "out_b", self.out_b


def _attn_forward(xq, xkv, layer, residual):
    """One cross-attention layer: queries from xq, keys/values from xkv."""
    d = xq.shape[-1]
    q = xq @ layer["wq"]
    k = xkv @ layer["wk"]
    v = xkv @ layer["wv"]
    s = (q @ k.swapaxes(1, 2)) / np.sqrt(d)
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    a = e / e.sum(axis=-1, keepdims=True)
    c = a @ v
    o = c @ layer["wo"]
    y = xq + o if residual else o
    return y, (xq, xkv, q, k, v, a, c)


def _attn_backward(grad_y, layer, cache, residual):
    xq, xkv, q, k, v, a, c = cache
    d = xq.shape[-1]
    grad_o = grad_y
    grad_xq = grad_y.copy() if residual else np.zeros_like(xq)
    grad_c = grad_o @ layer["wo"].T
    grad_a = grad_c @ v.swapaxes(1, 2)
    grad_v = a.swapaxes(1, 2) @ grad_c
    # softmax backward along the key axis
    grad_s = a * (grad_a - (grad_a * a).sum(axis=-1, keepdims=True))
    grad_s = grad_s / np.sqrt(d)
    grad_q = grad_s @ k
    grad_k = grad_s.swapaxes(1, 2) @ q

    def weight_grad(x, g):  # sum over batch and tokens of x_t^T g_t
        return x.reshape(-1, d).T @ g.reshape(-1, d)

    g_wq = weight_grad(xq, grad_q)
    g_wk = weight_grad(xkv, grad_k)
    g_wv = weight_grad(xkv, grad_v)
    g_wo = weight_grad(c, grad_o)
    grad_xq = grad_xq + grad_q @ layer["wq"].T
    grad_xkv = grad_k @ layer["wk"].T + grad_v @ layer["wv"].T
    grads = {"wq": g_wq, "wk": g_wk, "wv": g_wv, "wo": g_wo}
    return grad_xq, grad_xkv, grads


def xattn_forward(model, voice_x, face_x, train=False, rng=None):
    """Logits for a batch of (voice, face) pairs, plus a backward cache."""
    voice_x = as_mat(voice_x)
    face_x = as_mat(face_x)
    if voice_x.shape[1] != model.voice_in_dim:
        raise ShapeError(
            f"voice input {voice_x.shape} vs in_dim {model.voice_in_dim}"
        )
    if face_x.shape[1] != model.face_in_dim:
        raise ShapeError(f"face input {face_x.shape} vs in_dim {model.face_in_dim}")
    if voice_x.shape[0] != face_x.shape[0]:
        raise ShapeError("voice and face batches differ in size")
    masks = (None, None)
    if train and model.p_drop > 0.0:
        if rng is None:
            raise ConfigError("train-mode forward with p_drop > 0 needs an rng")
        mv = dropout_mask(rng, voice_x.shape, model.p_drop)
        mf = dropout_mask(rng, face_x.shape, model.p_drop)
        voice_x = apply_dropout(voice_x, mv)
        face_x = apply_dropout(face_x, mf)
        masks = (mv, mf)

    vt = tokenize(voice_x, model.d_model)
    ft = tokenize(face_x, model.d_model)
    # layer 1: face tokens attend to voice tokens
    f1, cache1 = _attn_forward(ft, vt, model.layers[0], model.residual)
    # layer 2: voice tokens attend to the fused face sequence
    v2, cache2 = _attn_forward(vt, f1, model.layers[1], model.residual)
    pooled = v2.mean(axis=1)
    logits = pooled @ model.out_w + model.out_b
    cache = (vt, ft, cache1, cache2, v2, pooled, masks)
    return logits, cache


def xattn_backward(model, cache, grad_logits):
    """Gradients of xattn_forward w.r.t. every parameter and both inputs."""
    vt, ft, cache1, cache2, v2, pooled, masks = cache
    grad_logits = np.asarray(grad_logits, dtype=np.float64).ravel()
    b, tv, d = v2.shape
    g_out_w = pooled.T @ grad_logits
    g_out_b = float(grad_logits.sum())
    grad_pooled = np.outer(grad_logits, model.out_w)
    grad_v2 = np.repeat(grad_pooled[:, None, :], tv, axis=1) / tv
    grad_vt, grad_f1, grads2 = _attn_backward(
        grad_v2, model.layers[1], cache2, model.residual
    )
    grad_ft, grad_vt_kv, grads1 = _attn_backward(
        grad_f1, model.layers[0], cache1, model.residual
    )
    grad_vt = grad_vt + grad_vt_kv
    grad_voice = grad_vt.reshape(b, -1)[:, : model.voice_in_dim]
    grad_face = grad_ft.reshape(b, -1)[:, : model.face_in_dim]
    mv, mf = masks
    if mv is not None:
        grad_voice = grad_voice * mv
        grad_face = grad_face * mf
    param_grads = {
        "layer0": grads1,
        "layer1": grads2,
        "out_w": g_out_w,
        "out_b": g_out_b,
    }
    return param_grads, grad_voice, grad_face


def xattn_loss(logits, labels):
    """Numerically stable binary cross-entropy from logits.

    Returns (mean loss, grad wrt logits). grad = (sigmoid(z) - y) / n.
    """
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ShapeError(f"xattn_loss: logits {z.shape} vs labels {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigError("labels must be binary")
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    return float(loss.mean()), (sig - y) / z.size


# ---------------------------------------------------------------------------
# Checkpoint container (magic FVH1)

CKPT_MAGIC = b"FVH1"
CKPT_VERSION = 1


def save_checkpoint(path, arrays, meta):
    """Write named float64 arrays plus a JSON meta block.

    Layout: magic, version u32 LE, meta_len u32 LE, meta JSON (UTF-8),
    n_arrays u32 LE, then per array: name_len u16 LE, name UTF-8,
    rows u32 LE, cols u32 LE, rows*cols float64 LE.
    """
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.atleast_2d(np.asarray(arrays[name], dtype=np.float64))
            nb = name.encode("utf-8")
            fh.write(struct.pack("<HII", len(nb), arr.shape[0], arr.shape[1]))
            fh.write(nb)
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path):
    data = Path(path).read_bytes()
    if data[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {data[:4]!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated checkpoint header")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    if off + meta_len + 4 > len(data):
        raise FormatError(f"{path}: truncated checkpoint at byte {len(data)}")
    try:
        meta = json.loads(data[off : off + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad checkpoint meta block: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: checkpoint meta is not a JSON object")
    off += meta_len
    (n_arrays,) = struct.unpack_from("<I", data, off)
    off += 4
    arrays = {}
    for _ in range(n_arrays):
        if off + 10 > len(data):
            raise FormatError(f"{path}: truncated checkpoint at byte {off}")
        name_len, rows, cols = struct.unpack_from("<HII", data, off)
        off += 10
        try:
            name = data[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: bad array name at byte {off}") from exc
        off += name_len
        nbytes = rows * cols * 8
        if off + nbytes > len(data):
            raise FormatError(f"{path}: truncated checkpoint at byte {off}")
        arrays[name] = np.frombuffer(
            data[off : off + nbytes], dtype="<f8"
        ).reshape(rows, cols).copy()
        off += nbytes
    return arrays, meta


def head_to_arrays(head, prefix):
    return {f"{prefix}.weight": head.weight, f"{prefix}.bias": head.bias}


def head_from_arrays(arrays, prefix, p_drop, expect_in_dim=None):
    """The `prefix` head of a checkpoint's arrays; SchemaError unless they
    hold a 2-D `prefix.weight` and a `prefix.bias` of its row count."""
    missing = [n for n in (f"{prefix}.weight", f"{prefix}.bias") if n not in arrays]
    if missing:
        raise SchemaError(f"checkpoint has no array {', '.join(missing)}")
    w = arrays[f"{prefix}.weight"]
    b = arrays[f"{prefix}.bias"].ravel()
    if w.ndim != 2 or b.shape != w.shape[:1]:
        raise SchemaError(f"checkpoint {prefix}.weight {w.shape} and "
                          f"{prefix}.bias {b.shape} do not form a head")
    if expect_in_dim is not None and w.shape[1] != expect_in_dim:
        raise SchemaError(
            f"checkpoint {prefix} in_dim {w.shape[1]} != expected {expect_in_dim}"
        )
    return MappingHead(weight=w.copy(), bias=b.copy(), p_drop=p_drop)
