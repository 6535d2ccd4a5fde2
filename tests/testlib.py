"""Code only the tests use: the finite-difference gradient oracle that
checks every analytic gradient, the plain softmax loss that the AAM loss
must reduce to, language filters for records and manifests, and the
speaker-label shuffle of the chance-level baseline."""

import numpy as np

from fvassoc.diffcore import as_mat, l2_normalize_rows
from fvassoc.embedstore import Manifest
from fvassoc.errors import ConfigError, NumericError
from fvassoc.traineval import PairedDataset


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


def filter_records_exclude_language(records, excluded):
    """The records whose language is not `excluded`; order preserved."""
    return [r for r in records if r.language != excluded]


def filter_exclude_language(manifest, excluded):
    """Drop every entry whose language equals `excluded`; order preserved."""
    kept = [e for e in manifest.entries if e.language != excluded]
    return Manifest(dataset_name=manifest.dataset_name, entries=kept)


def shuffle_speaker_labels(dataset, rng):
    """Permute the speaker ids of each modality's records (the chance-level
    baseline); the inputs are shared with `dataset`, not copied."""
    tables = []
    for rows, x in dataset.tables():
        rows = rows.copy()
        rows.speaker_id = rows.speaker_id[rng.permutation(len(rows))]
        tables.append((rows, x))
    return PairedDataset(*tables)
