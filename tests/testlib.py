"""Code only the tests use: the finite-difference gradient oracle that
checks every analytic gradient, the plain softmax loss that the AAM loss
must reduce to, the stored-dataset pair built from per-record tuples and
taken back apart, the language filter of a corpus's records, the
speaker-label shuffle of the chance-level baseline, and the `save` that
drops a recipe's arrays."""

import numpy as np

from fvassoc.diffcore import as_mat, l2_normalize_rows
from fvassoc.embedstore import ModalityKind, record_table
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


def store_pair(entries):
    """The (vectors, records) pair of a stored dataset (embedstore's
    docstring) from per-record (record_id, speaker_id, language, modality,
    vector) tuples, the records in the order of `entries`."""
    ids, speakers, languages, kinds, vecs = list(zip(*entries)) or [()] * 5
    kinds = np.array(kinds, np.int8)
    rows = np.zeros(len(kinds), np.int64)
    vectors = {}
    for kind in ModalityKind:
        at = np.flatnonzero(kinds == kind)
        if at.size:
            vectors[kind] = np.array([vecs[i] for i in at], np.float32)
            rows[at] = np.arange(at.size)
    return vectors, record_table(ids, speakers, languages, kinds, rows)


def store_entries(vectors, records):
    """The per-record tuples of a (vectors, records) pair, in record order:
    store_pair's inverse."""
    return [(r.record_id, r.speaker_id, r.language, r.modality,
             vectors[r.modality][r.row]) for r in records]


def filter_exclude_language(records, excluded):
    """The records whose language is not `excluded`; order preserved."""
    return records[records.language != excluded]


def shuffle_speaker_labels(dataset, rng):
    """Permute the speaker ids of each modality's records (the chance-level
    baseline); the inputs are shared with `dataset`, not copied."""
    tables = []
    for rows, x in dataset.tables():
        rows = rows.copy()
        rows.speaker_id = rows.speaker_id[rng.permutation(len(rows))]
        tables.append((rows, x))
    return PairedDataset(*tables)


def no_save(fold, arrays):
    """A recipe's `save` that keeps none of the arrays it is given."""
