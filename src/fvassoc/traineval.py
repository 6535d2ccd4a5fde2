"""Experiment engine: trials, EER, early stopping, CV, and scenarios.

A PairedDataset holds the assembled concatenated inputs of both modalities.
Its `matrices()` numbers the speakers with a face and a voice in sorted
order, the one numbering: the shared classifier's rows, the cross-attention
sampler's groups, and the codes of dev-trial sampling (of a held-out subset).
Verification trials pair one face input with one voice input and are labeled
same/different by speaker id. A trial list is one record array of face_id,
voice_id and label (`trial_table`), whether sampled or read from a file, and
scoring reads its columns. Scores are cosine similarities of the two
projected vectors; EER is computed by a threshold sweep with linear
interpolation between the bracketing operating points.

Both architectures, mapping heads and cross-attention, train one dict of
arrays named as in their checkpoints, in one loop (`_early_stopping`) that
applies the only Adam update and one stopping rule: dev EER before the
first step and every `eval_every` steps, the best parameters kept, and a
stop after more than `patience` evaluations without improvement.

Scenario recipes mirror the challenge's heard/unheard model selection:
heard scenarios evaluate the pretrained model (all-data for English,
English-excluded for German), unheard scenarios use language-excluded
corpora with fine-tuning, and every manifest consumed by an unheard run is
audited for excluded-language leakage (hard failure on any hit).
"""

import itertools
import math
import random
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .aamloss import AamConfig, init_classifier, joint_step
from .diffcore import _ADAM_BLOCK, EPS_NORM, AdamState, adam_step, make_rng
from .embedstore import split_folds
from .errors import (
    ConfigError,
    DegenerateVectorError,
    LookupError_,
    MetricError,
    ProtocolViolationError,
    SamplingError,
    SchemaError,
    ShapeError,
    check_fits,
    check_fraction,
    check_min,
)
from .fusion import (
    MappingHead,
    XAttnModel,
    head_forward,
    head_from_arrays,
    xattn_backward,
    xattn_forward,
    xattn_loss,
)


@dataclass
class EvalReport:
    eer: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int


def _check_common(cfg, **minimums):
    """Range checks shared by TrainConfig and XAttnTrainConfig, plus the
    lower bound of each field named in `minimums`."""
    # 0 is allowed: a frozen run keeps its initial weights
    if not (math.isfinite(cfg.lr) and cfg.lr >= 0):
        raise ConfigError(f"lr must be finite and >= 0, got {cfg.lr}")
    check_fraction(p_drop=cfg.p_drop)
    check_min(cfg, seed=0, batch_size=1, max_steps=0, patience=1, eval_every=1,
              **minimums)


@dataclass
class TrainConfig:
    lr: float = 1e-2
    batch_size: int = 32
    max_steps: int = 500
    patience: int = 5
    eval_every: int = 25
    seed: int = 0
    aam: AamConfig = field(default_factory=AamConfig)
    p_drop: float = 0.9
    out_dim: int = 192
    classifier_reinit: bool = True
    n_dev_target: int = 1000
    n_dev_nontarget: int = 1000

    def validate(self):
        _check_common(self, out_dim=1, n_dev_target=1, n_dev_nontarget=1)
        self.aam.validate()


def _codes(column, names):
    """Position of each entry of a str column in the sorted str array
    `names`, or -1 if absent (numpy's set routines would import numpy.ma)."""
    at = np.searchsorted(names, column)
    hit = at < len(names)
    hit[hit] = names[at[hit]] == column[hit]
    return np.where(hit, at, -1)


def _isin(column, names):
    """Mask of the entries of a str column that are among `names`."""
    return _codes(column, np.sort(np.array(list(names), dtype=str))) >= 0


class PairedDataset:
    """Assembled inputs as one (rows, x) table per modality: `rows` is a
    record array of owner_id, speaker_id, language and row, and x[r.row] is
    record r's input. x keeps the dtype it is given (float32 as stored, from
    assembly); the models widen the rows they gather to float64. A subset
    narrows `rows` and shares its parent's x."""

    def __init__(self, faces, voices):
        self.face_inputs, self.face_x = faces
        self.voice_inputs, self.voice_x = voices
        self.face_dim = self.face_x.shape[1]
        self.voice_dim = self.voice_x.shape[1]

    def tables(self):
        return (self.face_inputs, self.face_x), (self.voice_inputs, self.voice_x)

    def speakers(self):
        """Sorted ids of the speakers with both a face and a voice."""
        faces = set(self.face_inputs.speaker_id.tolist())
        return sorted(faces.intersection(self.voice_inputs.speaker_id.tolist()))

    def subset(self, speakers=None, voice_language=None):
        faces, voices = self.face_inputs, self.voice_inputs
        if speakers is not None:
            faces = faces[_isin(faces.speaker_id, speakers)]
            voices = voices[_isin(voices.speaker_id, speakers)]
        if voice_language is not None:
            voices = voices[voices.language == voice_language]
        return PairedDataset((faces, self.face_x), (voices, self.voice_x))

    def matrices(self):
        """(n, at_face, y_face, at_voice, y_voice): the n `speakers()` coded
        0 .. n-1 in sorted order, and their records in table order: x[at]
        are the records' inputs, y their speakers' codes."""
        names = np.array(self.speakers(), dtype=str)
        out = [len(names)]
        for rows, _ in self.tables():
            at = _codes(rows.speaker_id, names)
            out += [rows.row[at >= 0], at[at >= 0]]
        return tuple(out)


# ---------------------------------------------------------------------------
# Trials


def trial_table(face_ids, voice_ids, labels):
    """A trial list: a record array of face_id, voice_id and bool label
    (True = same speaker), one row per trial."""
    columns = [np.asarray(face_ids, str), np.asarray(voice_ids, str),
               np.asarray(labels, bool)]
    return np.rec.fromarrays(columns, names="face_id,voice_id,label")


def _by_speaker(at, spk, n):
    """(at, start, count): the rows `at` grouped by their speaker code in
    `spk` (0 .. n-1), in given order within a group; group s is entries
    start[s] .. start[s] + count[s] - 1 of the returned `at`."""
    count = np.bincount(spk, minlength=n)
    return at[np.argsort(spk, kind="stable")], np.cumsum(count) - count, count


class _HeldOutRecords:
    """Held-out faces and voices, in dataset order, with per-face pair counts.

    Speakers are coded by the held-out subset's `matrices()`, and voice
    positions grouped by speaker (`_by_speaker`): speaker s's voices
    are by_spk[start[s] : start[s] + n_voices[s]]. `same_per_face[f]` is the
    number of voices that share face f's speaker. The pair pools themselves
    are never built. Every held-out speaker needs a face and a voice.
    """

    def __init__(self, dataset, held):
        sub, held = dataset.subset(held), set(held)
        n, _, self.face_code, _, self.voice_code = sub.matrices()
        if n < len(held):  # then some held-out speaker lacks a face or a voice
            lacking = held.difference(sub.speakers())
            raise SamplingError(f"held-out speaker {min(lacking)} lacks a modality")
        self.face_ids, self.voice_ids = sub.face_inputs.owner_id, sub.voice_inputs.owner_id
        self.by_spk, self.start, self.n_voices = _by_speaker(
            np.arange(len(self.voice_ids)), self.voice_code, n)
        self.same_per_face = self.n_voices[self.face_code]
        self.n_same = int(self.same_per_face.sum())
        self.n_cross = len(self.face_ids) * len(self.voice_ids) - self.n_same


def _locate(per_face, idx):
    """(face, k) of each sorted pool index: the k-th pair of that face."""
    end = np.cumsum(per_face)
    face = np.searchsorted(end, idx, side="right")
    return face, idx - (end[face] - per_face[face])


def generate_trials(dataset, held_out_speakers, n_target, n_nontarget, rng):
    """Sample same-speaker and cross-speaker (face, voice) trials.

    Sampling is without replacement over the full pair pool; asking for more
    trials than the pool contains is an error. No speaker outside
    `held_out_speakers` ever appears.

    Each pool is ordered by face (dataset order), then by voice (dataset
    order), and the trials of each pool come out in pool order, target
    trials first. The pools are indexed by arithmetic over per-speaker
    record counts, so time and memory grow with faces + voices + trials,
    not with faces x voices.
    """
    rec = _HeldOutRecords(dataset, held_out_speakers)
    if n_target > rec.n_same:
        raise SamplingError(
            f"requested {n_target} target trials, only {rec.n_same} possible"
        )
    if n_nontarget > rec.n_cross:
        raise SamplingError(
            f"requested {n_nontarget} non-target trials, "
            f"only {rec.n_cross} possible"
        )
    same_idx = rng.choice(rec.n_same, size=n_target, replace=False)
    cross_idx = rng.choice(rec.n_cross, size=n_nontarget, replace=False)
    by_spk, start = rec.by_spk, rec.start

    # Same-speaker: the k-th pair of face f is the k-th voice of its speaker.
    f_same, k = _locate(rec.same_per_face, np.sort(same_idx))
    v_same = by_spk[start[rec.face_code[f_same]] + k]

    # Cross-speaker: if speaker s's voices sit at p_0 < p_1 < ..., the k-th
    # voice not of s is at k + #{i : p_i - i <= k}. `key` holds p_i - i
    # offset by s * (n_v + 1), so one search counts within s's voices only.
    n_v = len(rec.voice_ids)
    f_cross, k = _locate(n_v - rec.same_per_face, np.sort(cross_idx))
    slot_spk = rec.voice_code[by_spk]
    key = slot_spk * (n_v + 1) + by_spk - (np.arange(n_v) - start[slot_spk])
    s = rec.face_code[f_cross]
    v_cross = k + np.searchsorted(key, s * (n_v + 1) + k, side="right") - start[s]

    return trial_table(rec.face_ids[np.concatenate([f_same, f_cross])],
                       rec.voice_ids[np.concatenate([v_same, v_cross])],
                       np.arange(n_target + n_nontarget) < n_target)


def default_dev_trials(dataset, held_out_speakers, cfg, rng):
    """Dev trials capped at the available pair pool."""
    rec = _HeldOutRecords(dataset, held_out_speakers)
    return generate_trials(
        dataset,
        held_out_speakers,
        min(cfg.n_dev_target, rec.n_same),
        min(cfg.n_dev_nontarget, rec.n_cross),
        rng,
    )


# ---------------------------------------------------------------------------
# EER


def _operating_points(tar, non):
    """FAR/FRR at every distinct threshold (accept means score >= t)."""
    tar = np.sort(np.asarray(tar, dtype=np.float64))
    non = np.sort(np.asarray(non, dtype=np.float64))
    # np.unique's own sort and dedupe, which for floats it does not hash; a
    # plain np.unique call would import numpy.ma for its masked-array check
    thresholds = np.sort(np.concatenate([tar, non]))
    thresholds = thresholds[np.concatenate([[True], thresholds[1:] != thresholds[:-1]])]
    thresholds = np.concatenate([thresholds, [np.inf]])
    far = 1.0 - np.searchsorted(non, thresholds, side="left") / len(non)
    frr = np.searchsorted(tar, thresholds, side="left") / len(tar)
    return thresholds, far, frr


def compute_eer(scores, labels):
    """EER of a scored trial set, interpolated at the FAR/FRR crossing.

    Every score must be finite. Ties in the crossing are broken toward the
    lower threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels differ in length")
    if not np.isfinite(scores).all():
        raise MetricError("EER needs finite scores")
    tar = scores[labels]
    non = scores[~labels]
    if len(tar) == 0 or len(non) == 0:
        raise MetricError(
            f"EER needs both classes: {len(tar)} target, {len(non)} non-target"
        )
    thresholds, far, frr = _operating_points(tar, non)
    diff = frr - far
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        eer = far[k]
        thr = thresholds[k]
    else:
        a, b = diff[k - 1], diff[k]
        lam = -a / (b - a)
        eer = far[k - 1] + lam * (far[k] - far[k - 1])
        t0, t1 = thresholds[k - 1], thresholds[k]
        if np.isinf(t1):
            thr = t0
        else:
            thr = t0 + lam * (t1 - t0)
    return EvalReport(
        eer=float(eer),
        threshold_at_eer=float(thr),
        n_target=int(len(tar)),
        n_nontarget=int(len(non)),
    )


# Trials scored per gather-and-score block: scoring memory grows with the
# distinct records plus one block, not with the number of trials. At out_dim
# 192 a block's three float64 temporaries take about 1.2 MB, so they stay in
# a 2 MB per-core L2 cache; blocks of 512 and more scored 200k trials more
# slowly.
_SCORE_BLOCK = 256


def _id_keys(ids, attempt, width):
    """The uint64 key of each id of a str array: the sum of c[j] *
    (its code point j) mod 2^64, over the attempt-th fixed set c of `width`
    odd constants. Zero padding adds nothing: any str width keys alike."""
    rng = random.Random(attempt)  # not numpy's: eval then never imports numpy.random
    c = np.array([rng.getrandbits(64) | 1 for _ in range(width)], np.uint64)
    chars = ids.itemsize // 4
    keys = np.empty(len(ids), np.uint64)
    for i in range(0, len(ids), 16384):  # code points widened a block at a time
        points = np.ascontiguousarray(ids[i : i + 16384]).view(np.uint32)
        keys[i : i + 16384] = points.reshape(-1, chars) @ c[:chars]
    return keys


def _trial_rows(trials, dataset):
    """(face_at, face_row, voice_at, voice_row): face_at holds the table
    position in `face_inputs` of every distinct face of the trials once, in
    sorted id order, and face_at[face_row[i]] is trial i's face; likewise
    for voices. Every id that names no record of its modality is reported,
    sorted. Ids are joined by `_id_keys`, made again with the next constant
    set until no two owners share a key: each distinct trial key is searched
    among the owners' sorted keys, and each trial's candidate owner is then
    confirmed by string equality, so keys never change a result."""
    out, unknown = [], []
    for kind, (rows, _) in zip(("face", "voice"), dataset.tables()):
        sorter = np.argsort(rows.owner_id)
        owners = rows.owner_id[sorter]
        ids = trials[f"{kind}_id"]
        width = max(owners.itemsize, ids.itemsize) // 4
        for attempt in itertools.count():
            keys = _id_keys(owners, attempt, width)
            by_key = np.argsort(keys)  # ranks of the owners, in key order
            keys, by_id = keys[by_key], owners[by_key]
            if not ((keys[1:] == keys[:-1]) & (by_id[1:] != by_id[:-1])).any():
                break
        distinct, inverse = np.unique(_id_keys(ids, attempt, width), return_inverse=True)
        at = np.searchsorted(keys, distinct)[inverse]
        known = at < len(owners)
        pos = by_key[at[known]]
        known[known] = owners[pos] == ids[known]
        unknown += [f"{kind} {i}" for i in sorted(set(ids[~known].tolist()))]
        if unknown:
            continue  # raised below, with the unknown ids of both modalities
        used = np.zeros(len(owners), bool)
        used[pos] = True
        out += [sorter[used], np.cumsum(used)[pos] - 1]
    if unknown:
        raise LookupError_(f"unknown trial record ids: {', '.join(unknown)}")
    return out


# Rows per forward call in scoring: a row's projection or logit then does not
# depend on the other rows of its list, and temporaries hold one chunk.
_CHUNK = 64


def _in_chunks(forward, out, *inputs):
    """Fill and return `out` with forward(*(x[at] for x, at in inputs)), run
    on `_CHUNK` rows at a time, the last chunk padded with its own rows."""
    for start in range(0, len(out), _CHUNK):
        rows = [at[start : start + _CHUNK] for _, at in inputs]
        rows = [x.take(at if len(at) == _CHUNK else np.resize(at, _CHUNK), axis=0)
                for (x, _), at in zip(inputs, rows)]
        out[start : start + _CHUNK] = forward(*rows)[: len(out) - start]
    return out


def _score_inputs(head_face, head_voice, faces, face_row, voices, voice_row):
    """Cosine scores of trials given as rows of distinct inputs: with faces
    = (x, at), trial i's face input is x[at[face_row[i]]]; likewise voices.

    Each distinct input is projected once, `_in_chunks`, and its norm taken
    once, over its 64-row slices (a row's norm depends on that row only); a
    projected vector of norm <= EPS_NORM cannot be scored. The projected
    rows and their norms are gathered (`take`: faster than indexing) and
    scored `_SCORE_BLOCK` trials at a time.
    """
    if head_face.out_dim != head_voice.out_dim:
        raise ShapeError(f"cannot score {head_face.out_dim}-dim face projections "
                         f"against {head_voice.out_dim}-dim voice projections")
    projected = []
    for head, (x, at) in ((head_face, faces), (head_voice, voices)):
        y = _in_chunks(lambda rows: head_forward(head, rows)[0],
                       np.empty((len(at), head.out_dim)), (x, at))
        norm = np.concatenate([np.empty(0)] + [
            np.linalg.norm(y[i : i + _CHUNK], axis=1) for i in range(0, len(at), _CHUNK)])
        if np.any(norm <= EPS_NORM):
            raise DegenerateVectorError("cannot score a zero vector")
        projected += [y, norm]
    yf, norm_f, yv, norm_v = projected
    scores = np.empty(len(face_row))
    for start in range(0, len(face_row), _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        f, v = face_row[block], voice_row[block]
        products = yf.take(f, axis=0)
        products *= yv.take(v, axis=0)
        scores[block] = products.sum(axis=1) / (norm_f[f] * norm_v[v])
    return scores


def score_trials(head_face, head_voice, trials, dataset):
    """Cosine scores of trials in eval mode (no dropout), trial order kept."""
    face_at, face_row, voice_at, voice_row = _trial_rows(trials, dataset)
    return _score_inputs(head_face, head_voice,
                         (dataset.face_x, dataset.face_inputs.row[face_at]), face_row,
                         (dataset.voice_x, dataset.voice_inputs.row[voice_at]), voice_row)


# ---------------------------------------------------------------------------
# Training


def _init_params(dataset, cfg, n_speakers, init_arrays=None):
    """Both heads, new or copied from `init_arrays`, and the classifier."""
    check_fits("out_dim", cfg.out_dim, max(dataset.face_dim, dataset.voice_dim, n_speakers))
    rng = make_rng(cfg.seed ^ 0x5EED)
    params = {}
    for prefix, dim in (("head_face", dataset.face_dim),
                        ("head_voice", dataset.voice_dim)):
        if init_arrays is None:
            head = MappingHead.init(rng, dim, cfg.out_dim)
        else:
            head = head_from_arrays(init_arrays, prefix, 0.0, expect_in_dim=dim)
        params[f"{prefix}.weight"], params[f"{prefix}.bias"] = head.weight, head.bias
    if (init_arrays is not None and not cfg.classifier_reinit
            and init_arrays["clf.weight"].shape[0] == n_speakers):
        params["clf.weight"] = init_arrays["clf.weight"]
    else:
        params["clf.weight"] = init_classifier(rng, n_speakers, cfg.out_dim)
    if init_arrays is not None:  # training must not write into init_arrays
        params = {name: arr.copy() for name, arr in params.items()}
    return params


def _dev_inputs(cfg, train_ds, dev_trials, eval_ds):
    """(face_at, face_row, voice_at, voice_row) of the dev trials, as in
    `_trial_rows` but with face_at and voice_at rows of eval_ds's x, after
    the checks both trainers run first: some trials, of records of
    `eval_ds`, and no training speaker."""
    cfg.validate()
    if len(dev_trials) == 0:
        raise ConfigError("dev trial list is empty")
    face_at, face_row, voice_at, voice_row = _trial_rows(dev_trials, eval_ds)
    faces, voices = eval_ds.face_inputs[face_at], eval_ds.voice_inputs[voice_at]
    train = train_ds.speakers()
    if _isin(faces.speaker_id, train).any() or _isin(voices.speaker_id, train).any():
        raise ConfigError("dev trials must be speaker-disjoint from training")
    return faces.row, face_row, voices.row, voice_row


def _early_stopping(cfg, dev_trials, params, step, score):
    """The loop, update and stopping rule of both trainers; returns (best, log).

    `step()` returns (loss fields, gradients keyed like `params`), and each
    element of `params` then gets one in-place Adam update at rate cfg.lr;
    `score()` scores `dev_trials`. Dev EER is logged as {"step", "dev_eer",
    **losses} at step 0, every `eval_every` steps and at `max_steps`.
    best["arrays"] copies `params` at the first evaluation with the lowest
    EER; training stops once more than `patience` evaluations in a row fail
    to improve on it. Arrays of at most one Adam block become views of one
    buffer, updated in one call: Adam is elementwise, so the bits are unchanged.
    """
    small = [name for name, arr in params.items() if arr.size <= _ADAM_BLOCK]
    packed = np.concatenate([np.empty(0)] + [np.ravel(params[n]) for n in small])
    for name, end in zip(small, np.cumsum([params[name].size for name in small])):
        params[name] = packed[end - params[name].size : end].reshape(params[name].shape)
    opt = {n: AdamState.for_param(params[n], lr=cfg.lr) for n in params if n not in small}
    packed_opt = AdamState.for_param(packed, lr=cfg.lr)
    log, best, no_improve, losses = [], None, 0, {}
    for n in range(cfg.max_steps + 1):
        if n > 0:
            losses, grads = step()  # pop: no gradient outlives its update
            grad = np.concatenate([np.empty(0)] + [np.ravel(grads.pop(n)) for n in small])
            adam_step(packed, grad, packed_opt)
            for name, state in opt.items():
                adam_step(params[name], grads.pop(name), state)
            if n % cfg.eval_every and n != cfg.max_steps:
                continue
        eer = compute_eer(score(), dev_trials.label).eer
        log.append({"step": n, "dev_eer": eer, **losses})
        if best is None or eer < best["dev_eer"]:
            arrays = {name: arr.copy() for name, arr in params.items()}
            best = {"arrays": arrays, "dev_eer": eer, "step": n}
            no_improve = 0
        else:
            no_improve += 1
            if no_improve > cfg.patience:
                break
    return best, log


def train_with_early_stopping(train_ds, dev_trials, eval_ds, cfg,
                              init_arrays=None):
    """Train joint heads + shared classifier, keeping the best-dev checkpoint.

    Dev trials are scored by cosine similarity under the stopping rule of
    `_early_stopping`. Deterministic under cfg.seed.
    """
    face_at, face_row, voice_at, voice_row = _dev_inputs(cfg, train_ds,
                                                         dev_trials, eval_ds)
    n, af, yf, av, yv = train_ds.matrices()
    params = _init_params(train_ds, cfg, n, init_arrays)
    xf, xv = train_ds.face_x, train_ds.voice_x
    rng = make_rng(cfg.seed)

    def step():
        fb = rng.integers(0, len(af), size=min(cfg.batch_size, len(af)))
        vb = rng.integers(0, len(av), size=min(cfg.batch_size, len(av)))
        f_loss, v_loss, grads = joint_step(params, cfg.p_drop, xf[af[fb]], yf[fb],
                                           xv[av[vb]], yv[vb], cfg.aam, rng)
        return {"face_loss": f_loss, "voice_loss": v_loss}, grads

    def score():
        heads = [head_from_arrays(params, p, 0.0) for p in ("head_face", "head_voice")]
        return _score_inputs(*heads, (eval_ds.face_x, face_at), face_row,
                             (eval_ds.voice_x, voice_at), voice_row)

    return _early_stopping(cfg, dev_trials, params, step, score)


# ---------------------------------------------------------------------------
# Recipe steps: every command holds out speakers, draws dev trials and scores
# checkpoints through these


def held_out(dataset, held, cfg, rng):
    """(training subset without the `held` speakers, dev trials of `held`)."""
    train_ds = dataset.subset(set(dataset.speakers()).difference(held))
    return train_ds, default_dev_trials(dataset, held, cfg, rng)


def dev_split(dataset, dev_fraction, cfg):
    """The seeded speaker-level dev split of `dataset` under cfg.seed:
    (training subset, dev trials, sorted dev speakers)."""
    check_fraction(dev_fraction=dev_fraction)
    speakers = dataset.speakers()
    # at least 2 dev speakers, else no cross-speaker dev trials exist
    n_dev = max(2, int(round(dev_fraction * len(speakers))))
    if n_dev >= len(speakers):
        raise ConfigError("dev split would consume every speaker")
    order = make_rng(cfg.seed + 0xD5).permutation(len(speakers))
    dev = sorted(speakers[i] for i in order[:n_dev])
    return (*held_out(dataset, dev, cfg, make_rng(cfg.seed + 0xDE)), dev)


def score_arrays(arrays, trials, dataset):
    """(scores, EvalReport) of a mapping-heads checkpoint's arrays on
    `trials`, scored in eval mode."""
    head_f = head_from_arrays(arrays, "head_face", p_drop=0.0)
    head_v = head_from_arrays(arrays, "head_voice", p_drop=0.0)
    scores = score_trials(head_f, head_v, trials, dataset)
    return scores, compute_eer(scores, trials.label)


def check_n_folds(n_folds, n_speakers=None):
    """ConfigError unless n_folds >= 2 and, given `n_speakers`, every fold
    holds 2 speakers or more (a one-speaker fold has no non-target trial)."""
    if n_folds < 2:  # one fold would hold out every speaker
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    if n_speakers is not None and n_folds > n_speakers // 2:
        raise ConfigError(f"n_folds {n_folds} leaves a fold of fewer than 2 "
                          f"speakers: {n_speakers} speakers allow at most "
                          f"{n_speakers // 2} folds")


def cross_validate(dataset, cfg, save, n_folds=7, init_arrays=None):
    """Speaker-disjoint k-fold CV; per-fold dev trials come from the held-out
    fold, and each fold's best arrays go to save(fold, arrays) as it ends.
    When `init_arrays` is given each fold is initialized from it and a
    frozen-initialization baseline EER on the same trials is reported too.
    """
    cfg.validate()
    speakers = dataset.speakers()
    check_n_folds(n_folds, len(speakers))
    fold_reports = []
    for f, held in enumerate(split_folds(speakers, n_folds, make_rng(cfg.seed))):
        fold_seed = cfg.seed * 1009 + f
        train_ds, trials = held_out(dataset, held, cfg,
                                    make_rng(fold_seed ^ 0x7 * 0x1001))
        best, _ = train_with_early_stopping(
            train_ds, trials, dataset, replace(cfg, seed=fold_seed), init_arrays
        )
        save(f, best.pop("arrays"))
        entry = {
            "fold": f,
            "held_out_speakers": held,
            "eer": best["dev_eer"],
            "best_step": best["step"],
        }
        if init_arrays is not None:
            _, frozen = score_arrays(init_arrays, trials, dataset)
            entry["frozen_init_eer"] = frozen.eer
        fold_reports.append(entry)
    eers = np.array([r["eer"] for r in fold_reports])
    return {
        "folds": fold_reports,
        "mean_eer": float(eers.mean()),
        "std_eer": float(eers.std()),
    }


def pretrain(dataset, cfg, dev_fraction=0.05):
    """Train on a corpus with a speaker-level dev split for early stopping."""
    train_ds, trials, dev_spk = dev_split(dataset, dev_fraction, cfg)
    best, log = train_with_early_stopping(train_ds, trials, dataset, cfg)
    return best, log, dev_spk


def pretrain_then_finetune(pre_ds, ft_ds, cfg_pre, cfg_ft, save, n_folds=7,
                           dev_fraction=0.05):
    """Stage 1: pretrain with a 5% speaker dev split. Stage 2: CV fine-tune
    initialized from the stage-1 heads, reporting frozen-head baselines so
    the pre/post fine-tune comparison is explicit. The stage-1 arrays go to
    save(None, arrays) before stage 2 starts, and each fold's as in
    `cross_validate`."""
    if pre_ds.face_dim != ft_ds.face_dim or pre_ds.voice_dim != ft_ds.voice_dim:
        raise SchemaError(
            "pretrain and finetune corpora have different embedding dims"
        )
    check_n_folds(n_folds, len(ft_ds.speakers()))
    best, _, dev_spk = pretrain(pre_ds, cfg_pre, dev_fraction)
    save(None, best["arrays"])
    cv = cross_validate(ft_ds, cfg_ft, save, n_folds=n_folds,
                        init_arrays=best["arrays"])
    frozen = [r["frozen_init_eer"] for r in cv["folds"]]
    return {
        "pretrain": {
            "dev_eer": best["dev_eer"],
            "best_step": best["step"],
            "dev_speakers": dev_spk,
        },
        "finetune": cv,
        "frozen_mean_eer": float(np.mean(frozen)),
    }


# ---------------------------------------------------------------------------
# Scenarios

# Model selection per scenario: the all-data model serves english-heard, the
# English-excluded model serves german-heard, and each unheard scenario
# pretrains and fine-tunes on corpora that exclude its test language.
SCENARIOS = {
    "english_heard": {"test_language": "en", "unheard": False},
    "german_heard": {"test_language": "de", "unheard": False},
    "english_unheard": {"test_language": "en", "unheard": True},
    "german_unheard": {"test_language": "de", "unheard": True},
}

# The unheard fine-tune holds out the first of this many speaker folds for
# early stopping; its corpus needs one speaker more, so that fold has two.
_FT_DEV_FOLDS = 5

# Reference challenge results (percent EER), recorded as documentation only;
# they require the real challenge data and are never asserted.
REFERENCE_EER_PERCENT = {
    "overall": 23.99,
    "english_heard": 30.6,
    "german_unheard": 17.4,
    "english_unheard": 30.1,
    "german_heard": 17.9,
}


def audit_manifest(records, excluded_language):
    """Record ids of the excluded language among a training corpus's records."""
    return records.record_id[records.language == excluded_language].tolist()


def check_scenarios(entries, n_trials_target, n_trials_nontarget, dev_fraction):
    """The checks of `run_scenarios` that read no corpus; `entries` maps each
    scenario to its {"pretrain": ..., "finetune": ...}, corpora or paths."""
    if min(n_trials_target, n_trials_nontarget) < 1:
        raise ConfigError("n_trials_target and n_trials_nontarget must be >= 1")
    for name, recipe in SCENARIOS.items():
        if recipe["unheard"] and entries[name].get("finetune") is None:
            raise ConfigError(f"{name}: fine-tune corpus required")
    check_fraction(dev_fraction=dev_fraction)


def run_scenarios(corpora, test_ds, cfg, n_trials_target=200,
                  n_trials_nontarget=200, dev_fraction=0.1):
    """Execute all four scenario recipes and assemble a results table.

    `corpora` maps scenario name to {"pretrain": (records, dataset),
    "finetune": (records, dataset) or None}, `records` as read_store
    returns them; only unheard scenarios read "finetune". Before any
    scenario trains, each unheard one is checked for a fine-tune corpus,
    for records of its test language in either corpus (a hard protocol
    violation) and for enough fine-tune speakers to give its dev fold two.
    """
    cfg.validate()
    check_scenarios(corpora, n_trials_target, n_trials_nontarget, dev_fraction)
    for name, recipe in SCENARIOS.items():
        if not recipe["unheard"]:
            continue
        entry, language = corpora[name], recipe["test_language"]
        for stage in ("pretrain", "finetune"):
            bad = audit_manifest(entry[stage][0], language)
            if bad:
                raise ProtocolViolationError(
                    f"{name}: {len(bad)} {language!r} records in its {stage} "
                    f"corpus (first: {bad[0]})"
                )
        n_speakers = len(entry["finetune"][1].speakers())
        if n_speakers <= _FT_DEV_FOLDS:
            raise SamplingError(
                f"{name}: fine-tune corpus has {n_speakers} speakers; its dev "
                f"fold needs 2, so at least {_FT_DEV_FOLDS + 1}"
            )
    trial_cfg = replace(cfg, n_dev_target=n_trials_target,
                        n_dev_nontarget=n_trials_nontarget)
    results = {}
    for name, recipe in SCENARIOS.items():
        best, _, _ = pretrain(corpora[name]["pretrain"][1], cfg, dev_fraction)
        arrays = best["arrays"]
        if recipe["unheard"]:
            _, ft_ds = corpora[name]["finetune"]
            dev = split_folds(ft_ds.speakers(), _FT_DEV_FOLDS, make_rng(cfg.seed))[0]
            train_ds, trials = held_out(ft_ds, dev, cfg, make_rng(cfg.seed + 1))
            ft_best, _ = train_with_early_stopping(train_ds, trials, ft_ds, cfg, arrays)
            arrays = ft_best["arrays"]
        # evaluate on test trials restricted to the scenario's voice language
        scen_test = test_ds.subset(voice_language=recipe["test_language"])
        trials = default_dev_trials(scen_test, scen_test.speakers(), trial_cfg,
                                    make_rng(cfg.seed + 0xE7))
        _, report = score_arrays(arrays, trials, scen_test)
        results[name] = {
            **asdict(report),
            "finetuned": recipe["unheard"],
            "test_language": recipe["test_language"],
        }
    mean_eer = float(np.mean([r["eer"] for r in results.values()]))
    return {
        "scenarios": results,
        "overall_mean_eer": mean_eer,
        "reference_eer_percent": dict(REFERENCE_EER_PERCENT),
    }


# ---------------------------------------------------------------------------
# Cross-attention training


@dataclass
class XAttnTrainConfig:
    d_model: int = 16
    lr: float = 1e-3
    batch_size: int = 32
    max_steps: int = 500
    patience: int = 5
    eval_every: int = 25
    seed: int = 0
    p_drop: float = 0.0
    residual: bool = True

    def validate(self):
        _check_common(self, d_model=1)
        check_fits("d_model", self.d_model, self.d_model)  # each attention weight
        check_fits("batch_size and d_model", self.batch_size, self.d_model)


def _sample_pairs(xf, faces, xv, voices, batch_size, rng):
    """Half same-speaker, half cross-speaker (face, voice) training pairs.

    `faces` and `voices` are `_by_speaker` groups of rows of `xf` and `xv`
    over the same n speakers, each with at least one record; only the
    drawn rows are gathered. Every pair draws its face's speaker s1
    uniformly; even positions take the voice from s1 and odd ones from a
    speaker drawn uniformly from the other n - 1 (from s1 when n is 1).
    Records are drawn uniformly within their speaker. Labels are 1.0 for
    same-speaker pairs.
    """
    f_at, f_start, f_count = faces
    v_at, v_start, v_count = voices
    n = len(f_count)
    s1 = rng.integers(0, n, size=batch_size)
    s2 = s1.copy()
    if n > 1:
        s2[1::2] = (s1[1::2] + rng.integers(1, n, size=batch_size // 2)) % n
    f = f_start[s1] + rng.integers(0, f_count[s1])
    v = v_start[s2] + rng.integers(0, v_count[s2])
    return xf[f_at[f]], xv[v_at[v]], (s1 == s2).astype(np.float64)


def train_xattn(train_ds, dev_trials, eval_ds, cfg):
    """Train the cross-attention pair classifier with early stopping.

    Dev trials are scored by the raw logit, under the same checks and
    stopping rule (`_early_stopping`) as train_with_early_stopping.
    """
    face_at, face_row, voice_at, voice_row = _dev_inputs(cfg, train_ds,
                                                         dev_trials, eval_ds)
    pairs = (eval_ds.voice_x, voice_at[voice_row]), (eval_ds.face_x, face_at[face_row])
    rng = make_rng(cfg.seed)
    model = XAttnModel.init(
        make_rng(cfg.seed ^ 0x5EED),
        voice_in_dim=train_ds.voice_dim,
        face_in_dim=train_ds.face_dim,
        d_model=cfg.d_model,
        p_drop=cfg.p_drop,
        residual=cfg.residual,
    )
    n, af, yf, av, yv = train_ds.matrices()
    faces, voices = _by_speaker(af, yf, n), _by_speaker(av, yv, n)

    def step():
        xf, xv, y = _sample_pairs(train_ds.face_x, faces, train_ds.voice_x, voices,
                                  cfg.batch_size, rng)
        logits, cache = xattn_forward(model, xv, xf, train=True, rng=rng)
        loss, g_logits = xattn_loss(logits, y)
        return {"loss": loss}, xattn_backward(model, cache, g_logits)[0]

    def score():
        return _in_chunks(lambda v, f: xattn_forward(model, v, f)[0],
                          np.empty(len(face_row)), *pairs)

    best, log = _early_stopping(cfg, dev_trials, model.params, step, score)
    return model, best, log
