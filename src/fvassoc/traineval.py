"""Experiment engine: trials, EER, early stopping, CV, and scenarios.

A PairedDataset holds the assembled concatenated inputs of both modalities.
Verification trials pair one face input with one voice input and are labeled
same/different by speaker id. Scores are cosine similarities of the two
projected vectors; EER is computed by a threshold sweep with linear
interpolation between the bracketing operating points.

Both architectures, mapping heads and cross-attention, train in one loop
under one stopping rule (`_early_stopping`): dev EER before the first step
and every `eval_every` steps, the best parameters kept, and a stop after
more than `patience` evaluations without improvement.

Scenario recipes mirror the challenge's heard/unheard model selection:
heard scenarios evaluate the pretrained model (all-data for English,
English-excluded for German), unheard scenarios use language-excluded
corpora with fine-tuning, and every manifest consumed by an unheard run is
audited for excluded-language leakage (hard failure on any hit).
"""

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .aamloss import AamConfig, JointParams, init_classifier, joint_step
from .diffcore import EPS_NORM, AdamState, adam_step, make_rng
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
class Trial:
    face_id: str
    voice_id: str
    label: bool  # True = same speaker


@dataclass
class EvalReport:
    eer: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int

    def to_dict(self):
        return asdict(self)


def _check_common(cfg, **minimums):
    """Range checks shared by TrainConfig and XAttnTrainConfig, plus the
    lower bound of each field named in `minimums`."""
    # 0 is allowed: a frozen run keeps its initial weights
    if not (math.isfinite(cfg.lr) and cfg.lr >= 0):
        raise ConfigError(f"lr must be finite and >= 0, got {cfg.lr}")
    if not 0.0 <= cfg.p_drop < 1.0:
        raise ConfigError(f"p_drop must be in [0, 1), got {cfg.p_drop}")
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


class PairedDataset:
    """Assembled face and voice inputs with id/speaker lookups."""

    def __init__(self, face_inputs, voice_inputs):
        self.face_inputs = list(face_inputs)
        self.voice_inputs = list(voice_inputs)
        self.face_by_id = {c.owner_id: c for c in self.face_inputs}
        self.voice_by_id = {c.owner_id: c for c in self.voice_inputs}
        self.face_dim = len(self.face_inputs[0].vector) if self.face_inputs else 0
        self.voice_dim = len(self.voice_inputs[0].vector) if self.voice_inputs else 0

    def speakers(self):
        face = {c.speaker_id for c in self.face_inputs}
        voice = {c.speaker_id for c in self.voice_inputs}
        return sorted(face & voice)

    def subset(self, speakers=None, voice_language=None):
        spk = set(speakers) if speakers is not None else None
        faces = [
            c for c in self.face_inputs if spk is None or c.speaker_id in spk
        ]
        voices = [
            c
            for c in self.voice_inputs
            if (spk is None or c.speaker_id in spk)
            and (voice_language is None or c.language == voice_language)
        ]
        return PairedDataset(faces, voices)

    def matrices(self, speaker_index):
        """(X_face, y_face, X_voice, y_voice) restricted to mapped speakers."""
        faces = [c for c in self.face_inputs if c.speaker_id in speaker_index]
        voices = [c for c in self.voice_inputs if c.speaker_id in speaker_index]
        xf = np.stack([c.vector for c in faces])
        yf = np.array([speaker_index[c.speaker_id] for c in faces])
        xv = np.stack([c.vector for c in voices])
        yv = np.array([speaker_index[c.speaker_id] for c in voices])
        return xf, yf, xv, yv


def shuffle_speaker_labels(dataset, rng):
    """Permute speaker ids across inputs of each modality (chance baseline)."""
    import copy

    out_faces = [copy.copy(c) for c in dataset.face_inputs]
    out_voices = [copy.copy(c) for c in dataset.voice_inputs]
    for inputs in (out_faces, out_voices):
        labels = [c.speaker_id for c in inputs]
        perm = rng.permutation(len(labels))
        for c, j in zip(inputs, perm):
            c.speaker_id = labels[j]
    return PairedDataset(out_faces, out_voices)


# ---------------------------------------------------------------------------
# Trials


class _HeldOutRecords:
    """Held-out faces and voices with per-face pair counts.

    Speakers get int codes; `same_per_face[f]` is the number of voices that
    share face f's speaker. The pair pools themselves are never built.
    """

    def __init__(self, dataset, held):
        self.faces = [c for c in dataset.face_inputs if c.speaker_id in held]
        self.voices = [c for c in dataset.voice_inputs if c.speaker_id in held]
        code = {}

        def codes(inputs):
            return np.array(
                [code.setdefault(c.speaker_id, len(code)) for c in inputs],
                dtype=np.int64,
            )

        self.face_code = codes(self.faces)
        self.voice_code = codes(self.voices)
        self.n_voices = np.bincount(self.voice_code, minlength=len(code))
        self.same_per_face = self.n_voices[self.face_code]
        self.n_same = int(self.same_per_face.sum())
        self.n_cross = len(self.faces) * len(self.voices) - self.n_same


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
    held = set(held_out_speakers)
    rec = _HeldOutRecords(dataset, held)
    spk_with_face = {c.speaker_id for c in rec.faces}
    spk_with_voice = {c.speaker_id for c in rec.voices}
    for s in held:
        if s not in spk_with_face or s not in spk_with_voice:
            raise SamplingError(f"held-out speaker {s} lacks a modality")

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

    # Voices grouped by speaker, each group in voice order; group s occupies
    # slots start[s] .. start[s] + n_voices[s] - 1 of `by_spk`.
    by_spk = np.argsort(rec.voice_code, kind="stable")
    start = np.cumsum(rec.n_voices) - rec.n_voices

    # Same-speaker: the k-th pair of face f is the k-th voice of its speaker.
    f_same, k = _locate(rec.same_per_face, np.sort(same_idx))
    v_same = by_spk[start[rec.face_code[f_same]] + k]

    # Cross-speaker: if speaker s's voices sit at p_0 < p_1 < ..., the k-th
    # voice not of s is at k + #{i : p_i - i <= k}. `key` holds p_i - i
    # offset by s * (n_v + 1), so one search counts within s's voices only.
    n_v = len(rec.voices)
    f_cross, k = _locate(n_v - rec.same_per_face, np.sort(cross_idx))
    slot_spk = rec.voice_code[by_spk]
    key = slot_spk * (n_v + 1) + by_spk - (np.arange(n_v) - start[slot_spk])
    s = rec.face_code[f_cross]
    v_cross = k + np.searchsorted(key, s * (n_v + 1) + k, side="right") - start[s]

    def trials(f_idx, v_idx, label):
        return [
            Trial(rec.faces[f].owner_id, rec.voices[v].owner_id, label)
            for f, v in zip(f_idx.tolist(), v_idx.tolist())
        ]

    return trials(f_same, v_same, True) + trials(f_cross, v_cross, False)


def default_dev_trials(dataset, held_out_speakers, cfg, rng):
    """Dev trials capped at the available pair pool."""
    rec = _HeldOutRecords(dataset, set(held_out_speakers))
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
    thresholds = np.unique(np.concatenate([tar, non]))
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
# distinct records plus one block, not with the number of trials.
_SCORE_BLOCK = 16384


def _first_seen_rows(ids):
    """Distinct ids in first-seen order, and each id's row among them."""
    row_of = {}
    rows = np.array([row_of.setdefault(i, len(row_of)) for i in ids],
                    dtype=np.int64)
    return list(row_of), rows


def _trial_inputs(trials, dataset):
    """Distinct input rows of the trials and each trial's row in them.

    Returns (xf, face_row, xv, voice_row): xf stacks every distinct face of
    the trials once, in first-seen order, and xf[face_row[i]] is trial i's
    face input; likewise for voices. A face id must name a face record and
    a voice id a voice record; every unknown id is reported, sorted.
    """
    face_ids, face_row = _first_seen_rows([t.face_id for t in trials])
    voice_ids, voice_row = _first_seen_rows([t.voice_id for t in trials])
    unknown = sorted(f"face {i}" for i in face_ids if i not in dataset.face_by_id)
    unknown += sorted(
        f"voice {i}" for i in voice_ids if i not in dataset.voice_by_id
    )
    if unknown:
        raise LookupError_(f"unknown trial record ids: {', '.join(unknown)}")

    def stack(ids, by_id, dim):
        if not ids:
            return np.empty((0, dim))
        return np.stack([by_id[rid].vector for rid in ids])

    xf = stack(face_ids, dataset.face_by_id, dataset.face_dim)
    xv = stack(voice_ids, dataset.voice_by_id, dataset.voice_dim)
    return xf, face_row, xv, voice_row


def _score_inputs(head_face, head_voice, xf, face_row, xv, voice_row):
    """Cosine scores of trials given as rows of distinct inputs.

    Each distinct input is projected once and its norm taken once; a
    projected vector of norm <= EPS_NORM cannot be scored. The projected
    rows and their norms are gathered and scored `_SCORE_BLOCK` trials at a
    time.
    """
    yf, _ = head_forward(head_face, xf, train=False)
    yv, _ = head_forward(head_voice, xv, train=False)
    if yf.shape[1] != yv.shape[1]:
        raise ShapeError(f"cannot score {yf.shape[1]}-dim face projections "
                         f"against {yv.shape[1]}-dim voice projections")
    norm_f = np.linalg.norm(yf, axis=1)
    norm_v = np.linalg.norm(yv, axis=1)
    if np.any(norm_f <= EPS_NORM) or np.any(norm_v <= EPS_NORM):
        raise DegenerateVectorError("cannot score a zero vector")
    scores = np.empty(len(face_row))
    for start in range(0, len(face_row), _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        f, v = face_row[block], voice_row[block]
        scores[block] = (yf[f] * yv[v]).sum(axis=1) / (norm_f[f] * norm_v[v])
    return scores


def score_trials(head_face, head_voice, trials, dataset):
    """Cosine scores of trials in eval mode (no dropout), trial order kept."""
    return _score_inputs(head_face, head_voice, *_trial_inputs(trials, dataset))


# ---------------------------------------------------------------------------
# Training


def _init_params(dataset, cfg, init_arrays=None, n_speakers=None):
    rng = make_rng(cfg.seed ^ 0x5EED)
    if init_arrays is not None:
        head_f = head_from_arrays(
            init_arrays, "head_face", cfg.p_drop, expect_in_dim=dataset.face_dim
        )
        head_v = head_from_arrays(
            init_arrays, "head_voice", cfg.p_drop, expect_in_dim=dataset.voice_dim
        )
        if not cfg.classifier_reinit and (
            n_speakers is None
            or init_arrays["clf.weight"].shape[0] == n_speakers
        ):
            clf = init_arrays["clf.weight"].copy()
        else:
            clf = init_classifier(rng, n_speakers, cfg.out_dim)
    else:
        head_f = MappingHead.init(rng, dataset.face_dim, cfg.out_dim, cfg.p_drop)
        head_v = MappingHead.init(rng, dataset.voice_dim, cfg.out_dim, cfg.p_drop)
        clf = init_classifier(rng, n_speakers, cfg.out_dim)
    return JointParams.create(head_f, head_v, clf, cfg.lr)


def _dev_inputs(cfg, train_ds, dev_trials, eval_ds):
    """`_trial_inputs` of the dev trials, after the checks both trainers run
    first: some trials, of records of `eval_ds`, and no training speaker."""
    cfg.validate()
    if not dev_trials:
        raise ConfigError("dev trial list is empty")
    inputs = _trial_inputs(dev_trials, eval_ds)
    dev_spk = {eval_ds.face_by_id[t.face_id].speaker_id for t in dev_trials}
    dev_spk |= {eval_ds.voice_by_id[t.voice_id].speaker_id for t in dev_trials}
    if dev_spk & set(train_ds.speakers()):
        raise ConfigError("dev trials must be speaker-disjoint from training")
    return inputs


def _early_stopping(cfg, dev_trials, step, score, named_params):
    """The loop and stopping rule of both trainers; returns (best, log).

    `step()` runs one training step and returns its loss fields; `score()`
    scores `dev_trials`. Dev EER is logged as {"step", "dev_eer", **losses}
    at step 0, every `eval_every` steps and at `max_steps`. best["arrays"]
    copies `named_params()` at the first evaluation with the lowest EER;
    training stops once more than `patience` evaluations in a row fail to
    improve on it.
    """
    labels = [t.label for t in dev_trials]
    log, best, no_improve, losses = [], None, 0, {}
    for n in range(cfg.max_steps + 1):
        if n > 0:
            losses = step()
            if n % cfg.eval_every and n != cfg.max_steps:
                continue
        eer = compute_eer(score(), labels).eer
        log.append({"step": n, "dev_eer": eer, **losses})
        if best is None or eer < best["dev_eer"]:
            arrays = {name: arr.copy() for name, arr in named_params()}
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
    dev_inputs = _dev_inputs(cfg, train_ds, dev_trials, eval_ds)
    speakers = train_ds.speakers()
    speaker_index = {s: i for i, s in enumerate(speakers)}
    params = _init_params(
        train_ds, cfg, init_arrays, n_speakers=len(speakers)
    )
    xf, yf, xv, yv = train_ds.matrices(speaker_index)
    rng = make_rng(cfg.seed)

    def step():
        fb = rng.integers(0, len(xf), size=min(cfg.batch_size, len(xf)))
        vb = rng.integers(0, len(xv), size=min(cfg.batch_size, len(xv)))
        f_loss, v_loss, _ = joint_step(
            params, xf[fb], yf[fb], xv[vb], yv[vb], cfg.aam, rng
        )
        return {"face_loss": f_loss, "voice_loss": v_loss}

    def score():
        return _score_inputs(params.head_face, params.head_voice, *dev_inputs)

    return _early_stopping(cfg, dev_trials, step, score, params.named_params)


def cross_validate(dataset, cfg, n_folds=7, init_arrays=None):
    """Speaker-disjoint k-fold CV; per-fold dev trials come from the held-out
    fold. When `init_arrays` is given each fold is initialized from it and a
    frozen-initialization baseline EER on the same trials is reported too.
    """
    cfg.validate()
    if n_folds < 2:  # one fold would hold out every speaker
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    speakers = dataset.speakers()
    plan = split_folds(speakers, n_folds, make_rng(cfg.seed))
    fold_reports = []
    for f in range(n_folds):
        held = plan.fold_speakers(f)
        train_spk = [s for s in speakers if s not in set(held)]
        train_ds = dataset.subset(train_spk)
        fold_seed = cfg.seed * 1009 + f
        trial_rng = make_rng(fold_seed ^ 0x7 * 0x1001)
        trials = default_dev_trials(dataset, held, cfg, trial_rng)
        fold_cfg = _with_seed(cfg, fold_seed)
        best, log = train_with_early_stopping(
            train_ds, trials, dataset, fold_cfg, init_arrays=init_arrays
        )
        entry = {
            "fold": f,
            "held_out_speakers": held,
            "eer": best["dev_eer"],
            "best_step": best["step"],
            "arrays": best["arrays"],
        }
        if init_arrays is not None:
            head_f = head_from_arrays(init_arrays, "head_face", cfg.p_drop)
            head_v = head_from_arrays(init_arrays, "head_voice", cfg.p_drop)
            scores = score_trials(head_f, head_v, trials, dataset)
            frozen = compute_eer(scores, [t.label for t in trials])
            entry["frozen_init_eer"] = frozen.eer
        fold_reports.append(entry)
    eers = np.array([r["eer"] for r in fold_reports])
    return {
        "folds": fold_reports,
        "mean_eer": float(eers.mean()),
        "std_eer": float(eers.std()),
    }


def _with_seed(cfg, seed):
    import copy

    out = copy.deepcopy(cfg)
    out.seed = seed
    return out


def _dev_speaker_split(speakers, fraction, rng):
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"dev_fraction must be in [0, 1), got {fraction}")
    speakers = list(speakers)
    # at least 2 dev speakers, else no cross-speaker dev trials exist
    n_dev = max(2, int(round(fraction * len(speakers))))
    if n_dev >= len(speakers):
        raise ConfigError("dev split would consume every speaker")
    order = rng.permutation(len(speakers))
    dev = sorted(speakers[i] for i in order[:n_dev])
    train = sorted(speakers[i] for i in order[n_dev:])
    return train, dev


def pretrain(dataset, cfg, dev_fraction=0.05, init_arrays=None):
    """Train on a corpus with a speaker-level dev split for early stopping."""
    rng = make_rng(cfg.seed + 0xD5)
    train_spk, dev_spk = _dev_speaker_split(dataset.speakers(), dev_fraction, rng)
    trials = default_dev_trials(dataset, dev_spk, cfg, make_rng(cfg.seed + 0xDE))
    train_ds = dataset.subset(train_spk)
    best, log = train_with_early_stopping(
        train_ds, trials, dataset, cfg, init_arrays=init_arrays
    )
    return best, log, dev_spk


def pretrain_then_finetune(pre_ds, ft_ds, cfg_pre, cfg_ft, n_folds=7,
                           dev_fraction=0.05):
    """Stage 1: pretrain with a 5% speaker dev split. Stage 2: CV fine-tune
    initialized from the stage-1 heads, reporting frozen-head baselines so
    the pre/post fine-tune comparison is explicit."""
    if pre_ds.face_dim != ft_ds.face_dim or pre_ds.voice_dim != ft_ds.voice_dim:
        raise SchemaError(
            "pretrain and finetune corpora have different embedding dims"
        )
    best, log, dev_spk = pretrain(pre_ds, cfg_pre, dev_fraction)
    cv = cross_validate(ft_ds, cfg_ft, n_folds=n_folds, init_arrays=best["arrays"])
    frozen = [r["frozen_init_eer"] for r in cv["folds"]]
    return {
        "pretrain": {
            "dev_eer": best["dev_eer"],
            "best_step": best["step"],
            "dev_speakers": dev_spk,
            "arrays": best["arrays"],
        },
        "finetune": cv,
        "frozen_mean_eer": float(np.mean(frozen)),
    }


# ---------------------------------------------------------------------------
# Scenarios

# Model selection per scenario: the all-data model serves english-heard, the
# English-excluded model serves german-heard, and both unheard scenarios use
# the matching language-excluded corpora with fine-tuning.
SCENARIOS = {
    "english_heard": {
        "test_language": "en",
        "excluded_language": None,
        "finetune": False,
        "unheard": False,
    },
    "german_heard": {
        "test_language": "de",
        "excluded_language": "en",
        "finetune": False,
        "unheard": False,
    },
    "english_unheard": {
        "test_language": "en",
        "excluded_language": "en",
        "finetune": True,
        "unheard": True,
    },
    "german_unheard": {
        "test_language": "de",
        "excluded_language": "de",
        "finetune": True,
        "unheard": True,
    },
}

# Reference challenge results (percent EER), recorded as documentation only;
# they require the real challenge data and are never asserted.
REFERENCE_EER_PERCENT = {
    "overall": 23.99,
    "english_heard": 30.6,
    "german_unheard": 17.4,
    "english_unheard": 30.1,
    "german_heard": 17.9,
}


def audit_manifest(manifest, excluded_language):
    """Record ids of the excluded language present in a training manifest."""
    return [e.record_id for e in manifest.entries if e.language == excluded_language]


def run_scenarios(corpora, test_ds, cfg, n_trials_target=200,
                  n_trials_nontarget=200, dev_fraction=0.1, ft_dev_folds=5):
    """Execute all four scenario recipes and assemble a results table.

    `corpora` maps scenario name to {"pretrain": (manifest, dataset),
    "finetune": (manifest, dataset) or None}. For unheard scenarios every
    consumed manifest is audited against the excluded language; any hit is a
    hard protocol violation.
    """
    cfg.validate()
    if min(n_trials_target, n_trials_nontarget) < 1:
        raise ConfigError("n_trials_target and n_trials_nontarget must be >= 1")
    results = {}
    for name, recipe in SCENARIOS.items():
        entry = corpora[name]
        pre_manifest, pre_ds = entry["pretrain"]
        ft_entry = entry.get("finetune")
        if recipe["unheard"]:
            consumed = [pre_manifest]
            if recipe["finetune"]:
                if ft_entry is None:
                    raise ConfigError(f"{name}: fine-tune corpus required")
                consumed.append(ft_entry[0])
            for m in consumed:
                bad = audit_manifest(m, recipe["excluded_language"])
                if bad:
                    raise ProtocolViolationError(
                        f"{name}: {len(bad)} {recipe['excluded_language']!r} "
                        f"records in training manifest "
                        f"{m.dataset_name} (first: {bad[0]})"
                    )
        best, _, _ = pretrain(pre_ds, cfg, dev_fraction)
        arrays = best["arrays"]
        if recipe["finetune"]:
            _, ft_ds = ft_entry
            ft_speakers = ft_ds.speakers()
            plan = split_folds(
                ft_speakers, min(ft_dev_folds, len(ft_speakers)), make_rng(cfg.seed)
            )
            dev_spk = plan.fold_speakers(0)
            train_spk = [s for s in ft_speakers if s not in set(dev_spk)]
            trials = default_dev_trials(ft_ds, dev_spk, cfg, make_rng(cfg.seed + 1))
            ft_best, _ = train_with_early_stopping(
                ft_ds.subset(train_spk), trials, ft_ds, cfg, init_arrays=arrays
            )
            arrays = ft_best["arrays"]
        # evaluate on test trials restricted to the scenario's voice language
        scen_test = test_ds.subset(voice_language=recipe["test_language"])
        held = scen_test.speakers()
        trial_rng = make_rng(cfg.seed + 0xE7)
        trial_cfg = _with_seed(cfg, cfg.seed)
        trial_cfg.n_dev_target = n_trials_target
        trial_cfg.n_dev_nontarget = n_trials_nontarget
        trials = default_dev_trials(scen_test, held, trial_cfg, trial_rng)
        head_f = head_from_arrays(arrays, "head_face", cfg.p_drop)
        head_v = head_from_arrays(arrays, "head_voice", cfg.p_drop)
        scores = score_trials(head_f, head_v, trials, scen_test)
        report = compute_eer(scores, [t.label for t in trials])
        results[name] = {
            "eer": report.eer,
            "threshold_at_eer": report.threshold_at_eer,
            "n_target": report.n_target,
            "n_nontarget": report.n_nontarget,
            "finetuned": recipe["finetune"],
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


def _by_speaker(x, spk, n):
    """(rows, start, count): the rows of x grouped by their speaker code in
    `spk` (0 .. n-1), in row order within a group; group s is rows
    start[s] .. start[s] + count[s] - 1."""
    count = np.bincount(spk, minlength=n)
    return x[np.argsort(spk, kind="stable")], np.cumsum(count) - count, count


def _sample_pairs(faces, voices, batch_size, rng):
    """Half same-speaker, half cross-speaker (face, voice) training pairs.

    `faces` and `voices` are `_by_speaker` groups over the same n speakers,
    each with at least one record. Every pair draws its face's speaker s1
    uniformly; even positions take the voice from s1 and odd ones from a
    speaker drawn uniformly from the other n - 1 (from s1 when n is 1).
    Records are drawn uniformly within their speaker. Labels are 1.0 for
    same-speaker pairs.
    """
    xf, f_start, f_count = faces
    xv, v_start, v_count = voices
    n = len(f_count)
    s1 = rng.integers(0, n, size=batch_size)
    s2 = s1.copy()
    if n > 1:
        s2[1::2] = (s1[1::2] + rng.integers(1, n, size=batch_size // 2)) % n
    f = f_start[s1] + rng.integers(0, f_count[s1])
    v = v_start[s2] + rng.integers(0, v_count[s2])
    return xf[f], xv[v], (s1 == s2).astype(np.float64)


def score_trials_xattn(model, trials, dataset):
    """Cross-attention logits of trials, each (face, voice) pair jointly."""
    xf, face_row, xv, voice_row = _trial_inputs(trials, dataset)
    logits, _ = xattn_forward(model, xv[voice_row], xf[face_row], train=False)
    return logits


def train_xattn(train_ds, dev_trials, eval_ds, cfg):
    """Train the cross-attention pair classifier with early stopping.

    Dev trials are scored by the raw logit, under the same checks and
    stopping rule (`_early_stopping`) as train_with_early_stopping.
    """
    xf_dev, face_row, xv_dev, voice_row = _dev_inputs(
        cfg, train_ds, dev_trials, eval_ds
    )
    xf_dev, xv_dev = xf_dev[face_row], xv_dev[voice_row]
    rng = make_rng(cfg.seed)
    model = XAttnModel.init(
        make_rng(cfg.seed ^ 0x5EED),
        voice_in_dim=train_ds.voice_dim,
        face_in_dim=train_ds.face_dim,
        d_model=cfg.d_model,
        p_drop=cfg.p_drop,
        residual=cfg.residual,
    )
    opt = {
        name: AdamState.for_param(arr, lr=cfg.lr)
        for name, arr in model.param_items()
    }
    code = {s: i for i, s in enumerate(train_ds.speakers())}
    xf, yf, xv, yv = train_ds.matrices(code)
    faces = _by_speaker(xf, yf, len(code))
    voices = _by_speaker(xv, yv, len(code))

    def step():
        xf, xv, y = _sample_pairs(faces, voices, cfg.batch_size, rng)
        logits, cache = xattn_forward(model, xv, xf, train=True, rng=rng)
        loss, g_logits = xattn_loss(logits, y)
        grads, _, _ = xattn_backward(model, cache, g_logits)
        for i in range(len(model.layers)):  # named as param_items names them
            for pname, g in grads.pop(f"layer{i}").items():
                grads[f"layer{i}.{pname}"] = g
        for name, arr in model.param_items():
            adam_step(arr, grads[name], opt[name])
        return {"loss": loss}

    def score():
        return xattn_forward(model, xv_dev, xf_dev, train=False)[0]

    best, log = _early_stopping(cfg, dev_trials, step, score, model.param_items)
    return model, best, log
