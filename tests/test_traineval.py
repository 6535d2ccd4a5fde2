import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc import traineval
from fvassoc.diffcore import _ADAM_BLOCK, AdamState, adam_step, make_rng
from fvassoc.embedstore import (
    FULL_DIMS,
    ModalityKind,
    assemble_face_inputs,
    assemble_voice_inputs,
    record_table,
)
from fvassoc.errors import (
    ConfigError,
    EmptyDatasetError,
    LookupError_,
    MetricError,
    ProtocolViolationError,
    SamplingError,
)
from fvassoc.aamloss import joint_step
from fvassoc.fusion import (
    MappingHead,
    XAttnModel,
    head_forward,
    xattn_backward,
    xattn_forward,
    xattn_loss,
)
from fvassoc.synthgen import SynthConfig, generate
from fvassoc.traineval import (
    PairedDataset,
    TrainConfig,
    XAttnTrainConfig,
    audit_manifest,
    compute_eer,
    cross_validate,
    default_dev_trials,
    generate_trials,
    pretrain_then_finetune,
    run_scenarios,
    score_trials,
    train_with_early_stopping,
    train_xattn,
    trial_table,
)
from testlib import filter_exclude_language, no_save, shuffle_speaker_labels


def make_dataset(n_speakers=10, records_per_speaker=4, seed=42, noise=0.01,
                 languages=None, base_truth=None, jitter=0.0):
    cfg = SynthConfig(
        n_speakers=n_speakers,
        latent_dim=8,
        noise_sigma=noise,
        records_per_speaker=records_per_speaker,
        seed=seed,
        languages=languages or {"en": 1.0},
    )
    vectors, records, truth = generate(cfg, base_truth=base_truth,
                                       projection_jitter=jitter)
    voices, _ = assemble_voice_inputs(vectors, records)
    faces, _ = assemble_face_inputs(vectors, records)
    return PairedDataset(faces, voices), truth, (vectors, records)


def quick_cfg(**kw):
    defaults = dict(
        lr=1e-2,
        batch_size=16,
        max_steps=100,
        patience=3,
        eval_every=20,
        seed=7,
        p_drop=0.5,
        n_dev_target=100,
        n_dev_nontarget=100,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def _reference_generate_trials(dataset, held_out_speakers, n_target,
                               n_nontarget, rng):
    """Oracle: the sampler that builds both pair pools as lists of tuples."""
    held = set(held_out_speakers)
    faces = [c for c in dataset.face_inputs if c.speaker_id in held]
    voices = [c for c in dataset.voice_inputs if c.speaker_id in held]
    spk_with_face = {c.speaker_id for c in faces}
    spk_with_voice = {c.speaker_id for c in voices}
    for s in sorted(held):
        if s not in spk_with_face or s not in spk_with_voice:
            raise SamplingError(f"held-out speaker {s} lacks a modality")

    same_pool = [
        (f.owner_id, v.owner_id)
        for f in faces
        for v in voices
        if f.speaker_id == v.speaker_id
    ]
    cross_pool = [
        (f.owner_id, v.owner_id)
        for f in faces
        for v in voices
        if f.speaker_id != v.speaker_id
    ]
    if n_target > len(same_pool):
        raise SamplingError(
            f"requested {n_target} target trials, only {len(same_pool)} possible"
        )
    if n_nontarget > len(cross_pool):
        raise SamplingError(
            f"requested {n_nontarget} non-target trials, "
            f"only {len(cross_pool)} possible"
        )
    same_idx = rng.choice(len(same_pool), size=n_target, replace=False)
    cross_idx = rng.choice(len(cross_pool), size=n_nontarget, replace=False)
    pairs = [same_pool[i] for i in sorted(same_idx)]
    pairs += [cross_pool[i] for i in sorted(cross_idx)]
    faces = [f for f, _ in pairs]
    voices = [v for _, v in pairs]
    return trial_table(faces, voices, [True] * n_target + [False] * n_nontarget)


def _table(kind, speakers, x):
    """One modality's (rows, x) table: row i is owner `<kind><i>` of
    speaker speakers[i], language "en", with input x[i]."""
    n = len(speakers)
    rows = np.rec.fromarrays(
        [np.array([f"{kind}{i}" for i in range(n)], dtype=str),
         np.array(speakers, dtype=str), np.array(["en"] * n, dtype=str),
         np.arange(n)],
        names="owner_id,speaker_id,language,row",
    )
    return rows, np.asarray(x, dtype=np.float64)


def _lookups(ds):
    """Per modality, owner id -> (speaker id, input vector) of its records."""
    return [dict(zip(rows.owner_id.tolist(),
                     zip(rows.speaker_id.tolist(), x[rows.row])))
            for rows, x in ds.tables()]


def _inputs(kind, speaker_codes):
    """One 2-wide input [i, 1] per entry, owned by speaker `s<code>`, in list
    order."""
    n = len(speaker_codes)
    x = np.stack([np.arange(n, dtype=float), np.ones(n)], axis=1)
    return _table(kind, [f"s{s}" for s in speaker_codes], x)


def _dataset(face_speakers, voice_speakers):
    return PairedDataset(_inputs("f", face_speakers), _inputs("v", voice_speakers))


def _pool_sizes(face_speakers, voice_speakers, held):
    faces = [s for s in face_speakers if f"s{s}" in held]
    voices = [s for s in voice_speakers if f"s{s}" in held]
    n_same = sum(voices.count(s) for s in faces)
    return n_same, len(faces) * len(voices) - n_same


def _outcome(sampler, *args):
    try:
        return sampler(*args).tolist()
    except SamplingError as exc:
        return ("SamplingError", str(exc))


@st.composite
def _draw_request(draw, pool):
    """A trial count: none, the whole pool, one too many, or in between."""
    mode = draw(st.sampled_from(["zero", "all", "over", "some"]))
    if mode == "some":
        return draw(st.integers(0, pool))
    return {"zero": 0, "all": pool, "over": pool + 1}[mode]


class TestGenerateTrialsMatchesOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_same_trials_as_tuple_pools(self, data):
        n_spk = data.draw(st.integers(1, 6))
        codes = st.lists(st.integers(0, n_spk - 1), max_size=14)
        face_spk = data.draw(codes)
        voice_spk = data.draw(codes)
        held = data.draw(
            st.lists(st.sampled_from([f"s{i}" for i in range(n_spk)]),
                     unique=True)
        )
        n_same, n_cross = _pool_sizes(face_spk, voice_spk, held)
        n_target = data.draw(_draw_request(n_same))
        n_nontarget = data.draw(_draw_request(n_cross))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ds = _dataset(face_spk, voice_spk)
        args = (ds, held, n_target, n_nontarget)
        assert _outcome(generate_trials, *args, make_rng(seed)) == _outcome(
            _reference_generate_trials, *args, make_rng(seed)
        )

    @pytest.mark.parametrize("extra_target, extra_nontarget", [
        (0, 0), (1, 0), (0, 1),
    ])
    def test_whole_pool_and_one_past_it(self, extra_target, extra_nontarget):
        # interleaved, unevenly sized speakers in both modalities
        face_spk = [2, 0, 1, 0, 2, 2, 1, 0, 3]
        voice_spk = [0, 0, 1, 2, 3, 0, 2, 1, 1, 0]
        held = ["s0", "s1", "s2", "s3"]
        n_same, n_cross = _pool_sizes(face_spk, voice_spk, held)
        args = (_dataset(face_spk, voice_spk), held,
                n_same + extra_target, n_cross + extra_nontarget)
        got = _outcome(generate_trials, *args, make_rng(4))
        assert got == _outcome(_reference_generate_trials, *args, make_rng(4))
        if extra_target or extra_nontarget:
            assert got[0] == "SamplingError"
            assert str(n_same if extra_target else n_cross) in got[1]
        else:
            assert len(got) == len(face_spk) * len(voice_spk)  # every pair

    def test_held_out_speaker_without_a_voice(self):
        ds = _dataset([0, 1, 2], [0, 1, 0])
        with pytest.raises(SamplingError, match="s2 lacks a modality"):
            generate_trials(ds, ["s0", "s1", "s2"], 1, 1, make_rng(0))

    def test_first_lacking_speaker_in_sorted_order_is_named(self):
        # s2 has no face, s3 no voice and s4 neither
        ds = _dataset([0, 1, 3], [0, 1, 2])
        held = ["s4", "s3", "s0", "s2", "s1"]
        args = (ds, held, 1, 1)
        got = _outcome(generate_trials, *args, make_rng(0))
        assert got == ("SamplingError", "held-out speaker s2 lacks a modality")
        assert got == _outcome(_reference_generate_trials, *args, make_rng(0))

    def test_draw_from_5000_speakers(self):
        spk = np.repeat(np.arange(5000), 10)
        ds = _dataset(spk, spk[::-1])
        held = [f"s{i}" for i in range(5000)]
        trials = generate_trials(ds, held, 10_000, 10_000, make_rng(0))
        assert sum(t.label for t in trials) == 10_000
        assert len({(t.face_id, t.voice_id) for t in trials}) == 20_000
        held_set = set(held)
        faces, voices = _lookups(ds)
        for t in trials:
            fs, vs = faces[t.face_id][0], voices[t.voice_id][0]
            assert t.label == (fs == vs)
            assert fs in held_set and vs in held_set


class TestGenerateTrials:
    def test_exhaustive_two_speakers(self):
        ds, _, _ = make_dataset(n_speakers=2, records_per_speaker=1)
        trials = generate_trials(ds, ["s000", "s001"], 2, 2, make_rng(0))
        same = {(t.face_id, t.voice_id) for t in trials if t.label}
        cross = {(t.face_id, t.voice_id) for t in trials if not t.label}
        assert same == {
            ("s000:f000", "s000:v000"),
            ("s001:f000", "s001:v000"),
        }
        assert cross == {
            ("s000:f000", "s001:v000"),
            ("s001:f000", "s000:v000"),
        }

    def test_oversampling_rejected(self):
        ds, _, _ = make_dataset(n_speakers=2, records_per_speaker=1)
        with pytest.raises(SamplingError):
            generate_trials(ds, ["s000", "s001"], 3, 2, make_rng(0))

    def test_labels_match_speakers(self):
        ds, _, _ = make_dataset(n_speakers=5)
        held = ["s000", "s001", "s002"]
        trials = generate_trials(ds, held, 20, 20, make_rng(1))
        faces, voices = _lookups(ds)
        for t in trials:
            fs, vs = faces[t.face_id][0], voices[t.voice_id][0]
            assert t.label == (fs == vs)
            assert fs in held and vs in held

    def test_determinism(self):
        ds, _, _ = make_dataset(n_speakers=5)
        held = ["s000", "s001"]
        a = generate_trials(ds, held, 10, 10, make_rng(3))
        b = generate_trials(ds, held, 10, 10, make_rng(3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_target, n_nontarget", [
        (3, 4), (40, 4), (3, 400), (40, 400),
    ])
    def test_dev_trials_cap_each_count_at_its_pool(self, n_target, n_nontarget):
        face_spk = [2, 0, 1, 0, 2, 2, 1, 0, 3]
        voice_spk = [0, 0, 1, 2, 3, 0, 2, 1, 1, 0]
        held = ["s0", "s1", "s3"]
        n_same, n_cross = _pool_sizes(face_spk, voice_spk, held)
        ds = _dataset(face_spk, voice_spk)
        cfg = quick_cfg(n_dev_target=n_target, n_dev_nontarget=n_nontarget)
        got = default_dev_trials(ds, held, cfg, make_rng(5))
        want = generate_trials(ds, held, min(n_target, n_same),
                               min(n_nontarget, n_cross), make_rng(5))
        assert np.array_equal(got, want)


def brute_force_eer(scores, labels):
    """Independent oracle: exhaustive sweep over midpoints plus +-inf."""
    tar = [s for s, l in zip(scores, labels) if l]
    non = [s for s, l in zip(scores, labels) if not l]
    uniq = sorted(set(scores))
    cands = (
        [-math.inf]
        + [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
        + [math.inf]
    )
    pts = []
    for t in cands:
        far = sum(1 for s in non if s >= t) / len(non)
        frr = sum(1 for s in tar if s < t) / len(tar)
        pts.append((far, frr))
    for k, (far, frr) in enumerate(pts):
        d = frr - far
        if d >= 0.0:
            if d == 0.0:
                return far
            pf, pr = pts[k - 1]
            a = pr - pf
            lam = -a / (d - a)
            return pf + lam * (far - pf)
    raise AssertionError("no crossing found")


class TestComputeEer:
    def test_perfect_separation(self):
        r = compute_eer([0.9, 0.8, 0.7, 0.1], [True, True, False, False])
        assert r.eer == 0.0
        assert r.n_target == 2 and r.n_nontarget == 2

    def test_half(self):
        r = compute_eer([0.9, 0.3, 0.7, 0.1], [True, True, False, False])
        assert r.eer == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            compute_eer([0.1, 0.2], [True, True])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(MetricError, match="finite"):
            compute_eer([0.9, bad, 0.7, 0.1], [True, True, False, False])

    def test_matches_brute_force(self):
        rng = make_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.standard_normal(n), 1)  # coarse: force ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            got = compute_eer(scores, labels).eer
            want = brute_force_eer(list(scores), list(labels))
            assert abs(got - want) <= 1e-9

    def test_flip_symmetry(self):
        rng = make_rng(5)
        scores = rng.standard_normal(40)
        labels = rng.random(40) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        a = compute_eer(scores, labels).eer
        b = compute_eer(-scores, ~labels).eer
        assert abs(a - b) <= 1e-12

    def test_invariant_under_increasing_transform(self):
        rng = make_rng(6)
        scores = rng.standard_normal(50)
        labels = np.concatenate([np.ones(25, bool), np.zeros(25, bool)])
        a = compute_eer(scores, labels).eer
        b = compute_eer(np.exp(scores) + 3.0, labels).eer
        assert abs(a - b) <= 1e-12


def _reference_score_trials(head_face, head_voice, trials, dataset):
    """Oracle: the scorer that stacks and projects both rows of every trial."""
    faces, voices = _lookups(dataset)
    xf = np.stack([faces[t.face_id][1] for t in trials])
    xv = np.stack([voices[t.voice_id][1] for t in trials])
    yf, _ = head_forward(head_face, xf, train=False)
    yv, _ = head_forward(head_voice, xv, train=False)
    norms = np.linalg.norm(yf, axis=1) * np.linalg.norm(yv, axis=1)
    return (yf * yv).sum(axis=1) / norms


def _scoring_case(n_faces, n_voices, face_dim, voice_dim, seed, out_dim=192):
    """Random records of both modalities and two eval-mode heads."""
    rng = make_rng(seed)

    def inputs(kind, n, dim):
        x = np.stack([rng.standard_normal(dim) for _ in range(n)])
        return _table(kind, [f"s{i}" for i in range(n)], x)

    ds = PairedDataset(inputs("f", n_faces, face_dim),
                       inputs("v", n_voices, voice_dim))
    head_f = MappingHead.init(rng, face_dim, out_dim, p_drop=0.0)
    head_v = MappingHead.init(rng, voice_dim, out_dim, p_drop=0.0)
    return ds, head_f, head_v


def _random_trials(ds, n, rng):
    """n trials over the dataset's records, ids repeated, in random order."""
    f = rng.integers(0, len(ds.face_inputs), size=n)
    v = rng.integers(0, len(ds.voice_inputs), size=n)
    return trial_table(ds.face_inputs.owner_id[f], ds.voice_inputs.owner_id[v],
                       f == v)


class TestScoreTrialsMatchesOracle:
    # Scores of small cases are compared with rtol 1e-12, not exactly: with
    # OpenBLAS 0.3.31 (Haswell kernels) a matmul of up to 6 rows at small
    # widths, or of 1 row at FULL_DIMS widths, takes a different kernel, so
    # a projected row's low bits depend on how many rows share the call.
    # The stack-every-row scorer already depends on the trial count in the
    # same way. atol covers cosines near 0, where rtol alone is too strict.
    # From 8 distinct records per modality and hundreds of trials upward,
    # both sides take the same kernel and must agree exactly.
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_stacked_scoring(self, data):
        block = data.draw(st.integers(1, 6))
        mode = data.draw(st.sampled_from(["below", "at", "above", "any"]))
        n = {"below": block - 1, "at": block, "above": block + 1}.get(mode)
        if n is None or n == 0:
            n = data.draw(st.integers(1, 4 * block))
        ds, head_f, head_v = _scoring_case(
            n_faces=data.draw(st.integers(1, 5)),
            n_voices=data.draw(st.integers(1, 5)),
            face_dim=data.draw(st.integers(1, 9)),
            voice_dim=data.draw(st.integers(1, 9)),
            seed=data.draw(st.integers(0, 2**32 - 1)),
            out_dim=data.draw(st.integers(1, 6)),
        )
        trials = _random_trials(ds, n, make_rng(data.draw(st.integers(0, 99))))
        with mock.patch.object(traineval, "_SCORE_BLOCK", block):
            got = score_trials(head_f, head_v, trials, ds)
        want = _reference_score_trials(head_f, head_v, trials, ds)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_exact_around_the_real_block(self, offset):
        n = traineval._SCORE_BLOCK + offset
        ds, head_f, head_v = _scoring_case(40, 30, 56, 80, seed=11)
        trials = _random_trials(ds, n, make_rng(12))
        got = score_trials(head_f, head_v, trials, ds)
        assert np.array_equal(got, _reference_score_trials(head_f, head_v,
                                                           trials, ds))

    @pytest.mark.parametrize("block", [7, 64, 299, 300, 301])
    def test_exact_at_full_dims_over_several_blocks(self, block):
        face_dim = FULL_DIMS[ModalityKind.FACE_IDENTITY] + FULL_DIMS[
            ModalityKind.FACE_AGE_GENDER]
        voice_dim = FULL_DIMS[ModalityKind.VOICE_SPEAKER] + FULL_DIMS[
            ModalityKind.VOICE_AGE_GENDER]
        ds, head_f, head_v = _scoring_case(8, 9, face_dim, voice_dim, seed=21)
        trials = _random_trials(ds, 300, make_rng(22))
        with mock.patch.object(traineval, "_SCORE_BLOCK", block):
            got = score_trials(head_f, head_v, trials, ds)
        assert np.array_equal(got, _reference_score_trials(head_f, head_v,
                                                           trials, ds))

    def test_scoring_memory_is_the_distinct_records_plus_one_block(self):
        # 50,000 trials over 100 faces and 100 voices at out_dim 192: blocks
        # of 16,384 trials peaked at 53 MB of gathered float64 rows; the
        # per-trial indices and the scores take under 4 MB
        ds, head_f, head_v = _scoring_case(100, 100, 56, 80, seed=71)
        trials = _random_trials(ds, 50_000, make_rng(72))
        tracemalloc.start()
        try:
            score_trials(head_f, head_v, trials, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_trial_order_only_permutes_scores(self):
        ds, head_f, head_v = _scoring_case(12, 10, 56, 80, seed=31)
        trials = _random_trials(ds, 500, make_rng(32))
        order = make_rng(33).permutation(len(trials))
        scores = score_trials(head_f, head_v, trials, ds)
        shuffled = score_trials(head_f, head_v, trials[order], ds)
        assert np.array_equal(shuffled, scores[order])

    def test_unknown_ids_are_checked_per_modality(self):
        ds, head_f, head_v = _scoring_case(3, 3, 4, 4, seed=51)
        trials = trial_table(["f0", "v1", "f1", "f0"], ["v0", "v2", "ghost", "f2"],
                             [True, False, False, False])
        with pytest.raises(LookupError_) as exc:
            score_trials(head_f, head_v, trials, ds)
        assert str(exc.value).endswith("face v1, voice f2, voice ghost")

    def test_no_trials_give_no_scores(self):
        ds, head_f, head_v = _scoring_case(2, 2, 4, 4, seed=61)
        trials = trial_table([], [], [])
        assert score_trials(head_f, head_v, trials, ds).shape == (0,)

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_permuting_or_duplicating_trials_keeps_every_score(self, data):
        # Distinct records are projected in sorted id order, so a list that
        # holds the same trials in any order and multiplicity projects the
        # same matrix. Widths 56 and 80 are ones where OpenBLAS 0.3.31 rounds
        # a row of a batch of up to 6 rows by the batch size.
        ds, head_f, head_v = _scoring_case(
            n_faces=data.draw(st.integers(1, 10)),
            n_voices=data.draw(st.integers(1, 10)),
            face_dim=data.draw(st.sampled_from([1, 3, 8, 56])),
            voice_dim=data.draw(st.sampled_from([2, 5, 16, 80])),
            seed=data.draw(st.integers(0, 2**32 - 1)),
            out_dim=data.draw(st.integers(1, 12)),
        )
        n = data.draw(st.integers(1, 30))
        trials = _random_trials(ds, n, make_rng(data.draw(st.integers(0, 99))))
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        order = data.draw(st.permutations(list(range(n)) + extra))
        scores = score_trials(head_f, head_v, trials, ds)
        with mock.patch.object(traineval, "_SCORE_BLOCK",
                               data.draw(st.integers(1, 8))):
            got = score_trials(head_f, head_v, trials[order], ds)
        assert got.tobytes() == scores[order].tobytes()


def _reference_trial_rows(trials, dataset):
    """`traineval._trial_rows` as it was before it looked each trial id up
    among the sorted owner ids: np.unique over every trial id, then a
    search of the distinct ids among the owners."""
    out, unknown = [], []
    for kind, (rows, _) in zip(("face", "voice"), dataset.tables()):
        ids, inverse = np.unique(trials[f"{kind}_id"], return_inverse=True)
        unknown += [f"{kind} {i}" for i in np.setdiff1d(ids, rows.owner_id).tolist()]
        sorter = np.argsort(rows.owner_id)
        pos = np.searchsorted(rows.owner_id, ids, sorter=sorter)
        out += [np.append(sorter, -1)[pos], inverse]
    if unknown:
        raise LookupError_(f"unknown trial record ids: {', '.join(unknown)}")
    return out


_IDS = st.text(alphabet="ab\u00e9#0", min_size=1, max_size=4)


class TestTrialRows:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_unique_based_reference(self, data):
        tables = []
        for _ in range(2):  # faces, voices: owners in any table order
            owners = data.draw(st.lists(_IDS, max_size=8, unique=True))
            tables.append(np.rec.fromarrays(
                [np.array(owners, str), np.array(owners, str),
                 np.array(owners, str), np.arange(len(owners))],
                names="owner_id,speaker_id,language,row"))
        ds = PairedDataset(*((t, np.zeros((len(t), 1), np.float32)) for t in tables))
        n = data.draw(st.integers(0, 20))
        columns = []
        for t in tables:  # ids of the table's owners, or also any others
            known = st.sampled_from(t.owner_id.tolist()) if len(t) else _IDS
            ids = st.one_of(known, _IDS) if data.draw(st.booleans()) else known
            columns.append(data.draw(st.lists(ids, min_size=n, max_size=n)))
        trials = trial_table(*columns, [False] * n)
        try:
            want = _reference_trial_rows(trials, ds)
        except LookupError_ as exc:
            with pytest.raises(LookupError_) as got:
                traineval._trial_rows(trials, ds)
            assert str(got.value) == str(exc)
            return
        got = traineval._trial_rows(trials, ds)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


class TestTrialRowsWhenKeysCollide:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_every_key_colliding_gives_the_reference_result(self, data):
        # under the first constant set every id keys to 0: owners that share
        # a key are keyed again, and every trial id's candidate is confirmed
        # by its string alone
        real = traineval._id_keys

        def colliding(ids, attempt, width):
            if attempt == 0:
                return np.zeros(len(ids), np.uint64)
            return real(ids, attempt, width)

        tables = []
        for _ in range(2):
            owners = data.draw(st.lists(_IDS, max_size=4, unique=True))
            tables.append(np.rec.fromarrays(
                [np.array(owners, str)] * 3 + [np.arange(len(owners))],
                names="owner_id,speaker_id,language,row"))
        ds = PairedDataset(*((t, np.zeros((len(t), 1), np.float32)) for t in tables))
        n = data.draw(st.integers(0, 12))
        columns = []
        for t in tables:  # mostly ids of the table's owners
            ids = st.sampled_from(t.owner_id.tolist()) if len(t) else _IDS
            ids = st.one_of(ids, ids, ids, _IDS)
            columns.append(data.draw(st.lists(ids, min_size=n, max_size=n)))
        trials = trial_table(*columns, [False] * n)
        try:
            want = _reference_trial_rows(trials, ds)
        except LookupError_ as exc:
            want = str(exc)
        with mock.patch.object(traineval, "_id_keys", colliding):
            try:
                got = traineval._trial_rows(trials, ds)
            except LookupError_ as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
            return
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _xattn_dev_logits(model, ds, voice_at, face_at):
    """Logits of the (voice_x[voice_at[i]], face_x[face_at[i]]) pairs, by
    the chunking helper and forward call of `train_xattn`'s dev scoring."""
    return traineval._in_chunks(lambda v, f: xattn_forward(model, v, f)[0],
                                np.empty(len(face_at)), (ds.voice_x, voice_at),
                                (ds.face_x, face_at))


def _peak_beyond(outputs, fn, *args):
    """Bytes that fn(*args) allocates at its peak under tracemalloc, less
    `outputs` bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - outputs
    finally:
        tracemalloc.stop()


class TestScoreDependsOnlyOnItsPair:
    # Scoring projects distinct records, and cross-attention dev scoring
    # runs its pairs, in chunks of exactly 64 rows, so on one numpy/BLAS
    # build a row's bits do not depend on the other rows of its list. This
    # is checked on the build the tests run on; a one-row matmul or a
    # one-pair attention batch may round differently from a larger one.
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_heads_score_alone_and_among_other_records(self, data):
        face_dim, voice_dim = data.draw(st.permutations([56, 80]))
        ds, head_f, head_v = _scoring_case(
            n_faces=data.draw(st.integers(1, 150)),
            n_voices=data.draw(st.integers(1, 150)),
            face_dim=face_dim, voice_dim=voice_dim,
            seed=data.draw(st.integers(0, 2**32 - 1)),
            out_dim=data.draw(st.sampled_from([2, 7, 192])),
        )
        rng = make_rng(data.draw(st.integers(0, 99)))
        trials = _random_trials(ds, data.draw(st.integers(1, 12)), rng)
        scores = score_trials(head_f, head_v, trials, ds)
        for i in range(len(trials)):
            alone = score_trials(head_f, head_v, trials[i : i + 1], ds)
            assert alone.tobytes() == scores[i : i + 1].tobytes()
        more = np.concatenate([trials, _random_trials(ds, 200, rng)])
        got = score_trials(head_f, head_v, more.view(np.recarray), ds)
        assert got[: len(trials)].tobytes() == scores.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_xattn_dev_logit_alone_and_in_its_list(self, data):
        face_dim, voice_dim = data.draw(st.sampled_from([(56, 80), (20, 30)]))
        n_faces, n_voices = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ds, _, _ = _scoring_case(n_faces, n_voices, face_dim, voice_dim, seed)
        model = XAttnModel.init(make_rng(seed), voice_in_dim=voice_dim,
                                face_in_dim=face_dim,
                                d_model=data.draw(st.sampled_from([4, 8, 16])))
        n = data.draw(st.integers(1, 150))
        rng = make_rng(seed + 1)
        voice_at = rng.integers(0, n_voices, n)
        face_at = rng.integers(0, n_faces, n)
        logits = _xattn_dev_logits(model, ds, voice_at, face_at)
        for i in range(n):
            alone = _xattn_dev_logits(model, ds, voice_at[i : i + 1],
                                      face_at[i : i + 1])
            assert alone.tobytes() == logits[i : i + 1].tobytes()


class TestScoringMemory:
    # Beyond its outputs (the float64 projections and their norms, or the
    # logits, and the scores), scoring holds one chunk of rows and one block
    # of trials, whatever the length of the list.
    def test_head_scoring_peak_does_not_grow_with_the_records(self):
        extra = []
        for n in (1000, 8000):
            rng = make_rng(n)
            x = rng.standard_normal((n, 80)).astype(np.float32)
            head = MappingHead.init(rng, 80, 192, p_drop=0.0)
            rows = np.arange(n)
            outputs = 2 * n * (192 + 1) * 8 + n * 8
            extra.append(_peak_beyond(outputs, traineval._score_inputs, head, head,
                                      (x, rng.permutation(n)), rows,
                                      (x, rng.permutation(n)), rng.permutation(n)))
        assert abs(extra[1] - extra[0]) < 1e6

    def test_xattn_dev_scoring_peak_does_not_grow_with_the_pairs(self):
        ds, _, _ = _scoring_case(200, 200, 56, 80, seed=81)
        ds.face_x = ds.face_x.astype(np.float32)  # float32 as stored
        ds.voice_x = ds.voice_x.astype(np.float32)
        model = XAttnModel.init(make_rng(82), voice_in_dim=80, face_in_dim=56,
                                d_model=8)
        extra = []
        for n in (500, 4000):
            rng = make_rng(n)
            extra.append(_peak_beyond(n * 8, _xattn_dev_logits, model, ds,
                                      rng.integers(0, 200, n),
                                      rng.integers(0, 200, n)))
        assert abs(extra[1] - extra[0]) < 1e6


def _sampled_pairs(face_speakers, voice_speakers, batch_size, seed):
    """(face record, voice record, label) of each pair `_sample_pairs` draws
    from a `_dataset`, records given as list indices (an input's first
    element)."""
    ds = _dataset(face_speakers, voice_speakers)
    n, af, yf, av, yv = ds.matrices()
    xf, xv, y = traineval._sample_pairs(
        ds.face_x, traineval._by_speaker(af, yf, n),
        ds.voice_x, traineval._by_speaker(av, yv, n),
        batch_size, make_rng(seed),
    )
    return xf[:, 0].astype(int).tolist(), xv[:, 0].astype(int).tolist(), y


def _speaker_lists(draw, n):
    """Speaker codes 0 .. n-1 of one modality's records, 1-4 records each,
    in random order."""
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return [s for s, c in enumerate(counts) for _ in range(c)]


class TestSamplePairs:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_labels_and_speakers_of_every_pair(self, data):
        n = data.draw(st.integers(1, 6))
        # speaker n has faces only, so it is not a training speaker
        face_spk = _speaker_lists(data.draw, n)
        face_spk += [n] * data.draw(st.integers(0, 2))
        face_spk = data.draw(st.permutations(face_spk))
        voice_spk = data.draw(st.permutations(_speaker_lists(data.draw, n)))
        batch = data.draw(st.integers(1, 40))
        f, v, y = _sampled_pairs(face_spk, voice_spk, batch,
                                 data.draw(st.integers(0, 2**32 - 1)))
        s1 = [face_spk[i] for i in f]
        s2 = [voice_spk[i] for i in v]

        assert len(f) == len(v) == y.shape[0] == batch
        assert y.tolist() == [float(a == b) for a, b in zip(s1, s2)]
        assert max(s1) < n
        assert s1[0::2] == s2[0::2]
        if n > 1:
            assert all(a != b for a, b in zip(s1[1::2], s2[1::2]))

    def test_one_speaker_gives_same_speaker_pairs(self):
        f, v, y = _sampled_pairs([0, 0, 0], [0], 7, seed=1)
        assert set(f) <= {0, 1, 2} and v == [0] * 7
        assert y.tolist() == [1.0] * 7

    def test_same_seed_same_batch(self):
        spk = [0, 1, 1, 2, 2, 2]
        a, b = _sampled_pairs(spk, spk, 33, 4), _sampled_pairs(spk, spk, 33, 4)
        assert a[:2] == b[:2] and np.array_equal(a[2], b[2])
        assert a[:2] != _sampled_pairs(spk, spk, 33, 5)[:2]

    def test_speakers_and_records_are_uniform(self):
        # 3 speakers with 1, 2 and 5 records of each modality
        spk = [2, 1, 0, 2, 2, 1, 2, 2]
        n = 30_000
        f, v, _ = _sampled_pairs(spk, spk, n, seed=9)
        s1 = [spk[i] for i in f]
        s2 = [spk[i] for i in v]
        for s in range(3):
            assert abs(s1.count(s) / n - 1 / 3) < 0.02
            # within a speaker each record is equally likely
            mine = [i for i, t in zip(f, s1) if t == s]
            for r in {i for i, t in enumerate(spk) if t == s}:
                assert abs(mine.count(r) / len(mine) - 1 / spk.count(s)) < 0.03
            # an odd pair's voice speaker is either other speaker, evenly
            partners = [b for a, b in zip(s1[1::2], s2[1::2]) if a == s]
            for other in {0, 1, 2} - {s}:
                assert abs(partners.count(other) / len(partners) - 0.5) < 0.03


def _train_heads(train_ds, trials, eval_ds, **kw):
    return train_with_early_stopping(train_ds, trials, eval_ds, quick_cfg(**kw))


def _train_xattn(train_ds, trials, eval_ds, **kw):
    defaults = dict(d_model=4, lr=1e-2, batch_size=16, max_steps=100,
                    patience=3, eval_every=20, seed=7)
    cfg = XAttnTrainConfig(**{**defaults, **kw})
    _, best, log = train_xattn(train_ds, trials, eval_ds, cfg)
    return best, log


# both trainers, each returning (best, log)
TRAINERS = {"heads": _train_heads, "xattn": _train_xattn}


class TestTraining:
    def test_dev_trials_must_be_disjoint(self):
        ds, _, _ = make_dataset()
        cfg = quick_cfg()
        trials = default_dev_trials(ds, ["s000"], cfg, make_rng(0))
        with pytest.raises(ConfigError):
            # training set includes the dev speaker
            train_with_early_stopping(ds, trials, ds, cfg)

    def test_xattn_dev_trials_must_be_disjoint(self):
        ds, _, _ = make_dataset()
        trials = default_dev_trials(ds, ["s000"], quick_cfg(), make_rng(0))
        with pytest.raises(ConfigError, match="speaker-disjoint"):
            # training set includes the dev speaker
            _train_xattn(ds, trials, ds)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_best_checkpoint_is_min_over_evaluations(self, trainer):
        # 4 of 10 speakers held out, and d_model 8 for xattn: both trainers
        # then improve on their step-0 dev EER, so the best arrays are
        # trained ones (xattn: 0.5 at steps 0-40, 0.25 at step 60)
        ds, _, _ = make_dataset()
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:4], quick_cfg(), make_rng(0))
        kw = {"d_model": 8} if trainer == "xattn" else {}
        best, log = TRAINERS[trainer](ds.subset(spk[4:]), trials, ds, **kw)
        assert best["step"] > 0
        assert best["dev_eer"] == min(e["dev_eer"] for e in log)
        # the earliest evaluation that reached it
        assert best["step"] == next(
            e["step"] for e in log if e["dev_eer"] == best["dev_eer"]
        )

    def test_determinism(self):
        ds, _, _ = make_dataset()
        cfg = quick_cfg(max_steps=60)
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:2], cfg, make_rng(0))
        b1, l1 = train_with_early_stopping(ds.subset(spk[2:]), trials, ds, cfg)
        b2, l2 = train_with_early_stopping(ds.subset(spk[2:]), trials, ds, cfg)
        assert l1 == l2
        for name in b1["arrays"]:
            assert np.array_equal(b1["arrays"][name], b2["arrays"][name])

    def test_empty_dev_trials_rejected(self):
        ds, _, _ = make_dataset()
        with pytest.raises(ConfigError):
            train_with_early_stopping(ds, [], ds, quick_cfg())

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_stops_once_patience_exceeded(self, trainer):
        ds, _, _ = make_dataset()
        patience = 1
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:2], quick_cfg(), make_rng(0))
        _, log = TRAINERS[trainer](ds.subset(spk[2:]), trials, ds,
                                   patience=patience, max_steps=1000,
                                   eval_every=5)
        # after the last improvement there are at most patience+1 evaluations
        eers = [e["dev_eer"] for e in log]
        best_idx = eers.index(min(eers))
        assert len(eers) - 1 - best_idx <= patience + 1


# dev scores of trials labeled [same, same, different, different] and their EER
_LOW = [1.0, 1.0, 0.0, 0.0]  # EER 0
_MID = [1.0, 0.0, 1.0, 0.0]  # EER 0.5
_HIGH = [0.0, 0.0, 1.0, 1.0]  # EER 1


def _scripted_run(script, **cfg):
    """`_early_stopping` with a fake step (a constant gradient, so that each
    Adam step moves the arrays) and a fake score that returns the
    evaluations' dev scores in `script` order and keeps a copy of the
    arrays it scored, the last entry being the arrays themselves. One array
    is above one Adam block, one below."""
    params = {"small": np.zeros(3), "large": np.zeros(_ADAM_BLOCK + 1)}
    scored = []

    def step():
        return {"loss": 1.0}, {name: np.ones_like(a) for name, a in params.items()}

    def score():
        scored.append({name: a.copy() for name, a in params.items()})
        return np.array(script[len(scored) - 1])

    trials = trial_table(list("abcd"), list("abcd"), [True, True, False, False])
    best, log = traineval._early_stopping(
        TrainConfig(**{"lr": 0.1, "max_steps": 100, **cfg}), trials, params,
        step, score)
    return best, log, scored + [params]


class TestEarlyStoppingRule:
    def test_scripted_scores_give_their_eers(self):
        labels = np.array([True, True, False, False])
        assert [compute_eer(np.array(s), labels).eer
                for s in (_LOW, _MID, _HIGH)] == [0.0, 0.5, 1.0]

    def test_best_is_the_first_minimum_and_its_arrays(self):
        # evaluation 3 ties the best and does not replace it
        script = [_MID, _LOW, _MID, _LOW, _HIGH, _MID]
        best, log, scored = _scripted_run(script, eval_every=3, patience=3)
        assert [e["dev_eer"] for e in log] == [0.5, 0.0, 0.5, 0.0, 1.0, 0.5]
        assert [e["step"] for e in log] == [0, 3, 6, 9, 12, 15]
        assert best["step"] == 3 and best["dev_eer"] == 0.0
        for name in ("small", "large"):
            assert np.array_equal(best["arrays"][name], scored[1][name])
            assert not np.array_equal(best["arrays"][name], scored[-2][name])
            assert not np.shares_memory(best["arrays"][name], scored[-1][name])

    @pytest.mark.parametrize("patience", [1, 2, 4])
    def test_patience_ends_the_loop_after_its_evaluation(self, patience):
        # the best is at evaluation 1; the loop stops at the evaluation that
        # makes `patience` + 1 in a row without improvement
        script = [_MID, _LOW] + [_MID] * 10
        best, log, scored = _scripted_run(script, eval_every=2, patience=patience)
        assert len(log) == len(scored) - 1 == patience + 3
        assert log[-1]["step"] == 2 * (patience + 2)
        assert best["step"] == 2

    def test_max_steps_ends_a_run_that_keeps_improving(self):
        script = [_HIGH, _MID, _LOW, _LOW]
        best, log, _ = _scripted_run(script, max_steps=5, eval_every=2, patience=1)
        assert [e["step"] for e in log] == [0, 2, 4, 5]
        assert best["step"] == 4


class TestSubsetIsAnIndex:
    """A subset narrows its parent's record tables and shares its input
    matrices; training and scoring gather rows through that index."""

    def test_subsets_share_the_parent_matrices(self):
        ds, _, _ = make_dataset(languages={"en": 0.5, "de": 0.5})
        cfg = quick_cfg()
        spk = ds.speakers()
        subsets = [traineval.held_out(ds, spk[:2], cfg, make_rng(0))[0],
                   traineval.dev_split(ds, 0.2, cfg)[0],
                   ds.subset(voice_language="de")]
        faces, voices = _lookups(ds)
        for sub in subsets:
            assert len(sub.voice_inputs) < len(ds.voice_inputs)
            assert np.shares_memory(sub.face_x, ds.face_x)
            assert np.shares_memory(sub.voice_x, ds.voice_x)
            for lookup, got in zip((faces, voices), _lookups(sub)):
                for owner, (speaker, x) in got.items():
                    assert lookup[owner][0] == speaker
                    assert np.array_equal(lookup[owner][1], x)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_training_on_a_subset_equals_training_on_its_records(self, trainer):
        ds, _, (vectors, records) = make_dataset()
        spk = ds.speakers()
        # held-out speakers in the middle: neither side's table positions
        # equal its rows of x
        held, rest = spk[3:5], spk[:3] + spk[5:]
        trials = default_dev_trials(ds, held, quick_cfg(), make_rng(0))

        def assembled(speakers):
            kept = records[np.isin(records.speaker_id, speakers)]
            return PairedDataset(assemble_face_inputs(vectors, kept)[0],
                                 assemble_voice_inputs(vectors, kept)[0])

        _assert_same_runs(trainer, trials, (ds.subset(rest), ds.subset(held)),
                          (assembled(rest), assembled(held)))

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_float32_inputs_train_as_their_float64_copies(self, trainer):
        # the models widen the rows they gather to float64, which is exact
        ds, _, _ = make_dataset()
        assert ds.face_x.dtype == ds.voice_x.dtype == np.float32
        wide = PairedDataset((ds.face_inputs, ds.face_x.astype(np.float64)),
                             (ds.voice_inputs, ds.voice_x.astype(np.float64)))
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:2], quick_cfg(), make_rng(0))
        _assert_same_runs(trainer, trials, (ds.subset(spk[2:]), ds),
                          (wide.subset(spk[2:]), wide))

    def test_scores_on_a_subset_equal_scores_on_the_whole(self):
        ds, head_f, head_v = _scoring_case(12, 10, 56, 80, seed=81)
        sub = ds.subset(speakers=ds.voice_inputs.speaker_id[1::2])
        trials = _random_trials(sub, 300, make_rng(82))
        assert np.array_equal(score_trials(head_f, head_v, trials, sub),
                              score_trials(head_f, head_v, trials, ds))


def _assert_same_runs(trainer, trials, *splits):
    """Train `trainer` on each (train_ds, eval_ds) split with `trials`; the
    runs must give the same log, best arrays, and arrays and dev scores
    after the last step, bit for bit."""
    runs, loop = [], traineval._early_stopping

    def early_stopping(cfg, dev_trials, params, step, score):
        best, log = loop(cfg, dev_trials, params, step, score)
        runs.append((best["arrays"], log, params, score()))
        return best, log

    with mock.patch.object(traineval, "_early_stopping", early_stopping):
        for train_ds, eval_ds in splits:
            TRAINERS[trainer](train_ds, trials, eval_ds)
    (got_best, got_log, got_last, got_scores), *others = runs
    for want_best, want_log, want_last, want_scores in others:
        assert got_log == want_log and got_log[-1]["step"] > 0
        assert got_scores.tobytes() == want_scores.tobytes()
        for got, want in ((got_best, want_best), (got_last, want_last)):
            assert got.keys() == want.keys()
            for name, arr in want.items():
                assert got[name].tobytes() == arr.tobytes()


def _traced_training(trainer, **kw):
    """Run one trainer on a small split, recording what `_early_stopping`
    is given and every `adam_step` call. Returns (params, initial copies of
    them, the arrays adam_step updated, in call order, best, log)."""
    ds, _, _ = make_dataset()
    spk = ds.speakers()
    trials = default_dev_trials(ds, spk[:2], quick_cfg(), make_rng(0))
    seen, updated = {}, []
    loop, adam = traineval._early_stopping, traineval.adam_step

    def early_stopping(cfg, dev_trials, params, step, score):
        seen["params"] = params
        seen["initial"] = {name: arr.copy() for name, arr in params.items()}
        return loop(cfg, dev_trials, params, step, score)

    def adam_step(param, grad, state):
        updated.append(param)
        return adam(param, grad, state)

    with mock.patch.object(traineval, "_early_stopping", early_stopping), \
            mock.patch.object(traineval, "adam_step", adam_step):
        best, log = TRAINERS[trainer](ds.subset(spk[2:]), trials, ds, **kw)
    return seen["params"], seen["initial"], updated, best, log


def _per_array_early_stopping(cfg, dev_trials, params, step, score):
    """`traineval._early_stopping` with one `adam_step` call per array per
    step, as before small arrays shared one buffer: the reference for the
    packed update."""
    opt = {name: AdamState.for_param(arr, lr=cfg.lr) for name, arr in params.items()}
    log, best, no_improve, losses = [], None, 0, {}
    for n in range(cfg.max_steps + 1):
        if n > 0:
            losses, grads = step()
            for name, arr in params.items():
                adam_step(arr, grads.pop(name), opt[name])
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


class TestOneUpdate:
    """Each architecture trains one dict of named arrays, and the only Adam
    update, in `_early_stopping`, reads gradients under the same names."""

    def test_joint_step_gradients_are_named_like_the_params(self):
        ds, _, _ = make_dataset()
        cfg = quick_cfg()
        params = traineval._init_params(ds, cfg, len(ds.speakers()))
        assert list(params) == ["head_face.weight", "head_face.bias",
                                "head_voice.weight", "head_voice.bias",
                                "clf.weight"]
        _, af, yf, av, yv = ds.matrices()
        rng = make_rng(1)
        _, _, grads = joint_step(params, cfg.p_drop, ds.face_x[af[:8]], yf[:8],
                                 ds.voice_x[av[:8]], yv[:8], cfg.aam, rng)
        assert grads.keys() == params.keys()
        for name, g in grads.items():
            assert g.shape == params[name].shape

    def test_xattn_gradients_are_named_like_the_params(self):
        model = XAttnModel.init(make_rng(2), voice_in_dim=13, face_in_dim=11,
                                d_model=4)
        assert list(model.params) == [
            f"layer{i}.{w}" for i in range(2) for w in ("wq", "wk", "wv", "wo")
        ] + ["out_w", "out_b"]
        rng = make_rng(3)
        logits, cache = xattn_forward(model, rng.standard_normal((5, 13)),
                                      rng.standard_normal((5, 11)))
        _, g_logits = xattn_loss(logits, [1.0, 0.0, 1.0, 0.0, 1.0])
        grads, _, _ = xattn_backward(model, cache, g_logits)
        assert grads.keys() == model.params.keys()
        for name, g in grads.items():
            assert np.shape(g) == model.params[name].shape

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_one_adam_update_per_array_per_step(self, trainer):
        params, _, updated, _, log = _traced_training(
            trainer, max_steps=6, eval_every=2, patience=10
        )
        assert log[-1]["step"] == 6
        buffers = list({id(b): b for b in updated}.values())
        assert len(updated) == 6 * len(buffers)
        for a, b in itertools.combinations(buffers, 2):
            assert not np.shares_memory(a, b)
        # each (contiguous) array lies inside exactly one updated buffer,
        # and together the arrays fill the buffers
        for arr in params.values():
            (owner,) = [b for b in buffers if np.shares_memory(arr, b)]
            lo, start = owner.ctypes.data, arr.ctypes.data
            assert lo <= start and start + arr.nbytes <= lo + owner.nbytes
        assert sum(b.size for b in buffers) == sum(a.size for a in params.values())

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_zero_lr_keeps_the_initial_arrays(self, trainer):
        params, initial, updated, best, log = _traced_training(
            trainer, lr=0.0, max_steps=6, eval_every=2, patience=10
        )
        assert log[-1]["step"] == 6
        assert updated and len(updated) == 6 * len({id(b) for b in updated})
        assert best["arrays"].keys() == initial.keys() == params.keys()
        for name, arr in initial.items():
            for got in (best["arrays"][name], params[name]):
                assert got.dtype == arr.dtype and got.shape == arr.shape
                assert got.tobytes() == arr.tobytes()

    # heads at out_dim 192 pack every array; at out_dim 2048 the weights
    # are larger than an Adam block and clf.weight (8 speakers) is exactly
    # one. xattn packs its 0-d out_b, and at d_model 128 eight arrays of
    # exactly one block.
    @pytest.mark.parametrize("trainer, kw", [
        ("heads", {}), ("heads", {"out_dim": 2048}),
        ("xattn", {}), ("xattn", {"d_model": 128}),
    ])
    def test_packed_update_is_bitwise_one_call_per_array(self, trainer, kw):
        ds, _, _ = make_dataset()
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:2], quick_cfg(), make_rng(0))
        runs = []
        for loop in (traineval._early_stopping, _per_array_early_stopping):
            def recorded(cfg, dev_trials, params, step, score, loop=loop):
                best, log = loop(cfg, dev_trials, params, step, score)
                runs.append((best, log, params))
                return best, log

            with mock.patch.object(traineval, "_early_stopping", recorded):
                TRAINERS[trainer](ds.subset(spk[2:]), trials, ds, max_steps=8,
                                  eval_every=2, patience=10, **kw)
        (best, log, last), (want_best, want_log, want_last) = runs
        assert log == want_log and log[-1]["step"] == 8
        assert best["step"] == want_best["step"]
        if kw:
            assert _ADAM_BLOCK in {arr.size for arr in last.values()}
        for got, want in ((best["arrays"], want_best["arrays"]), (last, want_last)):
            assert got.keys() == want.keys()
            for name, arr in want.items():
                assert got[name].shape == arr.shape
                assert got[name].tobytes() == arr.tobytes()


class _Trained(Exception):
    """Raised by a stand-in trainer: training was reached."""


def forbid_training(monkeypatch):
    """Make every recipe's training step raise _Trained."""
    def trained(*args, **kwargs):
        raise _Trained

    monkeypatch.setattr(traineval, "train_with_early_stopping", trained)


class TestCrossValidate:
    def test_structure_and_mean(self):
        ds, _, _ = make_dataset(n_speakers=8)
        cfg = quick_cfg(max_steps=40, eval_every=20)
        cv = cross_validate(ds, cfg, no_save, n_folds=4)
        assert len(cv["folds"]) == 4
        eers = [f["eer"] for f in cv["folds"]]
        assert abs(cv["mean_eer"] - np.mean(eers)) <= 1e-12

    def test_fold_speaker_sets_disjoint(self):
        ds, _, _ = make_dataset(n_speakers=9)
        cfg = quick_cfg(max_steps=20, eval_every=20)
        cv = cross_validate(ds, cfg, no_save, n_folds=3)
        seen = []
        for f in cv["folds"]:
            seen.extend(f["held_out_speakers"])
        assert len(seen) == len(set(seen)) == 9

    def test_shuffled_labels_are_chance_level(self):
        ds, _, _ = make_dataset(n_speakers=12, records_per_speaker=6)
        shuffled = shuffle_speaker_labels(ds, make_rng(17))
        cfg = quick_cfg(max_steps=60, eval_every=20)
        cv = cross_validate(shuffled, cfg, no_save, n_folds=3)
        assert 0.40 <= cv["mean_eer"] <= 0.60

    def test_one_speaker_fold_rejected_before_training(self, monkeypatch):
        # 4 folds of 6 speakers would hold out a single speaker twice
        ds, _, _ = make_dataset(n_speakers=6)
        forbid_training(monkeypatch)
        with pytest.raises(ConfigError, match="n_folds 4 .* 6 speakers"):
            cross_validate(ds, quick_cfg(), no_save, n_folds=4)
        with pytest.raises(_Trained):  # 3 folds of 2 speakers each train
            cross_validate(ds, quick_cfg(), no_save, n_folds=3)


def record_training_and_saves(monkeypatch):
    """(events, save): training appends "train" to events as it starts, and
    save(fold, arrays) appends (fold, sorted array names)."""
    events = []
    train = traineval.train_with_early_stopping

    def recorded(*args, **kwargs):
        events.append("train")
        return train(*args, **kwargs)

    monkeypatch.setattr(traineval, "train_with_early_stopping", recorded)
    return events, lambda fold, arrays: events.append((fold, sorted(arrays)))


HEAD_ARRAYS = ["clf.weight", "head_face.bias", "head_face.weight",
               "head_voice.bias", "head_voice.weight"]


class TestSaveAsEachFoldEnds:
    def test_cross_validate(self, monkeypatch):
        ds, _, _ = make_dataset(n_speakers=9)
        events, save = record_training_and_saves(monkeypatch)
        cv = cross_validate(ds, quick_cfg(max_steps=2, eval_every=1), save,
                            n_folds=3)
        assert events == ["train", (0, HEAD_ARRAYS), "train", (1, HEAD_ARRAYS),
                          "train", (2, HEAD_ARRAYS)]
        assert not any("arrays" in entry for entry in cv["folds"])

    def test_pretrain_then_finetune(self, monkeypatch):
        ds_a, _, _ = make_dataset(n_speakers=8)
        ds_b, _, _ = make_dataset(n_speakers=8, seed=5)
        events, save = record_training_and_saves(monkeypatch)
        cfg = quick_cfg(max_steps=2, eval_every=1)
        res = pretrain_then_finetune(ds_a, ds_b, cfg, cfg, save, n_folds=2)
        assert events == ["train", (None, HEAD_ARRAYS), "train",
                          (0, HEAD_ARRAYS), "train", (1, HEAD_ARRAYS)]
        assert "arrays" not in res["pretrain"]
        assert not any("arrays" in entry for entry in res["finetune"]["folds"])


class TestPretrainFinetune:
    def test_zero_lr_finetune_matches_frozen(self):
        ds_a, truth, _ = make_dataset(n_speakers=10, records_per_speaker=4)
        ds_b, _, _ = make_dataset(
            n_speakers=10, records_per_speaker=4, seed=5,
            base_truth=truth, jitter=0.5,
        )
        cfg_pre = quick_cfg(max_steps=60, eval_every=20)
        cfg_ft = quick_cfg(lr=0.0, max_steps=20, eval_every=10)
        res = pretrain_then_finetune(ds_a, ds_b, cfg_pre, cfg_ft, no_save,
                                     n_folds=3)
        for fold in res["finetune"]["folds"]:
            assert fold["eer"] == pytest.approx(fold["frozen_init_eer"], abs=1e-12)

    def test_report_contains_both_stages(self):
        ds_a, truth, _ = make_dataset(n_speakers=8, records_per_speaker=3)
        ds_b, _, _ = make_dataset(
            n_speakers=8, records_per_speaker=3, seed=5,
            base_truth=truth, jitter=0.3,
        )
        cfg = quick_cfg(max_steps=30, eval_every=15)
        res = pretrain_then_finetune(ds_a, ds_b, cfg, cfg, no_save, n_folds=2)
        assert "dev_eer" in res["pretrain"]
        assert "mean_eer" in res["finetune"]
        assert "frozen_mean_eer" in res

    def test_one_speaker_fold_rejected_before_pretraining(self, monkeypatch):
        ds_a, _, _ = make_dataset(n_speakers=8)
        ds_b, _, _ = make_dataset(n_speakers=5, seed=5)
        forbid_training(monkeypatch)
        with pytest.raises(ConfigError, match="n_folds 3 .* 5 speakers"):
            pretrain_then_finetune(ds_a, ds_b, quick_cfg(), quick_cfg(), no_save,
                                   n_folds=3)


def multilingual_corpus(seed, excluded=None, n_speakers=12, languages=None):
    ds, _, (_, records) = make_dataset(
        n_speakers=n_speakers,
        records_per_speaker=4,
        seed=seed,
        languages=languages or {"en": 0.4, "de": 0.4, "fr": 0.2},
    )
    if excluded is not None:
        records = filter_exclude_language(records, excluded)
        keep_spk = set(records.speaker_id.tolist())
        ds = ds.subset(keep_spk)
    return records, ds


def with_leak(corpus):
    """`corpus` with one English voice record added to its records."""
    records, ds = corpus
    leak = ("leak#vspk", "sX", "en", ModalityKind.VOICE_SPEAKER, 0)
    return record_table(*(np.append(records[name], value) for name, value
                          in zip(records.dtype.names, leak))), ds


class TestScenarios:
    def build_corpora(self):
        full = multilingual_corpus(1)
        no_en = multilingual_corpus(1, excluded="en")
        no_de = multilingual_corpus(1, excluded="de")
        ft_no_en = multilingual_corpus(2, excluded="en")
        ft_no_de = multilingual_corpus(2, excluded="de")
        return {
            "english_heard": {"pretrain": full, "finetune": None},
            "german_heard": {"pretrain": no_en, "finetune": None},
            "english_unheard": {"pretrain": no_en, "finetune": ft_no_en},
            "german_unheard": {"pretrain": no_de, "finetune": ft_no_de},
        }

    def test_audit_passes_on_filtered_manifests(self):
        corpora = self.build_corpora()
        for name in ("english_unheard", "german_unheard"):
            lang = "en" if name.startswith("english") else "de"
            assert audit_manifest(corpora[name]["pretrain"][0], lang) == []
            assert audit_manifest(corpora[name]["finetune"][0], lang) == []

    def test_table_shape_and_reference_values(self):
        corpora = self.build_corpora()
        test_ds, _, _ = make_dataset(
            n_speakers=12, records_per_speaker=4, seed=3,
            languages={"en": 0.5, "de": 0.5},
        )
        cfg = quick_cfg(max_steps=30, eval_every=15)
        table = run_scenarios(
            corpora, test_ds, cfg, n_trials_target=20, n_trials_nontarget=20,
        )
        assert set(table["scenarios"]) == {
            "english_heard",
            "german_heard",
            "english_unheard",
            "german_unheard",
        }
        assert "overall_mean_eer" in table
        assert table["reference_eer_percent"]["overall"] == 23.99

    def test_injected_leakage_is_hard_failure(self):
        corpora = self.build_corpora()
        entry = corpora["english_unheard"]
        entry["pretrain"] = with_leak(entry["pretrain"])
        test_ds, _, _ = make_dataset(
            n_speakers=12, records_per_speaker=4, seed=3,
            languages={"en": 0.5, "de": 0.5},
        )
        with pytest.raises(ProtocolViolationError):
            run_scenarios(
                corpora, test_ds, quick_cfg(max_steps=10, eval_every=10),
                n_trials_target=10, n_trials_nontarget=10,
            )

    def test_leak_raised_before_any_training(self, monkeypatch):
        # the leak sits in the third scenario; both heard ones come first
        corpora = self.build_corpora()
        entry = corpora["english_unheard"]
        entry["finetune"] = with_leak(entry["finetune"])
        forbid_training(monkeypatch)
        with pytest.raises(ProtocolViolationError, match=(
                r"english_unheard: 1 'en' records in its finetune corpus "
                r"\(first: leak#vspk\)")):
            run_scenarios(corpora, None, quick_cfg())

    @pytest.mark.parametrize("n_speakers", [1, 2, 3, 5, 6])
    def test_finetune_corpus_needs_six_speakers(self, monkeypatch, n_speakers):
        # 5 dev folds: fewer than 6 speakers leave a one-speaker dev fold
        corpora = self.build_corpora()
        corpora["german_unheard"]["finetune"] = multilingual_corpus(
            4, n_speakers=n_speakers, languages={"fr": 1.0}
        )
        forbid_training(monkeypatch)
        if n_speakers == 6:
            with pytest.raises(_Trained):
                run_scenarios(corpora, None, quick_cfg())
        else:
            with pytest.raises(SamplingError, match=f"german_unheard: fine-tune "
                               f"corpus has {n_speakers} speakers"):
                run_scenarios(corpora, None, quick_cfg())


# ---------------------------------------------------------------------------
# Speaker and owner sets are built with Python sets and dict lookups; numpy's
# set routines over the same str columns are the reference.

# ASCII and multi-byte characters; no NUL, which a numpy str would drop
_ID_CHARS = st.sampled_from(list("ab0_:-") + ["é", "中", "\U0001f600"])
_IDS = st.text(_ID_CHARS, max_size=4)


def _as_str(names):
    return np.array(names, dtype=str)


@st.composite
def _numbering_cases(draw):
    """(face speakers, voice speakers, held-out speakers), all drawn from one
    small pool of ids: speakers repeat, some lack a face, a voice or both,
    and either table may be empty."""
    pool = st.sampled_from(draw(st.lists(_IDS, min_size=1, max_size=6, unique=True)))
    return tuple(draw(st.lists(pool, max_size=size)) for size in (12, 12, 6))


def _speaker_dataset(face_spk, voice_spk):
    """A dataset of `_table`s of the speakers, each table's `row` column
    reversed, so that a record's row is not its table position."""
    tables = [_table(kind, spk, np.zeros((len(spk), 2)))
              for kind, spk in (("f", face_spk), ("v", voice_spk))]
    for rows, _ in tables:
        rows.row[:] = rows.row[::-1].copy()
    return PairedDataset(*tables)


def _reference_held_out(ds, held):
    """The held-out coding as `_HeldOutRecords` made it before it took
    `PairedDataset.matrices`' numbering: (face ids, voice ids, face codes,
    voice codes, by_spk, start, n_voices), with codes from np.unique over the
    held-out records' speakers and voices grouped by a stable argsort."""
    faces, voices = (rows[np.isin(rows.speaker_id, _as_str(held))]
                     for rows, _ in ds.tables())
    names, code = np.unique(np.concatenate([faces.speaker_id, voices.speaker_id]),
                            return_inverse=True)
    face_code, voice_code = np.split(code, [len(faces)])
    n_voices = np.bincount(voice_code, minlength=len(names))
    return (faces.owner_id, voices.owner_id, face_code, voice_code,
            np.argsort(voice_code, kind="stable"), np.cumsum(n_voices) - n_voices,
            n_voices)


class TestSpeakerSetsMatchNumpy:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_numbering_cases())
    def test_speakers_subset_and_matrices(self, case):
        face_spk, voice_spk, names = case
        ds = _speaker_dataset(face_spk, voice_spk)
        common = np.intersect1d(_as_str(face_spk), _as_str(voice_spk))
        assert ds.speakers() == common.tolist()
        sub = ds.subset(names)
        n, *got = ds.matrices()
        assert n == len(common)
        for k, ((rows, _), (sub_rows, _)) in enumerate(zip(ds.tables(), sub.tables())):
            mine = np.isin(rows.speaker_id, _as_str(names))
            assert sub_rows.owner_id.tolist() == rows.owner_id[mine].tolist()
            # codes are ranks among the speakers with a face and a voice
            coded = np.isin(rows.speaker_id, common)
            assert got[2 * k].tolist() == rows.row[coded].tolist()
            assert got[2 * k + 1].tolist() == np.searchsorted(
                common, rows.speaker_id[coded]).tolist()

    @settings(max_examples=200, deadline=None, database=None)
    @given(_numbering_cases())
    def test_held_out_codes_and_the_lacking_modality_check(self, case):
        face_spk, voice_spk, held = case
        ds = _speaker_dataset(face_spk, voice_spk)
        lacking = np.setdiff1d(_as_str(held), np.intersect1d(_as_str(face_spk),
                                                             _as_str(voice_spk)))
        if lacking.size:
            message = re.escape(f"held-out speaker {lacking[0]} lacks a modality")
            with pytest.raises(SamplingError, match=message):
                traineval._HeldOutRecords(ds, held)
            with pytest.raises(SamplingError, match=message):
                generate_trials(ds, held, 0, 0, make_rng(0))
            return
        rec = traineval._HeldOutRecords(ds, held)
        want = _reference_held_out(ds, held)
        got = (rec.face_ids, rec.voice_ids, rec.face_code, rec.voice_code,
               rec.by_spk, rec.start, rec.n_voices)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert rec.same_per_face.tolist() == want[-1][want[2]].tolist()
        assert len(generate_trials(ds, held, 0, 0, make_rng(0))) == 0

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(_IDS, unique=True, max_size=10),
           st.lists(_IDS, unique=True, max_size=10))
    def test_skipped_owners(self, ident, ageg):
        ids = [f"{o}#vspk" for o in ident] + [f"{o}#vag" for o in ageg]
        n = len(ids)
        records = record_table(_as_str(ids), _as_str(["s"] * n), _as_str(["en"] * n),
                               np.array([0] * len(ident) + [1] * len(ageg)),
                               np.r_[np.arange(len(ident)), np.arange(len(ageg))])
        vectors = {ModalityKind(0): np.zeros((len(ident), 3), np.float32),
                   ModalityKind(1): np.zeros((len(ageg), 2), np.float32)}
        owners = np.intersect1d(_as_str(ident), _as_str(ageg))
        if not owners.size:
            with pytest.raises(EmptyDatasetError):
                assemble_voice_inputs(vectors, records)
            return
        (rows, _), skipped = assemble_voice_inputs(vectors, records)
        assert rows.owner_id.tolist() == owners.tolist()
        assert skipped == np.setxor1d(_as_str(ident), _as_str(ageg),
                                      assume_unique=True).tolist()
