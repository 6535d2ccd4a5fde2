import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc import traineval
from fvassoc.diffcore import make_rng
from fvassoc.embedstore import (
    FULL_DIMS,
    ConcatInput,
    Manifest,
    ManifestEntry,
    ModalityKind,
    assemble_face_inputs,
    assemble_voice_inputs,
)
from fvassoc.errors import (
    ConfigError,
    LookupError_,
    MetricError,
    ProtocolViolationError,
    SamplingError,
)
from fvassoc.fusion import MappingHead, XAttnModel, head_forward, xattn_forward
from fvassoc.synthgen import SynthConfig, generate
from fvassoc.traineval import (
    PairedDataset,
    TrainConfig,
    Trial,
    XAttnTrainConfig,
    audit_manifest,
    compute_eer,
    cross_validate,
    default_dev_trials,
    generate_trials,
    pretrain_then_finetune,
    run_scenarios,
    score_trials,
    score_trials_xattn,
    shuffle_speaker_labels,
    train_with_early_stopping,
    train_xattn,
)


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
    records, truth = generate(cfg, base_truth=base_truth, projection_jitter=jitter)
    voices, _ = assemble_voice_inputs(records)
    faces, _ = assemble_face_inputs(records)
    return PairedDataset(faces, voices), truth, records


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
    for s in held:
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
    trials = [Trial(*same_pool[i], True) for i in sorted(same_idx)]
    trials += [Trial(*cross_pool[i], False) for i in sorted(cross_idx)]
    return trials


def _inputs(kind, speaker_codes):
    """One 2-wide input per entry, owned by speaker `s<code>`, in list order."""
    return [
        ConcatInput(f"{kind}{i}", f"s{s}", "en", np.array([float(i), 1.0]))
        for i, s in enumerate(speaker_codes)
    ]


def _dataset(face_speakers, voice_speakers):
    return PairedDataset(_inputs("f", face_speakers), _inputs("v", voice_speakers))


def _pool_sizes(face_speakers, voice_speakers, held):
    faces = [s for s in face_speakers if f"s{s}" in held]
    voices = [s for s in voice_speakers if f"s{s}" in held]
    n_same = sum(voices.count(s) for s in faces)
    return n_same, len(faces) * len(voices) - n_same


def _outcome(sampler, *args):
    try:
        return [(t.face_id, t.voice_id, t.label) for t in sampler(*args)]
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

    def test_draw_from_5000_speakers(self):
        spk = np.repeat(np.arange(5000), 10)
        ds = _dataset(spk, spk[::-1])
        held = [f"s{i}" for i in range(5000)]
        trials = generate_trials(ds, held, 10_000, 10_000, make_rng(0))
        assert sum(t.label for t in trials) == 10_000
        assert len({(t.face_id, t.voice_id) for t in trials}) == 20_000
        held_set = set(held)
        for t in trials:
            fs = ds.face_by_id[t.face_id].speaker_id
            vs = ds.voice_by_id[t.voice_id].speaker_id
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
        for t in trials:
            fs = ds.face_by_id[t.face_id].speaker_id
            vs = ds.voice_by_id[t.voice_id].speaker_id
            assert t.label == (fs == vs)
            assert fs in held and vs in held

    def test_determinism(self):
        ds, _, _ = make_dataset(n_speakers=5)
        held = ["s000", "s001"]
        a = generate_trials(ds, held, 10, 10, make_rng(3))
        b = generate_trials(ds, held, 10, 10, make_rng(3))
        assert a == b


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
    xf = np.stack([dataset.face_by_id[t.face_id].vector for t in trials])
    xv = np.stack([dataset.voice_by_id[t.voice_id].vector for t in trials])
    yf, _ = head_forward(head_face, xf, train=False)
    yv, _ = head_forward(head_voice, xv, train=False)
    norms = np.linalg.norm(yf, axis=1) * np.linalg.norm(yv, axis=1)
    return (yf * yv).sum(axis=1) / norms


def _scoring_case(n_faces, n_voices, face_dim, voice_dim, seed, out_dim=192):
    """Random records of both modalities and two eval-mode heads."""
    rng = make_rng(seed)

    def inputs(kind, n, dim):
        return [
            ConcatInput(f"{kind}{i}", f"s{i}", "en", rng.standard_normal(dim))
            for i in range(n)
        ]

    ds = PairedDataset(inputs("f", n_faces, face_dim),
                       inputs("v", n_voices, voice_dim))
    head_f = MappingHead.init(rng, face_dim, out_dim, p_drop=0.0)
    head_v = MappingHead.init(rng, voice_dim, out_dim, p_drop=0.0)
    return ds, head_f, head_v


def _random_trials(ds, n, rng):
    """n trials over the dataset's records, ids repeated, in random order."""
    f = rng.integers(0, len(ds.face_inputs), size=n)
    v = rng.integers(0, len(ds.voice_inputs), size=n)
    return [
        Trial(ds.face_inputs[i].owner_id, ds.voice_inputs[j].owner_id, i == j)
        for i, j in zip(f.tolist(), v.tolist())
    ]


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

    def test_trial_order_only_permutes_scores(self):
        ds, head_f, head_v = _scoring_case(12, 10, 56, 80, seed=31)
        trials = _random_trials(ds, 500, make_rng(32))
        order = make_rng(33).permutation(len(trials))
        scores = score_trials(head_f, head_v, trials, ds)
        shuffled = score_trials(head_f, head_v, [trials[i] for i in order], ds)
        assert np.array_equal(shuffled, scores[order])

    def test_xattn_scores_the_same_pair_rows(self):
        ds, _, _ = _scoring_case(8, 9, 11, 13, seed=41)
        trials = _random_trials(ds, 200, make_rng(42))
        model = XAttnModel.init(make_rng(43), voice_in_dim=13, face_in_dim=11,
                                d_model=4)
        xf = np.stack([ds.face_by_id[t.face_id].vector for t in trials])
        xv = np.stack([ds.voice_by_id[t.voice_id].vector for t in trials])
        want, _ = xattn_forward(model, xv, xf, train=False)
        assert np.array_equal(score_trials_xattn(model, trials, ds), want)

    def test_unknown_ids_are_checked_per_modality(self):
        ds, head_f, head_v = _scoring_case(3, 3, 4, 4, seed=51)
        trials = [Trial("f0", "v0", True), Trial("v1", "v2", False),
                  Trial("f1", "ghost", False), Trial("f0", "f2", False)]
        with pytest.raises(LookupError_) as exc:
            score_trials(head_f, head_v, trials, ds)
        assert str(exc.value).endswith("face v1, voice f2, voice ghost")

    def test_no_trials_give_no_scores(self):
        ds, head_f, head_v = _scoring_case(2, 2, 4, 4, seed=61)
        assert score_trials(head_f, head_v, [], ds).shape == (0,)


def _sampled_pairs(face_speakers, voice_speakers, batch_size, seed):
    """(face record, voice record, label) of each pair `_sample_pairs` draws
    from a `_dataset`, records given as list indices (an input's first
    element)."""
    ds = _dataset(face_speakers, voice_speakers)
    code = {s: i for i, s in enumerate(ds.speakers())}
    xf, yf, xv, yv = ds.matrices(code)
    xf, xv, y = traineval._sample_pairs(
        traineval._by_speaker(xf, yf, len(code)),
        traineval._by_speaker(xv, yv, len(code)),
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
        ds, _, _ = make_dataset()
        spk = ds.speakers()
        trials = default_dev_trials(ds, spk[:2], quick_cfg(), make_rng(0))
        best, log = TRAINERS[trainer](ds.subset(spk[2:]), trials, ds)
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


class TestCrossValidate:
    def test_structure_and_mean(self):
        ds, _, _ = make_dataset(n_speakers=8)
        cfg = quick_cfg(max_steps=40, eval_every=20)
        cv = cross_validate(ds, cfg, n_folds=4)
        assert len(cv["folds"]) == 4
        eers = [f["eer"] for f in cv["folds"]]
        assert abs(cv["mean_eer"] - np.mean(eers)) <= 1e-12

    def test_fold_speaker_sets_disjoint(self):
        ds, _, _ = make_dataset(n_speakers=9)
        cfg = quick_cfg(max_steps=20, eval_every=20)
        cv = cross_validate(ds, cfg, n_folds=3)
        seen = []
        for f in cv["folds"]:
            seen.extend(f["held_out_speakers"])
        assert len(seen) == len(set(seen)) == 9

    def test_shuffled_labels_are_chance_level(self):
        ds, _, _ = make_dataset(n_speakers=12, records_per_speaker=6)
        shuffled = shuffle_speaker_labels(ds, make_rng(17))
        cfg = quick_cfg(max_steps=60, eval_every=20)
        cv = cross_validate(shuffled, cfg, n_folds=3)
        assert 0.40 <= cv["mean_eer"] <= 0.60


class TestPretrainFinetune:
    def test_zero_lr_finetune_matches_frozen(self):
        ds_a, truth, _ = make_dataset(n_speakers=10, records_per_speaker=4)
        ds_b, _, _ = make_dataset(
            n_speakers=10, records_per_speaker=4, seed=5,
            base_truth=truth, jitter=0.5,
        )
        cfg_pre = quick_cfg(max_steps=60, eval_every=20)
        cfg_ft = quick_cfg(lr=0.0, max_steps=20, eval_every=10)
        res = pretrain_then_finetune(ds_a, ds_b, cfg_pre, cfg_ft, n_folds=3)
        for fold in res["finetune"]["folds"]:
            assert fold["eer"] == pytest.approx(fold["frozen_init_eer"], abs=1e-12)

    def test_report_contains_both_stages(self):
        ds_a, truth, _ = make_dataset(n_speakers=8, records_per_speaker=3)
        ds_b, _, _ = make_dataset(
            n_speakers=8, records_per_speaker=3, seed=5,
            base_truth=truth, jitter=0.3,
        )
        cfg = quick_cfg(max_steps=30, eval_every=15)
        res = pretrain_then_finetune(ds_a, ds_b, cfg, cfg, n_folds=2)
        assert "dev_eer" in res["pretrain"]
        assert "mean_eer" in res["finetune"]
        assert "frozen_mean_eer" in res


def multilingual_corpus(seed, excluded=None, n_speakers=12):
    ds, _, records = make_dataset(
        n_speakers=n_speakers,
        records_per_speaker=4,
        seed=seed,
        languages={"en": 0.4, "de": 0.4, "fr": 0.2},
    )
    entries = [
        ManifestEntry(r.record_id, r.speaker_id, r.language, r.modality,
                      len(r.vector))
        for r in records
    ]
    manifest = Manifest(dataset_name=f"corpus{seed}", entries=entries)
    if excluded is not None:
        from fvassoc.embedstore import filter_exclude_language

        manifest = filter_exclude_language(manifest, excluded)
        keep_spk = {e.speaker_id for e in manifest.entries}
        ds = ds.subset(keep_spk)
    return manifest, ds


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
        manifest, _ = corpora["english_unheard"]["pretrain"]
        manifest.entries.append(
            ManifestEntry("leak#vspk", "sX", "en", ModalityKind.VOICE_SPEAKER, 4)
        )
        test_ds, _, _ = make_dataset(
            n_speakers=12, records_per_speaker=4, seed=3,
            languages={"en": 0.5, "de": 0.5},
        )
        with pytest.raises(ProtocolViolationError):
            run_scenarios(
                corpora, test_ds, quick_cfg(max_steps=10, eval_every=10),
                n_trials_target=10, n_trials_nontarget=10,
            )
