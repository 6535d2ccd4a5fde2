import numpy as np

from fvassoc.embedstore import ModalityKind, read_store, read_store_file
from fvassoc.synthgen import SynthConfig, generate, write_dataset


def read_ground_truth_latents(path):
    """Read the sidecar back: speaker -> (latent, age_norm, gender)."""
    _, ids, vecs = read_store_file(path)
    out = {}
    for rid, vec in zip(ids.tolist(), vecs):
        out[rid] = (vec[:-2].astype(np.float64), float(vec[-2]), float(vec[-1]))
    return out


def small_cfg(**kw):
    defaults = dict(
        n_speakers=6,
        latent_dim=8,
        noise_sigma=0.01,
        records_per_speaker=3,
        seed=11,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


def test_zero_noise_same_speaker_identical_vectors():
    vectors, records, _ = generate(small_cfg(noise_sigma=0.0))
    voice = records[(records.speaker_id == "s000")
                    & (records.modality == ModalityKind.VOICE_SPEAKER)]
    assert len(voice) >= 2
    vecs = vectors[ModalityKind.VOICE_SPEAKER][voice.row]
    assert np.array_equal(vecs[0], vecs[1])


def test_distinct_speaker_latents_near_orthogonal():
    cfg = small_cfg(n_speakers=40, latent_dim=16)
    _, _, truth = generate(cfg)
    rng = np.random.default_rng(0)
    speakers = sorted(truth.latents)
    sims = []
    for _ in range(100):
        a, b = rng.choice(len(speakers), size=2, replace=False)
        za, zb = truth.latents[speakers[a]], truth.latents[speakers[b]]
        sims.append(za @ zb / (np.linalg.norm(za) * np.linalg.norm(zb)))
    assert abs(np.mean(sims)) <= 0.3


def test_same_seed_bit_identical_stores(tmp_path):
    cfg = small_cfg()
    write_dataset(cfg, tmp_path / "a")
    write_dataset(cfg, tmp_path / "b")
    for name in ("manifest.tsv", "vspk.fve", "vag.fve", "fid.fve", "fag.fve",
                 "ground_truth.fve"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_generated_store_round_trips(tmp_path):
    vectors, records, _ = write_dataset(small_cfg(), tmp_path / "ds")
    back_vectors, back = read_store(tmp_path / "ds")
    assert len(back) == len(records)
    assert back.record_id.tolist() == records.record_id.tolist()
    assert all(
        np.array_equal(vectors[a.modality][a.row], back_vectors[b.modality][b.row])
        for a, b in zip(records, back)
    )


def test_ground_truth_sidecar_round_trip(tmp_path):
    _, _, truth = write_dataset(small_cfg(), tmp_path / "ds")
    latents = read_ground_truth_latents(tmp_path / "ds" / "ground_truth.fve")
    assert sorted(latents) == sorted(truth.latents)
    z, age, gender = latents["s000"]
    assert np.allclose(z, truth.latents["s000"], atol=1e-6)
    assert abs(age - truth.attributes["s000"][0]) <= 1e-6
    assert gender == truth.attributes["s000"][1]


def test_language_assignment_follows_config():
    cfg = small_cfg(n_speakers=30, languages={"en": 0.5, "de": 0.3, "fr": 0.2})
    _, records, truth = generate(cfg)
    langs = set(truth.speaker_language.values())
    assert langs <= {"en", "de", "fr"}
    for r in records:
        assert r.language == truth.speaker_language[r.speaker_id]


def test_domain_shift_reuses_latents():
    cfg = small_cfg()
    _, _, truth = generate(cfg)
    shifted_cfg = small_cfg(seed=99)
    _, _, shifted = generate(shifted_cfg, base_truth=truth, projection_jitter=0.5)
    for s in truth.latents:
        assert np.array_equal(truth.latents[s], shifted.latents[s])
    g0 = truth.projections[ModalityKind.VOICE_SPEAKER]
    g1 = shifted.projections[ModalityKind.VOICE_SPEAKER]
    assert not np.array_equal(g0, g1)
