"""Synthetic embedding generator with known identity structure.

Every speaker gets a latent identity vector z (k-dim Gaussian) plus age and
gender attributes. Identity-modality embeddings are G_m @ z + noise, where
G_m is a fixed per-modality projection; age-gender embeddings are
H_m @ [age_norm, gender] + noise. All four modalities of one speaker derive
from the same z and attributes, which is exactly the cross-modal structure
the fusion heads are supposed to exploit — so a trained system's EER on this
data is checkable against ground truth.

Projections have i.i.d. Gaussian entries scaled by 1/sqrt(latent dim) so
embedding norms stay O(1) regardless of output dims.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffcore import make_rng
from .embedstore import (
    ModalityKind,
    record_table,
    write_store,
    write_store_file,
)
from .errors import ConfigError, check_fits, check_min

SMALL_DIMS = {
    ModalityKind.VOICE_SPEAKER: 64,
    ModalityKind.VOICE_AGE_GENDER: 16,
    ModalityKind.FACE_IDENTITY: 48,
    ModalityKind.FACE_AGE_GENDER: 8,
}

@dataclass
class SynthConfig:
    n_speakers: int = 30
    latent_dim: int = 16
    dims: dict = field(default_factory=lambda: dict(SMALL_DIMS))
    noise_sigma: float = 0.01
    records_per_speaker: int = 10
    seed: int = 0
    # language tag -> probability of a speaker being assigned that language
    languages: dict = field(default_factory=lambda: {"en": 0.5, "de": 0.5})

    def validate(self):
        check_min(self, n_speakers=1, latent_dim=1, noise_sigma=0,
                  records_per_speaker=1, seed=0)
        for kind in ModalityKind:
            if self.dims.get(kind, 0) < 1:
                raise ConfigError(f"missing or bad dim for {kind.tag}")
        n, k = self.n_speakers, self.latent_dim
        check_fits("n_speakers and latent_dim", n, k + 64)  # latents, ids, ages
        check_fits("dims and latent_dim", max(self.dims.values()), k)  # projections
        check_fits("n_speakers, records_per_speaker and dims",
                   n * self.records_per_speaker, sum(self.dims.values()), itemsize=4)
        probs = self.languages.values()
        if not probs or min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError("language probabilities must be >= 0 and sum to 1")


@dataclass
class GroundTruth:
    latent_dim: int
    latents: dict  # speaker_id -> (k,) array
    attributes: dict  # speaker_id -> (age_norm, gender)
    projections: dict  # ModalityKind -> projection matrix
    speaker_language: dict  # speaker_id -> language tag


def _speaker_ids(n):
    return [f"s{i:03d}" for i in range(n)]


def generate(cfg, base_truth=None, projection_jitter=0.0):
    """Generate all four modality stores plus ground truth, as
    (vectors, records, truth).

    With `base_truth` set, speaker latents and attributes are reused and the
    projections are perturbed by Gaussian noise of scale `projection_jitter`
    — a controlled domain shift between two corpora sharing identities.
    """
    cfg.validate()
    rng = make_rng(cfg.seed)
    k = cfg.latent_dim
    speakers = _speaker_ids(cfg.n_speakers)

    if base_truth is None:
        latents = {s: rng.standard_normal(k) for s in speakers}
        attributes = {
            s: ((rng.uniform(18.0, 80.0) - 18.0) / 62.0, float(rng.integers(0, 2)))
            for s in speakers
        }
        projections = {}
        for kind in ModalityKind:
            d = cfg.dims[kind]
            in_dim = k if kind in _IDENTITY_KINDS else 2
            projections[kind] = rng.standard_normal((d, in_dim)) / np.sqrt(in_dim)
    else:
        if base_truth.latent_dim != k:
            raise ConfigError("base_truth latent dim does not match config")
        latents = {s: base_truth.latents[s] for s in speakers}
        attributes = {s: base_truth.attributes[s] for s in speakers}
        projections = {
            kind: g + projection_jitter * rng.standard_normal(g.shape)
            for kind, g in base_truth.projections.items()
        }

    tags = sorted(cfg.languages)
    probs = np.array([cfg.languages[t] for t in tags])
    speaker_language = {
        s: tags[int(rng.choice(len(tags), p=probs))] for s in speakers
    }

    # Each speaker's records: its voices, then its faces, owner by owner,
    # identity before age-gender. Noise is drawn in that order, one block
    # per speaker and group; record i of a speaker is row i of its block.
    r = cfg.records_per_speaker
    vectors = {
        kind: np.empty((len(speakers) * r, cfg.dims[kind]), np.float32)
        for kind in ModalityKind
    }
    for si, s in enumerate(speakers):
        sources = (latents[s], np.array(attributes[s]))
        for _, *kinds in _GROUPS:
            widths = [cfg.dims[kind] for kind in kinds]
            noise = cfg.noise_sigma * rng.standard_normal((r, sum(widths)))
            for kind, source, block in zip(kinds, sources,
                                           np.split(noise, widths[:1], axis=1)):
                vectors[kind][si * r : (si + 1) * r] = projections[kind] @ source + block
    records = record_table(*zip(*(
        (f"{s}:{group}{i:03d}#{kind.tag}", s, speaker_language[s], kind, si * r + i)
        for si, s in enumerate(speakers)
        for group, *kinds in _GROUPS
        for i in range(r)
        for kind in kinds
    )))

    truth = GroundTruth(
        latent_dim=k,
        latents=latents,
        attributes=attributes,
        projections=projections,
        speaker_language=speaker_language,
    )
    return vectors, records, truth


_IDENTITY_KINDS = {ModalityKind.VOICE_SPEAKER, ModalityKind.FACE_IDENTITY}
_GROUPS = (("v", ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER),
           ("f", ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER))


def write_dataset(cfg, out_dir):
    """Generate and materialize a dataset directory plus ground-truth
    sidecar; returns generate's (vectors, records, truth)."""
    vectors, records, truth = generate(cfg)
    write_store(vectors, records, out_dir)
    write_ground_truth(truth, Path(out_dir) / "ground_truth.fve")
    return vectors, records, truth


def write_ground_truth(truth, path):
    """Sidecar: per-speaker [z..., age_norm, gender] in the store container.

    Reuses the binary store format with modality code 0 and record ids equal
    to speaker ids; consumers recognize it by filename, not manifest.
    """
    speakers = sorted(truth.latents)
    vecs = [np.concatenate([truth.latents[s], truth.attributes[s]]) for s in speakers]
    write_store_file(path, ModalityKind.VOICE_SPEAKER, speakers, vecs, range(len(vecs)))
