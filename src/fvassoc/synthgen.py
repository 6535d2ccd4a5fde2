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
    EmbeddingRecord,
    ModalityKind,
    write_store,
    write_store_file,
)
from .errors import ConfigError, check_min

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
    """Generate all four modality stores plus ground truth.

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

    records = []
    for s in speakers:
        z = latents[s]
        attr = np.array(attributes[s])
        lang = speaker_language[s]
        for group, ident_kind, ag_kind in (
            ("v", ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER),
            ("f", ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER),
        ):
            for i in range(cfg.records_per_speaker):
                owner = f"{s}:{group}{i:03d}"
                for kind, source in ((ident_kind, z), (ag_kind, attr)):
                    clean = projections[kind] @ source
                    noise = cfg.noise_sigma * rng.standard_normal(len(clean))
                    rid = f"{owner}#{kind.tag}"
                    records.append(
                        EmbeddingRecord(
                            record_id=rid,
                            speaker_id=s,
                            language=lang,
                            modality=kind,
                            vector=(clean + noise).astype(np.float32),
                        )
                    )

    truth = GroundTruth(
        latent_dim=k,
        latents=latents,
        attributes=attributes,
        projections=projections,
        speaker_language=speaker_language,
    )
    return records, truth


_IDENTITY_KINDS = {ModalityKind.VOICE_SPEAKER, ModalityKind.FACE_IDENTITY}


def write_dataset(cfg, out_dir, dataset_name="synthetic", base_truth=None,
                  projection_jitter=0.0):
    """Generate and materialize a dataset directory plus ground-truth sidecar."""
    records, truth = generate(cfg, base_truth, projection_jitter)
    manifest = write_store(records, out_dir, dataset_name=dataset_name)
    write_ground_truth(truth, Path(out_dir) / "ground_truth.fve")
    return manifest, records, truth


def write_ground_truth(truth, path):
    """Sidecar: per-speaker [z..., age_norm, gender] in the store container.

    Reuses the binary store format with modality code 0 and record ids equal
    to speaker ids; consumers recognize it by filename, not manifest.
    """
    k = truth.latent_dim
    recs = []
    for s in sorted(truth.latents):
        vec = np.concatenate(
            [truth.latents[s], np.array(truth.attributes[s])]
        ).astype(np.float32)
        recs.append(
            EmbeddingRecord(
                record_id=s,
                speaker_id=s,
                language=truth.speaker_language.get(s, "xx"),
                modality=ModalityKind.VOICE_SPEAKER,
                vector=vec,
            )
        )
    write_store_file(recs, path)
