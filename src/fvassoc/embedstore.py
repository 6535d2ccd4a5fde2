"""Embedding records, binary store format, manifests, and fold splitting.

On-disk layout of a dataset directory:

    manifest.tsv     record_id<TAB>speaker_id<TAB>language<TAB>modality<TAB>dim
    vspk.fve         voice speaker-identity embeddings
    vag.fve          voice age-gender embeddings
    fid.fve          face identity embeddings
    fag.fve          face age-gender embeddings

Binary store format (little-endian throughout):

    magic   4 bytes  b"FVE1"
    version u32      = 1
    modality u8      0..3 in ModalityKind order
    dim     u32
    count   u32
    then `count` records, each:
        id_len  u16
        id      UTF-8 bytes
        vector  dim x float32

Vectors are stored in 32-bit and upcast to 64-bit on load for training.

Record ids follow the convention ``<owner_id>#<modality tag>`` so the
identity and age-gender embedding of the same utterance/image can be matched
by their shared owner prefix.
"""

import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyDatasetError,
    FormatError,
    SchemaError,
)

MAGIC = b"FVE1"
FORMAT_VERSION = 1


class ModalityKind(IntEnum):
    VOICE_SPEAKER = 0
    VOICE_AGE_GENDER = 1
    FACE_IDENTITY = 2
    FACE_AGE_GENDER = 3

    @property
    def tag(self):
        return _TAGS[self]

    @classmethod
    def from_tag(cls, tag):
        for kind, t in _TAGS.items():
            if t == tag:
                return kind
        raise SchemaError(f"unknown modality tag {tag!r}")


_TAGS = {
    ModalityKind.VOICE_SPEAKER: "vspk",
    ModalityKind.VOICE_AGE_GENDER: "vag",
    ModalityKind.FACE_IDENTITY: "fid",
    ModalityKind.FACE_AGE_GENDER: "fag",
}

# Backbone embedding widths at full deployment scale.
FULL_DIMS = {
    ModalityKind.VOICE_SPEAKER: 6144,
    ModalityKind.VOICE_AGE_GENDER: 1536,
    ModalityKind.FACE_IDENTITY: 4096,
    ModalityKind.FACE_AGE_GENDER: 768,
}

MANIFEST_HEADER = "record_id\tspeaker_id\tlanguage\tmodality\tdim"


@dataclass
class EmbeddingRecord:
    record_id: str
    speaker_id: str
    language: str
    modality: ModalityKind
    vector: np.ndarray  # float32

    @property
    def owner_id(self):
        return self.record_id.split("#", 1)[0]


@dataclass
class ManifestEntry:
    record_id: str
    speaker_id: str
    language: str
    modality: ModalityKind
    dim: int


@dataclass
class Manifest:
    dataset_name: str
    entries: list

    def languages(self):
        return sorted({e.language for e in self.entries})

    def speakers(self):
        return sorted({e.speaker_id for e in self.entries})


def write_store_file(records, path):
    """Write one modality's records to a single .fve file."""
    if not records:
        raise EmptyDatasetError(f"no records to write to {path}")
    modality = records[0].modality
    dim = len(records[0].vector)
    for r in records:
        if r.modality != modality:
            raise SchemaError(
                f"mixed modalities in one store: {modality.tag} vs {r.modality.tag}"
            )
        if len(r.vector) != dim:
            raise SchemaError(
                f"record {r.record_id}: dim {len(r.vector)} != store dim {dim}"
            )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBII", FORMAT_VERSION, int(modality), dim, len(records)))
        for r in records:
            ident = r.record_id.encode("utf-8")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(np.asarray(r.vector, dtype="<f4").tobytes())


def read_store_file(path):
    """Read one .fve file; returns (modality, dim, list of (id, float32 vec))."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 17:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    version, modality_code, dim, count = struct.unpack("<IBII", data[4:17])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if modality_code not in (0, 1, 2, 3):
        raise FormatError(f"{path}: bad modality code {modality_code}")
    off = 17
    out = []
    for _ in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated record header at byte {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        end = off + id_len + 4 * dim
        if end > len(data):
            raise FormatError(f"{path}: truncated record at byte {off}")
        try:
            rid = data[off : off + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record id at byte {off} is not UTF-8") from exc
        off += id_len
        vec = np.frombuffer(data[off : off + 4 * dim], dtype="<f4").copy()
        off += 4 * dim
        out.append((rid, vec))
    return ModalityKind(modality_code), dim, out


def write_manifest(manifest, path):
    lines = [MANIFEST_HEADER]
    for e in manifest.entries:
        lines.append(
            f"{e.record_id}\t{e.speaker_id}\t{e.language}\t{e.modality.tag}\t{e.dim}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path, dataset_name=None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise FormatError(f"{path}: bad manifest header")
    entries = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}: bad manifest row {ln!r}")
        rid, spk, lang, tag, dim = parts
        try:
            dim = int(dim)
        except ValueError as exc:
            raise FormatError(f"{path}: bad dim in manifest row {ln!r}") from exc
        entries.append(ManifestEntry(rid, spk, lang, ModalityKind.from_tag(tag), dim))
    name = dataset_name if dataset_name is not None else Path(path).parent.name
    return Manifest(dataset_name=name, entries=entries)


def write_store(records, out_dir, dataset_name="dataset"):
    """Write a full dataset directory: one .fve per modality plus manifest."""
    if not records:
        raise EmptyDatasetError("no records to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_mod = {}
    for r in records:
        by_mod.setdefault(r.modality, []).append(r)
    entries = [
        ManifestEntry(r.record_id, r.speaker_id, r.language, r.modality, len(r.vector))
        for r in records
    ]
    manifest = Manifest(dataset_name=dataset_name, entries=entries)
    for modality, recs in by_mod.items():
        write_store_file(recs, out_dir / f"{modality.tag}.fve")
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


def read_store(in_dir):
    """Read a dataset directory back; returns (Manifest, records).

    Round-trips write_store losslessly (vectors compared at 32-bit).
    """
    in_dir = Path(in_dir)
    manifest = read_manifest(in_dir / "manifest.tsv")
    meta = {(e.record_id): e for e in manifest.entries}
    if len(meta) != len(manifest.entries):
        raise SchemaError(f"{in_dir}: duplicate record ids in manifest")
    records = {}
    for tag in _TAGS.values():
        path = in_dir / f"{tag}.fve"
        if not path.exists():
            continue
        modality, dim, rows = read_store_file(path)
        if modality.tag != tag:
            raise SchemaError(f"{path}: modality code {modality.tag} != filename tag")
        for rid, vec in rows:
            e = meta.get(rid)
            if e is None:
                raise SchemaError(f"{path}: record {rid} missing from manifest")
            if e.dim != dim or len(vec) != dim:
                raise SchemaError(
                    f"{path}: record {rid} dim {len(vec)} != manifest dim {e.dim}"
                )
            records[rid] = EmbeddingRecord(rid, e.speaker_id, e.language, modality, vec)
    ordered = []
    for e in manifest.entries:
        r = records.get(e.record_id)
        if r is None:
            raise SchemaError(f"{in_dir}: manifest record {e.record_id} has no vector")
        ordered.append(r)
    return manifest, ordered


def filter_exclude_language(manifest, excluded):
    """Drop every entry whose language equals `excluded`; order preserved."""
    kept = [e for e in manifest.entries if e.language != excluded]
    return Manifest(dataset_name=manifest.dataset_name, entries=kept)


def filter_records_exclude_language(records, excluded):
    return [r for r in records if r.language != excluded]


@dataclass
class ConcatInput:
    """One utterance/image with identity and age-gender vectors concatenated.

    Order is fixed: identity embedding first, age-gender second.
    """

    owner_id: str
    speaker_id: str
    language: str
    identity_record_id: str
    agegender_record_id: str
    vector: np.ndarray  # float64


def assemble_concat_inputs(records, identity_kind, agegender_kind):
    """Pair identity and age-gender records by owner id and concatenate.

    Owners missing either component are skipped and reported in the second
    return value. Raises if nothing can be assembled.
    """
    ident = {r.owner_id: r for r in records if r.modality == identity_kind}
    ageg = {r.owner_id: r for r in records if r.modality == agegender_kind}
    out = []
    skipped = []
    for owner, r in ident.items():
        other = ageg.get(owner)
        if other is None:
            skipped.append(owner)
            continue
        if other.speaker_id != r.speaker_id:
            raise SchemaError(f"owner {owner}: speaker mismatch across modalities")
        vec = np.concatenate(
            [r.vector.astype(np.float64), other.vector.astype(np.float64)]
        )
        out.append(
            ConcatInput(
                owner_id=owner,
                speaker_id=r.speaker_id,
                language=r.language,
                identity_record_id=r.record_id,
                agegender_record_id=other.record_id,
                vector=vec,
            )
        )
    skipped.extend(owner for owner in ageg if owner not in ident)
    if not out:
        raise EmptyDatasetError(
            f"no assemblable {identity_kind.tag}+{agegender_kind.tag} inputs"
        )
    out.sort(key=lambda c: c.owner_id)
    return out, sorted(skipped)


def assemble_voice_inputs(records):
    return assemble_concat_inputs(
        records, ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER
    )


def assemble_face_inputs(records):
    return assemble_concat_inputs(
        records, ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER
    )


@dataclass
class FoldPlan:
    n_folds: int
    assignments: dict  # speaker_id -> fold index

    def fold_speakers(self, fold):
        return sorted(s for s, f in self.assignments.items() if f == fold)


def split_folds(speakers, n_folds, rng):
    """Shuffle speakers and deal them round-robin into n_folds folds."""
    speakers = list(speakers)
    if n_folds < 1 or n_folds > len(speakers):
        raise ConfigError(
            f"n_folds={n_folds} invalid for {len(speakers)} speakers"
        )
    order = list(rng.permutation(len(speakers)))
    assignments = {}
    for pos, idx in enumerate(order):
        assignments[speakers[idx]] = pos % n_folds
    return FoldPlan(n_folds=n_folds, assignments=assignments)
