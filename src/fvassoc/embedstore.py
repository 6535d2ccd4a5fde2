"""Embedding records, store format, manifests, input assembly, fold splits.

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
    """Read one .fve file; returns (modality, dim, list of (id, float32 vec)).

    A vector holding NaN or +-inf is a FormatError that names its record.
    """
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
    # no more rows than the file can hold; a larger count fails as truncated
    vecs = np.empty((min(count, (len(data) - off) // (2 + 4 * dim)), dim), "<f4")
    for i in range(count):
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
        vecs[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
        off += 4 * dim
        out.append((rid, vecs[i]))
    # a float64 sum of float32 values is non-finite only if one of them is
    bad = np.flatnonzero(~np.isfinite(vecs.sum(axis=1, dtype=np.float64)))
    if bad.size:
        raise FormatError(f"{path}: record {out[bad[0]][0]} has a non-finite value")
    return ModalityKind(modality_code), dim, out


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
    for modality, recs in by_mod.items():
        write_store_file(recs, out_dir / f"{modality.tag}.fve")
    lines = [MANIFEST_HEADER] + [
        f"{e.record_id}\t{e.speaker_id}\t{e.language}\t{e.modality.tag}\t{e.dim}"
        for e in entries
    ]
    (out_dir / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Manifest(dataset_name=dataset_name, entries=entries)


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


def _by_owner(records, kind):
    """Owner id -> the `kind` record of that owner; one record per owner."""
    out = {}
    for r in records:
        if r.modality == kind and out.setdefault(r.owner_id, r) is not r:
            raise SchemaError(f"owner {r.owner_id}: two {kind.tag} records")
    return out


def assemble_concat_inputs(records, identity_kind, agegender_kind):
    """Join identity and age-gender records on owner id into one table.

    Returns ((rows, x), skipped). `rows` is a record array with fields
    owner_id, speaker_id, language and row, sorted by owner id, with row i
    holding row == i; x[row] is the record's identity vector followed by its
    age-gender vector, in float64. Owners missing either component are
    skipped and listed, sorted, in `skipped`.
    Two records of one modality with the same owner, or an owner whose two
    records name different speakers, raise SchemaError; so does an empty
    result (EmptyDatasetError).
    """
    ident = _by_owner(records, identity_kind)
    ageg = _by_owner(records, agegender_kind)
    owners = sorted(ident.keys() & ageg.keys())
    skipped = sorted(ident.keys() ^ ageg.keys())
    if not owners:
        raise EmptyDatasetError(
            f"no assemblable {identity_kind.tag}+{agegender_kind.tag} inputs"
        )
    pairs = [(ident[o], ageg[o]) for o in owners]
    split = len(pairs[0][0].vector)
    x = np.empty((len(pairs), split + len(pairs[0][1].vector)))
    for i, (a, b) in enumerate(pairs):
        if a.speaker_id != b.speaker_id:
            raise SchemaError(
                f"owner {a.owner_id}: speaker mismatch across modalities"
            )
        x[i, :split] = a.vector
        x[i, split:] = b.vector
    rows = np.rec.fromarrays(
        [owners, [a.speaker_id for a, _ in pairs], [a.language for a, _ in pairs],
         np.arange(len(pairs))],
        names="owner_id,speaker_id,language,row",
    )
    return (rows, x), skipped


def assemble_voice_inputs(records):
    return assemble_concat_inputs(
        records, ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER
    )


def assemble_face_inputs(records):
    return assemble_concat_inputs(
        records, ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER
    )


def split_folds(speakers, n_folds, rng):
    """Shuffle speakers and deal them round-robin into n_folds folds; the
    folds come back as sorted speaker lists."""
    speakers = list(speakers)
    if n_folds < 1 or n_folds > len(speakers):
        raise ConfigError(
            f"n_folds={n_folds} invalid for {len(speakers)} speakers"
        )
    order = rng.permutation(len(speakers))
    return [sorted(speakers[i] for i in order[f::n_folds]) for f in range(n_folds)]
