"""Embedding stores, manifests, input assembly, fold splits.

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

In memory a stored dataset is one pair (vectors, records): one float32
matrix per ModalityKind, and a `record_table` whose record r has its vector
at vectors[r.modality][r.row]. The reader, the writer, the synthetic
generator and input assembly all take this pair. The input matrices that
assembly builds stay float32 as stored; the numerics widen the rows they
gather to float64, which is exact.

Record ids follow the convention ``<owner_id>#<modality tag>`` so the
identity and age-gender embedding of the same utterance/image can be matched
by their shared owner prefix.

`read_tsv` reads the manifest and trial files: it cuts column arrays out of
a file's bytes with no Python object per row, and reads the file as text
only to name a bad row.
"""

import contextlib
import struct
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


def record_table(record_ids, speaker_ids, languages, modalities, rows):
    """The records of a stored dataset: a record array of record_id,
    speaker_id, language, modality (a ModalityKind code) and row, one entry
    per record; vectors[modality][row] is the record's vector."""
    return np.rec.fromarrays(
        [record_ids, speaker_ids, languages, modalities, rows],
        names="record_id,speaker_id,language,modality,row",
    )


def read_tsv(path, header, what, choices):
    """The columns of the tab-separated file at `path`: str arrays of the
    dtype np.array(cells, str) has, and for j in `choices` each cell's int8
    index in choices[j] (bytes); None if a row has other than the header's
    number of fields or a cell is none of its choices. Lines end as in text
    mode and blank lines are skipped; a file that is not UTF-8 or does not
    start with `header` is a FormatError naming it as `what`, and so is a
    NUL character, naming the first row that holds one. No Python
    object is made per row or cell; a non-ASCII column decodes each
    distinct cell once."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8 text") from exc
    data = data.lstrip(b"\n")  # a copy only if blank lines lead
    if not data.endswith(b"\n"):  # every line, the last too, ends in "\n"
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    newline = buf == 10
    blank = np.flatnonzero(newline[1:] & newline[:-1]) + 1  # "\n" after "\n"
    if blank.size:
        buf, newline = np.delete(buf, blank), np.delete(newline, blank)
    head = np.frombuffer(header.encode() + b"\n", np.uint8)
    if not np.array_equal(buf[: len(head)], head):  # "bad trials header"
        raise FormatError(f"{path}: bad {what.split()[0]} header")
    buf, newline = buf[len(head) :], newline[len(head) :]
    if not buf.all():  # a numpy str would drop a trailing NUL
        bad = next(ln for ln in tsv_rows(path) if "\0" in ln)
        raise FormatError(f"{path}: NUL character in {what} row {bad!r}")
    ends = np.flatnonzero(newline | (buf == 9))  # each cell's end
    n = header.count("\t") + 1
    # every row has n fields just when each n-th cell, and no other, ends a line
    newline = newline[ends]
    if newline.sum() * n != len(ends) or not newline[n - 1 :: n].all():
        return None
    starts = np.concatenate([[0], ends + 1])[: len(ends)].reshape(-1, n)
    lens = ends.reshape(-1, n) - starts
    padded = np.concatenate([buf, np.zeros(max(lens.max(initial=0), 1), np.uint8)])
    del data, buf, ends, newline, blank
    columns = []
    for j in range(n):
        width = max(lens[:, j].max(initial=0), 1)
        # every `width`-byte window of the file as one item, and per length
        # L a row of L ones: one gather each cuts and 0-pads every cell
        windows = np.ndarray(len(padded) - width + 1, f"S{width}", padded, strides=(1,))
        keep = np.tri(width + 1, width, -1, np.uint8).view(f"S{width}")[:, 0]
        as_bytes = windows[starts[:, j]]
        cells = as_bytes.view(np.uint8).reshape(-1, width)  # (rows, width)
        cells *= keep[lens[:, j]].view(np.uint8).reshape(-1, width)
        if j in choices:  # lengths too: "same\0" is not "same"
            hits = [(lens[:, j] == len(v)) & (as_bytes == v) for v in choices[j]]
            if not np.logical_or.reduce(hits).all():
                return None
            columns.append(np.argmax(hits, axis=0).astype(np.int8))
        else:
            columns.append(_decode(cells))
    return columns


def _decode(cells):
    """The str of each row of a 0-padded uint8 matrix of UTF-8 bytes, as
    np.array(strs, str) holds them: ASCII widened from its bytes, any other
    decoded once per distinct row."""
    if cells.max(initial=0) < 128:  # each byte is one character
        return cells.astype(np.uint32).view(f"U{cells.shape[1]}")[:, 0]
    rows = np.ascontiguousarray(cells).view(f"S{cells.shape[1]}")[:, 0]
    names, at = np.unique(rows, return_inverse=True)
    return np.array([name.decode() for name in names.tolist()], str)[at]


def tsv_rows(path):
    """The rows after the header of a file read_tsv read, as str lines."""
    return [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln][1:]


def write_store_file(path, modality, ids, vecs, rows):
    """Write one modality's records to a single .fve file: record i has id
    ids[i] and vector vecs[rows[i]]."""
    if not len(ids):
        raise EmptyDatasetError(f"no records to write to {path}")
    vecs = np.ascontiguousarray(vecs, dtype="<f4")
    dim = vecs.shape[1]
    blob = memoryview(vecs.reshape(-1)).cast("B")
    parts = [MAGIC, struct.pack("<IBII", FORMAT_VERSION, modality, dim, len(ids))]
    for rid, row in zip(ids, rows):
        ident = rid.encode("utf-8")
        parts += [struct.pack("<H", len(ident)), ident,
                  blob[4 * dim * row : 4 * dim * (row + 1)]]
    with open(path, "wb") as fh:
        fh.writelines(parts)


def _read_fixed_width(data, dim, count):
    """(ids, vecs) of a store's `count` records, read as one strided byte
    view, if every id has one byte length and is UTF-8 with no NUL; else
    None, and the records are read one at a time."""
    width = int.from_bytes(data[17:19], "little")
    size = 2 + width + 4 * dim
    if count and width and len(data) == 17 + count * size:
        records = np.frombuffer(data, np.uint8, offset=17).reshape(count, size)
        raw = records[:, 2 : 2 + width]
        if (records[:, :2] == records[0, :2]).all() and raw.all():
            vecs = np.ascontiguousarray(records[:, 2 + width :]).view("<f4")
            with contextlib.suppress(UnicodeDecodeError):  # else None
                return _decode(raw), vecs


def read_store_file(path):
    """Read one .fve file; returns (modality, ids, vecs): a str array of
    record ids and a float32 matrix whose row i is record i's vector.

    Bytes after the last record, a record id with a NUL character, or a
    vector holding NaN or +-inf (named by its record), are a FormatError.
    A file whose ids all have one byte length is read by `_read_fixed_width`,
    any other, or one with a bad id, record by record.
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
    ids, vecs = (_read_fixed_width(data, dim, count)
                 or _read_records(path, data, dim, count))
    # a float64 sum of float32 values is non-finite only if one of them is
    bad = np.flatnonzero(~np.isfinite(vecs.sum(axis=1, dtype=np.float64)))
    if bad.size:
        raise FormatError(f"{path}: record {ids[bad[0]]} has a non-finite value")
    return ModalityKind(modality_code), ids, vecs


def _read_records(path, data, dim, count):
    """(ids, vecs) of a store's records, read one at a time."""
    view = memoryview(data)
    off = 17
    ids, blocks = [], []
    for _ in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated record header at byte {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        end = off + id_len + 4 * dim
        if end > len(data):
            raise FormatError(f"{path}: truncated record at byte {off}")
        try:
            ids.append(str(view[off : off + id_len], "utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record id at byte {off} is not UTF-8") from exc
        if "\0" in ids[-1]:  # a numpy str would drop a trailing NUL
            raise FormatError(f"{path}: record id at byte {off} has a NUL")
        blocks.append(view[off + id_len : end])
        off = end
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes at byte {off}")
    # one copy of all vectors; a vector's offset need not be 4-byte aligned
    vecs = np.frombuffer(bytearray().join(blocks), dtype="<f4").reshape(count, dim)
    return np.array(ids, dtype=str), vecs


def _read_manifest(path):
    """The manifest's record id, speaker id, language, modality (as
    ModalityKind codes) and dim columns as arrays, in file order."""
    cols = read_tsv(path, MANIFEST_HEADER, "manifest",
                    {3: [kind.tag.encode() for kind in ModalityKind]})
    if cols is not None:
        ids, speakers, languages, codes, dims = cols
        names, dim_at = np.unique(dims, return_inverse=True)
        try:
            dims = np.array([int(d) for d in names.tolist()], np.int64)[dim_at]
            return ids, speakers, languages, codes, dims
        except (ValueError, OverflowError):
            pass
    for ln in tsv_rows(path):  # name the first bad row, checking rows in order
        parts = ln.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}: bad manifest row {ln!r}")
        try:
            np.int64(int(parts[4]))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad dim in manifest row {ln!r}") from exc
        ModalityKind.from_tag(parts[3])


def write_store(vectors, records, out_dir):
    """Write a full dataset directory: one .fve per modality plus manifest,
    each listing its records in the order of `records`."""
    if not len(records):
        raise EmptyDatasetError("no records to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in ModalityKind:
        mine = records.modality == kind
        if mine.any():
            write_store_file(out_dir / f"{kind.tag}.fve", kind,
                             records.record_id[mine].tolist(), vectors[kind],
                             records.row[mine].tolist())
    # a record's last two manifest cells, its modality's tag and dim
    tag_dim = [f"{kind.tag}\t{vectors[kind].shape[1] if kind in vectors else ''}"
               for kind in ModalityKind]
    lines = zip(records.record_id.tolist(), records.speaker_id.tolist(),
                records.language.tolist(),
                np.array(tag_dim)[records.modality].tolist())
    (out_dir / "manifest.tsv").write_text(
        "\n".join([MANIFEST_HEADER, *map("\t".join, lines)]) + "\n",
        encoding="utf-8",
    )


def read_store(in_dir):
    """Read a dataset directory back as (vectors, records), the records in
    manifest order.

    Round-trips write_store losslessly (vectors compared at 32-bit). A
    record id that the manifest lists twice, that no store holds, that the
    stores hold twice, or that a store of another modality than its manifest
    tag holds is a SchemaError.
    """
    in_dir = Path(in_dir)
    ids, speakers, languages, tags, dims = _read_manifest(in_dir / "manifest.tsv")
    order = np.argsort(ids, kind="stable")
    by_id = ids[order]
    if (by_id[1:] == by_id[:-1]).any():
        raise SchemaError(f"{in_dir}: duplicate record ids in manifest")
    held = np.zeros(len(ids), bool)  # whether a store holds the record yet
    row = np.zeros(len(ids), np.int64)
    vectors = {}
    for kind in ModalityKind:
        path = in_dir / f"{kind.tag}.fve"
        if not path.exists():
            continue
        code, rids, vecs = read_store_file(path)
        if code != kind:
            raise SchemaError(f"{path}: modality code {code.tag} != filename tag")
        at = np.searchsorted(by_id, rids)
        known = at < len(ids)
        known[known] = by_id[at[known]] == rids[known]
        entry = order[at[known]]
        first = np.zeros(len(entry), bool)
        first[np.unique(entry, return_index=True)[1]] = True
        bad = ~known
        bad[known] = ((tags[entry] != kind) | (dims[entry] != vecs.shape[1])
                      | held[entry] | ~first)
        if bad.any():
            i = int(bad.argmax())
            e = order[at[i]] if known[i] else None
            problem = "missing from manifest" if e is None else "is stored twice"
            if e is not None and not held[e]:  # no earlier store holds it
                if tags[e] != kind:
                    problem = (f"has manifest tag {ModalityKind(tags[e]).tag} "
                               f"!= store tag {kind.tag}")
                elif dims[e] != vecs.shape[1]:
                    problem = f"dim {vecs.shape[1]} != manifest dim {dims[e]}"
            raise SchemaError(f"{path}: record {rids[i]} {problem}")
        held[entry], row[entry], vectors[kind] = True, np.arange(len(entry)), vecs
    if not held.all():
        raise SchemaError(
            f"{in_dir}: manifest record {ids[held.argmin()]} has no vector"
        )
    return vectors, record_table(ids, speakers, languages, tags, row)


def assemble_concat_inputs(vectors, records, identity_kind, agegender_kind):
    """Join identity and age-gender records on owner id into one table.

    Returns ((rows, x), skipped). `rows` is a record array with fields
    owner_id, speaker_id, language and row, sorted by owner id, with row i
    holding row == i; x[row] is the record's identity vector followed by its
    age-gender vector, in float32 as stored (half the memory of float64;
    whoever reads rows of x widens them to float64, exactly). Owners missing
    either component are skipped and listed, sorted, in `skipped`.
    Two records of one modality with the same owner, or an owner whose two
    records name different speakers, raise SchemaError; so does an empty
    result (EmptyDatasetError).
    """
    sides = []
    for kind in (identity_kind, agegender_kind):
        at = np.flatnonzero(records.modality == kind)  # its records' entries
        owners = records.record_id[at]  # a copy, cut below at each first "#"
        chars = owners.view(np.uint32).reshape(len(at), owners.itemsize // 4)
        chars[np.logical_or.accumulate(chars == ord("#"), axis=1)] = 0
        # a repeated owner: its later records follow it in a stable sort
        order = np.argsort(owners, kind="stable")
        again = order[1:][owners[order[1:]] == owners[order[:-1]]]
        if again.size:
            raise SchemaError(f"owner {owners[again.min()]}: two {kind.tag} records")
        sides.append((owners, at))
    (ident_owners, ident), (ageg_owners, ageg) = sides
    owners, at_ident, at_ageg = np.intersect1d(
        ident_owners, ageg_owners, assume_unique=True, return_indices=True
    )
    only = [np.delete(ident_owners, at_ident), np.delete(ageg_owners, at_ageg)]
    skipped = np.sort(np.concatenate(only)).tolist()  # as np.setxor1d sorts them
    if not len(owners):
        raise EmptyDatasetError(
            f"no assemblable {identity_kind.tag}+{agegender_kind.tag} inputs"
        )
    ident, ageg = ident[at_ident], ageg[at_ageg]
    speakers = records.speaker_id[ident]
    mismatch = np.flatnonzero(speakers != records.speaker_id[ageg])
    if mismatch.size:
        raise SchemaError(
            f"owner {owners[mismatch[0]]}: speaker mismatch across modalities"
        )
    split = vectors[identity_kind].shape[1]
    x = np.empty((len(owners), split + vectors[agegender_kind].shape[1]),
                 np.float32)
    for cols, kind, at in ((slice(None, split), identity_kind, records.row[ident]),
                           (slice(split, None), agegender_kind, records.row[ageg])):
        for i in range(0, len(at), 256):  # a gathered copy of 256 rows at most
            x[i : i + 256, cols] = vectors[kind][at[i : i + 256]]
    rows = np.rec.fromarrays(
        [owners, speakers, records.language[ident], np.arange(len(owners))],
        names="owner_id,speaker_id,language,row",
    )
    return (rows, x), skipped


def assemble_voice_inputs(vectors, records):
    return assemble_concat_inputs(
        vectors, records, ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER
    )


def assemble_face_inputs(vectors, records):
    return assemble_concat_inputs(
        vectors, records, ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER
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
