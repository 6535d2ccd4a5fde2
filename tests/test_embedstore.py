import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvassoc import embedstore
from fvassoc.diffcore import make_rng
from fvassoc.embedstore import (
    FULL_DIMS,
    MAGIC,
    ModalityKind,
    assemble_face_inputs,
    assemble_voice_inputs,
    read_store,
    read_store_file,
    split_folds,
    write_store,
    write_store_file,
)
from fvassoc.errors import ConfigError, EmptyDatasetError, FormatError, SchemaError
from testlib import filter_exclude_language, store_entries, store_pair


def make_records(n_per_mod=3, dim=6, speakers=("a", "b"), language="en"):
    """(record_id, speaker_id, language, modality, vector) per record."""
    rng = make_rng(7)
    records = []
    for kind in ModalityKind:
        for i in range(n_per_mod):
            spk = speakers[i % len(speakers)]
            group = "v" if kind.tag.startswith("v") else "f"
            owner = f"{spk}:{group}{i:03d}"
            records.append((f"{owner}#{kind.tag}", spk, language, kind,
                            rng.standard_normal(dim).astype(np.float32)))
    return records


class TestStoreRoundTrip:
    def test_three_records_bit_exact(self, tmp_path):
        records = make_records(n_per_mod=3)
        write_store(*store_pair(records), tmp_path / "ds")
        back = store_entries(*read_store(tmp_path / "ds"))
        assert len(back) == len(records)
        by_id = {r[0]: r for r in back}
        for rid, spk, lang, kind, vec in records:
            _, got_spk, got_lang, got_kind, got_vec = by_id[rid]
            assert np.array_equal(got_vec, vec)
            assert got_spk == spk
            assert got_lang == lang
            assert got_kind == kind

    def test_ids_of_mixed_byte_lengths_round_trip_bit_exact(self, tmp_path):
        # ids of 5 to 14 bytes, one with 2-, 3- and 4-byte UTF-8 characters,
        # so most vectors start at a byte offset that is not a multiple of 4
        owners = ["a", "bb", "ccc", "dddd", "\u00e9\u4e2d\U0001f600", "f0"]
        rng = make_rng(5)
        records = [
            (f"{o}#{kind.tag}", f"spk{len(o)}", ["en", "de", "fr"][n % 3], kind,
             rng.standard_normal(3 + kind).astype(np.float32))
            for n, o in enumerate(owners) for kind in ModalityKind
        ]
        write_store(*store_pair(records), tmp_path / "ds")
        blob = (tmp_path / "ds" / "vspk.fve").read_bytes()
        offsets, off = [], 17
        for _ in owners:
            off += 2 + int.from_bytes(blob[off : off + 2], "little")
            offsets.append(off)
            off += 4 * 3
        assert {o % 4 for o in offsets} == {0, 1, 2, 3}
        back = store_entries(*read_store(tmp_path / "ds"))
        assert [r[:4] for r in back] == [r[:4] for r in records]
        assert [r[4].tobytes() for r in back] == [r[4].tobytes() for r in records]

    def test_random_records_round_trip(self, tmp_path):
        rng = make_rng(123)
        for trial in range(5):
            records = make_records(
                n_per_mod=int(rng.integers(1, 6)),
                dim=int(rng.integers(1, 20)),
                speakers=tuple(f"s{i}" for i in range(int(rng.integers(1, 4)))),
            )
            out = tmp_path / f"ds{trial}"
            write_store(*store_pair(records), out)
            back = store_entries(*read_store(out))
            assert [(r[0], r[4].tobytes()) for r in back] == [
                (r[0], r[4].tobytes()) for r in records
            ]

    def test_corrupted_magic(self, tmp_path):
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "vspk.fve"
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_store(tmp_path / "ds")

    def test_truncated_file_reports_offset(self, tmp_path):
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "vspk.fve"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(FormatError, match="byte"):
            read_store(tmp_path / "ds")

    def test_bytes_after_the_last_record_report_offset(self, tmp_path):
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "fag.fve"
        data = path.read_bytes()
        path.write_bytes(data + b"\x00")
        with pytest.raises(FormatError,
                           match=f"fag.fve: 1 trailing bytes at byte {len(data)}"):
            read_store(tmp_path / "ds")

    @pytest.mark.parametrize("at", [0, 5, 9])  # first, middle and last byte
    def test_nul_in_a_record_id_reports_offset(self, tmp_path, at):
        # fid.fve's first record id, a:f000#fid, starts after its 17-byte
        # header and 2-byte length; a numpy str would drop a trailing NUL
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "fid.fve"
        data = bytearray(path.read_bytes())
        assert data[19:29] == b"a:f000#fid"
        data[19 + at] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError,
                           match="fid.fve: record id at byte 19 has a NUL"):
            read_store(tmp_path / "ds")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_and_record(self, tmp_path, bad):
        records = make_records()
        records[7][4][4] = bad  # the second face-identity record
        write_store(*store_pair(records), tmp_path / "ds")
        with pytest.raises(
            FormatError, match="fid.fve: record b:f001#fid has a non-finite value"
        ):
            read_store(tmp_path / "ds")

    def test_largest_finite_values_are_read(self, tmp_path):
        records = make_records()
        top = np.finfo(np.float32).max
        records[7][4][:] = top
        records[8][4][:] = -top
        write_store(*store_pair(records), tmp_path / "ds")
        back = store_entries(*read_store(tmp_path / "ds"))
        assert (back[7][4] == top).all() and (back[8][4] == -top).all()

    @pytest.mark.parametrize("edits, error, message", [
        ({2: "x\ty"}, FormatError, "bad manifest row 'x"),
        ({2: "6x"}, FormatError, "bad dim in manifest row"),
        ({2: "zz"}, SchemaError, "unknown modality tag 'zz'"),
        # the first bad row is named, whatever is wrong with later ones
        ({2: "6x", 5: "x\ty"}, FormatError, "bad dim in manifest row"),
        ({2: "zz", 5: "6x"}, SchemaError, "unknown modality tag 'zz'"),
        ({2: "x\ty", 5: "zz"}, FormatError, "bad manifest row 'x"),
    ])
    def test_bad_manifest_row_named(self, tmp_path, edits, error, message):
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "manifest.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        for n, edit in edits.items():  # a whole row, a dim or a modality tag
            cells = lines[n].split("\t")
            if edit == "6x":
                cells[4] = edit
            elif edit == "zz":
                cells[3] = edit
            else:
                cells = [edit]
            lines[n] = "\t".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(error, match=message):
            read_store(tmp_path / "ds")

    def test_manifest_tag_other_than_its_store_rejected(self, tmp_path):
        # vspk.fve holds a:v000#vspk, whose manifest row (of the same dim)
        # tags it fid
        write_store(*store_pair(make_records()), tmp_path / "ds")
        path = tmp_path / "ds" / "manifest.tsv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("a:v000#vspk\ta\ten\tvspk\t",
                                     "a:v000#vspk\ta\ten\tfid\t"),
                        encoding="utf-8")
        with pytest.raises(SchemaError, match="vspk.fve: record a:v000#vspk "
                           "has manifest tag fid != store tag vspk"):
            read_store(tmp_path / "ds")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            write_store(*store_pair([]), tmp_path / "ds")

    @pytest.mark.parametrize("tag", ["vspk", "vag"])
    def test_record_stored_twice_rejected(self, tmp_path, tag):
        # the manifest lists a:v000#vspk once; vspk.fve itself or vag.fve
        # holds it a second time, all 99s
        records = make_records(n_per_mod=2, dim=3, speakers=("a",))
        write_store(*store_pair(records), tmp_path / "ds")
        kind = ModalityKind.from_tag(tag)
        mine = [r for r in records if r[3] == kind]
        write_store_file(tmp_path / "ds" / f"{tag}.fve", kind,
                         [r[0] for r in mine] + ["a:v000#vspk"],
                         [r[4] for r in mine] + [np.full(3, 99.0)], range(3))
        with pytest.raises(SchemaError, match=f"{tag}.fve: record a:v000#vspk "
                           "is stored twice"):
            read_store(tmp_path / "ds")


def store_bytes(ids, vecs, dim):
    """A .fve file of modality 2 holding record i's id bytes ids[i] and
    vector vecs[i], written field by field so that any bytes may be ids."""
    parts = [MAGIC, struct.pack("<IBII", 1, 2, dim, len(ids))]
    for ident, vec in zip(ids, vecs):
        parts += [struct.pack("<H", len(ident)), ident,
                  np.asarray(vec, "<f4").tobytes()]
    return b"".join(parts)


def read_both_ways(data):
    """read_store_file on `data` as it reads it, and with the strided view
    turned off, so record by record; each a result or a FormatError's
    message. Also whether the view read it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.fve"
        path.write_bytes(data)
        results, returned = [], []
        real = embedstore._read_fixed_width

        def spy(*args):
            returned.append(real(*args))
            return returned[-1]

        for fixed_width in (spy, lambda *args: None):
            with mock.patch.object(embedstore, "_read_fixed_width", fixed_width):
                try:
                    results.append(read_store_file(path))
                except FormatError as exc:
                    results.append(str(exc).replace(str(path), "<file>"))
    return results, returned[0] is not None


# ids of 1-, 2-, 3- and 4-byte UTF-8 characters
_STORE_IDS = st.text(alphabet="ab#\u00e9\u4e2d\U0001f600", max_size=4)


class TestFixedWidthView:
    """A store whose ids all have one byte length is read as one strided
    view; any other, or one with a bad id, record by record. Both give the
    same arrays and the same errors."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_view_and_loop_read_the_same(self, data):
        ids = data.draw(st.lists(_STORE_IDS, max_size=6))
        if data.draw(st.booleans()):  # one byte length: pad each with "x"
            width = max((len(i.encode()) for i in ids), default=0)
            ids = [i + "x" * (width - len(i.encode())) for i in ids]
        dim = data.draw(st.integers(0, 3))
        vecs = make_rng(len(ids)).standard_normal((len(ids), dim))
        (view, loop), viewed = read_both_ways(
            store_bytes([i.encode() for i in ids], vecs, dim))
        lengths = {len(i.encode()) for i in ids}
        assert viewed == (len(lengths) == 1 and 0 not in lengths)
        assert view[0] == loop[0] == ModalityKind.FACE_IDENTITY
        assert view[1].dtype == loop[1].dtype == np.array(ids, str).dtype
        assert view[1].tolist() == loop[1].tolist() == ids
        assert view[2].dtype == loop[2].dtype == np.float32
        assert view[2].shape == loop[2].shape == (len(ids), dim)
        assert view[2].tobytes() == loop[2].tobytes()
        assert view[2].tobytes() == vecs.astype("<f4").tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_first_bad_record_in_file_order_is_named_by_both(self, data):
        n = data.draw(st.integers(1, 6))
        fixed = data.draw(st.booleans())
        ids = [f"r{i:02d}" if fixed else "r" * (i + 1) for i in range(n)]
        ids = [i.encode() for i in ids]
        vecs = np.ones((n, 2))
        faults = data.draw(st.lists(st.tuples(
            st.sampled_from(["nul", "utf8", "nan"]), st.integers(0, n - 1)),
            min_size=1, max_size=3))
        for fault, at in faults:
            if fault == "nul":
                ids[at] = ids[at][:-1] + b"\0"
            elif fault == "utf8":
                ids[at] = b"\xff" + ids[at][1:]
            else:
                vecs[at, 1] = np.nan
        (view, loop), _ = read_both_ways(store_bytes(ids, vecs, 2))
        assert isinstance(view, str) and view == loop
        id_faults = [at for fault, at in faults if fault != "nan"]
        if id_faults:  # an id is checked before any vector
            offset = 17 + min(id_faults) * (2 + len(ids[0]) + 8) if fixed else None
            assert "record id at byte" in view
            if offset is not None:
                assert f"at byte {offset + 2} " in view
        else:
            first = min(at for _, at in faults)
            assert view == f"<file>: record {ids[first].decode()} has a non-finite value"

    @pytest.mark.parametrize("tail", [b"", b"\0", b"\0" * 11])
    def test_empty_store_and_trailing_bytes(self, tail):
        data = store_bytes([], [], 3) + tail
        (view, loop), viewed = read_both_ways(data)
        assert not viewed
        if tail:
            assert view == loop == f"<file>: {len(tail)} trailing bytes at byte 17"
        else:
            assert view[1].shape == (0,) and view[2].shape == (0, 3)
            assert view[1].dtype == loop[1].dtype and view[2].dtype == loop[2].dtype

    def test_truncated_fixed_width_store_is_read_record_by_record(self):
        data = store_bytes([b"aa", b"bb", b"cc"], np.ones((3, 2)), 2)
        (view, loop), viewed = read_both_ways(data[:-3])
        assert not viewed
        assert view == loop == "<file>: truncated record at byte 43"


def records_of(langs):
    return store_pair([(f"r{i}", f"s{i}", lang, ModalityKind.VOICE_SPEAKER,
                        np.zeros(4)) for i, lang in enumerate(langs)])[1]


class TestLanguageFilter:
    def test_absent_language_is_noop(self):
        m = records_of(["en", "de", "en"])
        out = filter_exclude_language(m, "fr")
        assert out.tolist() == m.tolist()

    def test_counting(self):
        m = records_of(["en", "en", "en", "de", "de"])
        out = filter_exclude_language(m, "en")
        assert len(out) == 2
        assert all(lang == "de" for lang in out.language)

    def test_idempotent_and_order_preserving(self):
        m = records_of(["de", "en", "fr", "en", "de"])
        once = filter_exclude_language(m, "en")
        twice = filter_exclude_language(once, "en")
        assert once.tolist() == twice.tolist()
        assert once.record_id.tolist() == ["r0", "r2", "r4"]


def owner(record):
    return record[0].split("#", 1)[0]


class TestAssembly:
    def test_full_scale_concat_lengths(self):
        rng = make_rng(0)
        records = []
        for kind in ModalityKind:
            records.append((f"a:x000#{kind.tag}", "a", "en", kind,
                            rng.standard_normal(FULL_DIMS[kind]).astype(np.float32)))
        (_, xv), _ = assemble_voice_inputs(*store_pair(records))
        (_, xf), _ = assemble_face_inputs(*store_pair(records))
        assert xv.shape == (1, 7680) and xv.dtype == np.float32
        assert xf.shape == (1, 4864) and xf.dtype == np.float32

    def test_identity_comes_first(self):
        records = make_records(n_per_mod=1, dim=3, speakers=("a",))
        (_, x), _ = assemble_voice_inputs(*store_pair(records))
        ident, ageg = (
            next(r[4] for r in records if r[3] == kind)
            for kind in (ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER)
        )
        assert np.array_equal(x[0], np.concatenate([ident, ageg]))

    def test_missing_modality_skipped_and_reported(self):
        records = make_records(n_per_mod=2, dim=3, speakers=("a", "b"))
        records = [
            r
            for r in records
            if not (r[1] == "b" and r[3] == ModalityKind.VOICE_AGE_GENDER)
        ]
        (rows, x), skipped = assemble_voice_inputs(*store_pair(records))
        assert rows.speaker_id.tolist() == ["a"] and x.shape == (1, 6)
        assert skipped and all(owner.startswith("b") for owner in skipped)

    def test_rows_sorted_by_owner_and_aligned_with_x(self):
        records = make_records(n_per_mod=4, dim=3, speakers=("b", "a"))
        records.reverse()
        (rows, x), skipped = assemble_face_inputs(*store_pair(records))
        assert skipped == []
        assert rows.owner_id.tolist() == sorted(rows.owner_id.tolist())
        assert rows.row.tolist() == list(range(len(rows)))
        vec = {(owner(r), r[3]): r[4] for r in records}
        for own, spk, row in zip(rows.owner_id, rows.speaker_id, x[rows.row]):
            assert own.startswith(spk + ":")
            assert np.array_equal(row, np.concatenate([
                vec[own, ModalityKind.FACE_IDENTITY],
                vec[own, ModalityKind.FACE_AGE_GENDER],
            ]))

    def test_duplicate_owner_in_one_modality_rejected(self):
        records = make_records(n_per_mod=2, dim=3)
        first = next(r for r in records if r[3] == ModalityKind.VOICE_SPEAKER)
        records.append((f"{owner(first)}#vspk2", *first[1:4], first[4].copy()))
        with pytest.raises(SchemaError, match=f"owner {owner(first)}: two vspk"):
            assemble_voice_inputs(*store_pair(records))
        assemble_face_inputs(*store_pair(records))  # the other modality is unaffected

    def test_first_repeated_owner_in_record_order_is_named(self):
        records = make_records(n_per_mod=2, dim=3)
        voices = [r for r in records if r[3] == ModalityKind.VOICE_SPEAKER]
        # the later owner's second record comes first
        for r in voices[::-1]:
            records.append((f"{owner(r)}#vspk2", *r[1:]))
        with pytest.raises(SchemaError, match=f"owner {owner(voices[1])}: two"):
            assemble_voice_inputs(*store_pair(records))

    def test_matches_a_per_record_join(self):
        # the join assembly replaced: one owner -> record dict per modality;
        # more than 256 owners, so assembly copies in more than one block
        rng = make_rng(3)
        records = make_records(n_per_mod=400, dim=3, speakers=("a", "bb", "c"))
        records = [records[i] for i in rng.permutation(len(records))
                   if rng.random() < 0.8]
        for assemble, kinds in (
            (assemble_voice_inputs,
             (ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER)),
            (assemble_face_inputs,
             (ModalityKind.FACE_IDENTITY, ModalityKind.FACE_AGE_GENDER)),
        ):
            (rows, x), skipped = assemble(*store_pair(records))
            ident, ageg = ({owner(r): r for r in records if r[3] == kind}
                           for kind in kinds)
            owners = sorted(ident.keys() & ageg.keys())
            assert skipped == sorted(ident.keys() ^ ageg.keys())
            assert rows.owner_id.tolist() == owners
            assert rows.speaker_id.tolist() == [ident[o][1] for o in owners]
            assert rows.language.tolist() == [ident[o][2] for o in owners]
            # the stored float32 vectors, bit for bit
            assert x.dtype == np.float32
            assert x[rows.row].tobytes() == np.array([
                np.concatenate([ident[o][4], ageg[o][4]]) for o in owners
            ], np.float32).tobytes()

    def test_nothing_assemblable(self):
        records = [
            r
            for r in make_records()
            if r[3] == ModalityKind.VOICE_SPEAKER
        ]
        with pytest.raises(EmptyDatasetError):
            assemble_voice_inputs(*store_pair(records))


class TestFoldSplit:
    def test_fifty_speakers_seven_folds(self):
        folds = split_folds([f"s{i}" for i in range(50)], 7, make_rng(1))
        sizes = sorted((len(fold) for fold in folds), reverse=True)
        assert sizes == [8, 7, 7, 7, 7, 7, 7]

    def test_exact_division(self):
        folds = split_folds([f"s{i}" for i in range(7)], 7, make_rng(2))
        assert len(folds) == 7 and all(len(fold) == 1 for fold in folds)

    def test_determinism(self):
        speakers = [f"s{i}" for i in range(23)]
        a = split_folds(speakers, 5, make_rng(3))
        b = split_folds(speakers, 5, make_rng(3))
        assert a == b

    def test_partition_property(self):
        rng = make_rng(4)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(1, n + 1))
            speakers = [f"s{i}" for i in range(n)]
            folds = split_folds(speakers, k, rng)
            assert sorted(s for fold in folds for s in fold) == sorted(speakers)
            assert all(fold == sorted(fold) for fold in folds)
            sizes = [len(fold) for fold in folds]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            split_folds(["a", "b"], 3, make_rng(0))
