import numpy as np
import pytest

from fvassoc.diffcore import make_rng
from fvassoc.embedstore import (
    FULL_DIMS,
    EmbeddingRecord,
    Manifest,
    ManifestEntry,
    ModalityKind,
    assemble_face_inputs,
    assemble_voice_inputs,
    read_store,
    split_folds,
    write_store,
)
from fvassoc.errors import ConfigError, EmptyDatasetError, FormatError, SchemaError
from testlib import filter_exclude_language


def make_records(n_per_mod=3, dim=6, speakers=("a", "b"), language="en"):
    rng = make_rng(7)
    records = []
    for kind in ModalityKind:
        for i in range(n_per_mod):
            spk = speakers[i % len(speakers)]
            group = "v" if kind.tag.startswith("v") else "f"
            owner = f"{spk}:{group}{i:03d}"
            records.append(
                EmbeddingRecord(
                    record_id=f"{owner}#{kind.tag}",
                    speaker_id=spk,
                    language=language,
                    modality=kind,
                    vector=rng.standard_normal(dim).astype(np.float32),
                )
            )
    return records


class TestStoreRoundTrip:
    def test_three_records_bit_exact(self, tmp_path):
        records = make_records(n_per_mod=3)
        write_store(records, tmp_path / "ds")
        manifest, back = read_store(tmp_path / "ds")
        assert len(back) == len(records)
        by_id = {r.record_id: r for r in back}
        for r in records:
            got = by_id[r.record_id]
            assert np.array_equal(got.vector, r.vector)
            assert got.speaker_id == r.speaker_id
            assert got.language == r.language
            assert got.modality == r.modality

    def test_random_records_round_trip(self, tmp_path):
        rng = make_rng(123)
        for trial in range(5):
            records = make_records(
                n_per_mod=int(rng.integers(1, 6)),
                dim=int(rng.integers(1, 20)),
                speakers=tuple(f"s{i}" for i in range(int(rng.integers(1, 4)))),
            )
            out = tmp_path / f"ds{trial}"
            write_store(records, out)
            _, back = read_store(out)
            assert [(r.record_id, r.vector.tobytes()) for r in back] == [
                (r.record_id, r.vector.tobytes()) for r in records
            ]

    def test_corrupted_magic(self, tmp_path):
        write_store(make_records(), tmp_path / "ds")
        path = tmp_path / "ds" / "vspk.fve"
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_store(tmp_path / "ds")

    def test_truncated_file_reports_offset(self, tmp_path):
        write_store(make_records(), tmp_path / "ds")
        path = tmp_path / "ds" / "vspk.fve"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(FormatError, match="byte"):
            read_store(tmp_path / "ds")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_and_record(self, tmp_path, bad):
        records = make_records()
        records[7].vector[4] = bad  # the second face-identity record
        write_store(records, tmp_path / "ds")
        with pytest.raises(
            FormatError, match="fid.fve: record b:f001#fid has a non-finite value"
        ):
            read_store(tmp_path / "ds")

    def test_largest_finite_values_are_read(self, tmp_path):
        records = make_records()
        top = np.finfo(np.float32).max
        records[7].vector[:] = top
        records[8].vector[:] = -top
        write_store(records, tmp_path / "ds")
        _, back = read_store(tmp_path / "ds")
        assert (back[7].vector == top).all() and (back[8].vector == -top).all()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            write_store([], tmp_path / "ds")


def manifest_of(langs):
    entries = [
        ManifestEntry(f"r{i}", f"s{i}", lang, ModalityKind.VOICE_SPEAKER, 4)
        for i, lang in enumerate(langs)
    ]
    return Manifest(dataset_name="m", entries=entries)


class TestLanguageFilter:
    def test_absent_language_is_noop(self):
        m = manifest_of(["en", "de", "en"])
        out = filter_exclude_language(m, "fr")
        assert out.entries == m.entries

    def test_counting(self):
        m = manifest_of(["en", "en", "en", "de", "de"])
        out = filter_exclude_language(m, "en")
        assert len(out.entries) == 2
        assert all(e.language == "de" for e in out.entries)

    def test_idempotent_and_order_preserving(self):
        m = manifest_of(["de", "en", "fr", "en", "de"])
        once = filter_exclude_language(m, "en")
        twice = filter_exclude_language(once, "en")
        assert once.entries == twice.entries
        assert [e.record_id for e in once.entries] == ["r0", "r2", "r4"]


class TestAssembly:
    def test_full_scale_concat_lengths(self):
        rng = make_rng(0)
        records = []
        for kind in ModalityKind:
            records.append(
                EmbeddingRecord(
                    record_id=f"a:x000#{kind.tag}",
                    speaker_id="a",
                    language="en",
                    modality=kind,
                    vector=rng.standard_normal(FULL_DIMS[kind]).astype(np.float32),
                )
            )
        (_, xv), _ = assemble_voice_inputs(records)
        (_, xf), _ = assemble_face_inputs(records)
        assert xv.shape == (1, 7680) and xv.dtype == np.float64
        assert xf.shape == (1, 4864) and xf.dtype == np.float64

    def test_identity_comes_first(self):
        records = make_records(n_per_mod=1, dim=3, speakers=("a",))
        (_, x), _ = assemble_voice_inputs(records)
        ident, ageg = (
            next(r for r in records if r.modality == kind)
            for kind in (ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER)
        )
        assert np.array_equal(x[0], np.concatenate([ident.vector, ageg.vector]))

    def test_missing_modality_skipped_and_reported(self):
        records = make_records(n_per_mod=2, dim=3, speakers=("a", "b"))
        records = [
            r
            for r in records
            if not (
                r.speaker_id == "b" and r.modality == ModalityKind.VOICE_AGE_GENDER
            )
        ]
        (rows, x), skipped = assemble_voice_inputs(records)
        assert rows.speaker_id.tolist() == ["a"] and x.shape == (1, 6)
        assert skipped and all(owner.startswith("b") for owner in skipped)

    def test_rows_sorted_by_owner_and_aligned_with_x(self):
        records = make_records(n_per_mod=4, dim=3, speakers=("b", "a"))
        records.reverse()
        (rows, x), skipped = assemble_face_inputs(records)
        assert skipped == []
        assert rows.owner_id.tolist() == sorted(rows.owner_id.tolist())
        assert rows.row.tolist() == list(range(len(rows)))
        vec = {(r.owner_id, r.modality): r.vector for r in records}
        for owner, spk, row in zip(rows.owner_id, rows.speaker_id, x[rows.row]):
            assert owner.startswith(spk + ":")
            assert np.array_equal(row, np.concatenate([
                vec[owner, ModalityKind.FACE_IDENTITY],
                vec[owner, ModalityKind.FACE_AGE_GENDER],
            ]))

    def test_duplicate_owner_in_one_modality_rejected(self):
        records = make_records(n_per_mod=2, dim=3)
        first = next(r for r in records if r.modality == ModalityKind.VOICE_SPEAKER)
        records.append(EmbeddingRecord(
            f"{first.owner_id}#vspk2", first.speaker_id, first.language,
            first.modality, first.vector.copy(),
        ))
        with pytest.raises(SchemaError, match=f"owner {first.owner_id}: two vspk"):
            assemble_voice_inputs(records)
        assemble_face_inputs(records)  # the other modality is unaffected

    def test_nothing_assemblable(self):
        records = [
            r
            for r in make_records()
            if r.modality == ModalityKind.VOICE_SPEAKER
        ]
        with pytest.raises(EmptyDatasetError):
            assemble_voice_inputs(records)


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
