"""The byte-level TSV reader against a reference text parser, and the
memory that reading a trial file and writing a score file take.

`split_tsv_rows`, `ref_read_trials_file` and `ref_read_manifest` below are
the text readers that `embedstore.read_tsv` replaced: the whole file is
decoded in text mode, split into lines and cells as Python strings and
turned into arrays. For every generated trial file or manifest both
readers must return the same columns of the same dtypes, or raise the same
error class with the same message. The manifest reference maps a dim
beyond int64 to "bad dim", as the reader does, and both references reject
a NUL character, which a numpy str would drop from the end of a cell.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fvassoc.cli import (TRIALS_HEADER, _write_rows, read_trials_file,
                         write_score_file)
from fvassoc.embedstore import MANIFEST_HEADER, ModalityKind, _read_manifest
from fvassoc.errors import FormatError
from fvassoc.traineval import trial_table


def split_tsv_rows(rows, n_fields):
    step = n_fields + 1
    cells = ("\t\n\t".join(rows) + "\t\n").split("\t")[:step * len(rows)]
    if cells[n_fields::step].count("\n") != len(rows):
        return None
    return [cells[i::step] for i in range(n_fields)]


def _ref_lines(path, what, header):
    """The rows after the header, checked for UTF-8, the header and NUL."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8 text") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: bad {what.split()[0]} header")
    for ln in lines[1:]:
        if "\0" in ln:
            raise FormatError(f"{path}: NUL character in {what} row {ln!r}")
    return lines[1:]


def ref_read_trials_file(path):
    rows = _ref_lines(path, "trials file", TRIALS_HEADER)
    cols = split_tsv_rows(rows, 3)
    if (cols is None
            or cols[2].count("same") + cols[2].count("different") != len(rows)):
        bad = next(ln for ln in rows
                   if ln.split("\t")[2:] not in (["same"], ["different"]))
        raise FormatError(f"{path}: bad trial row {bad!r}")
    return trial_table(cols[0], cols[1], np.array(cols[2]) == "same")


def ref_read_manifest(path):
    rows = _ref_lines(path, "manifest", MANIFEST_HEADER)
    cols = split_tsv_rows(rows, 5)
    tags = [kind.tag for kind in ModalityKind]
    if cols is not None and set(cols[3]) <= set(tags):
        ids, speakers, languages, tag_col, dims = (np.array(c, str) for c in cols)
        names, at = np.unique(tag_col, return_inverse=True)
        codes = np.array([ModalityKind.from_tag(t) for t in names.tolist()], np.int8)
        names, dim_at = np.unique(dims, return_inverse=True)
        try:
            dims = np.array([int(d) for d in names.tolist()], np.int64)[dim_at]
            return ids, speakers, languages, codes[at], dims
        except (ValueError, OverflowError):
            pass
    for ln in rows:
        parts = ln.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}: bad manifest row {ln!r}")
        try:
            np.int64(int(parts[4]))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad dim in manifest row {ln!r}") from exc
        ModalityKind.from_tag(parts[3])


def _outcome(read, path):
    try:
        result = read(path)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    if isinstance(result, np.recarray):
        result = [result[name] for name in result.dtype.names]
    return [(col.dtype, col.tolist()) for col in result]


# ids: ASCII and non-ASCII (two-, three- and four-byte UTF-8); a NUL is a
# defect of its own (below)
_CHARS = st.sampled_from(list("ab:#_0") + ["é", "日", "🙂", " "])
_IDS = st.text(_CHARS, max_size=6)
_LABELS = st.sampled_from(["same", "different"])
_BAD_LABELS = st.sampled_from(["same\x00", "different\x00", "Same", "", "same "])
_TAGS = st.sampled_from([kind.tag for kind in ModalityKind])
_BAD_TAGS = st.sampled_from(["vspk\x00", "fag\x00", "zz", "", "fid "])
# int() takes all of these
_DIMS = st.sampled_from(["64", "7", "12", "+8", " 9", "-3", "٦٤", "1_0"])
_BAD_DIMS = st.sampled_from(["6x", "", "\x00", "99999999999999999999"])

TRIAL_ROWS = (st.tuples(_IDS, _IDS, _LABELS), st.tuples(_IDS, _IDS, _BAD_LABELS))
MANIFEST_ROWS = (
    st.tuples(_IDS, _IDS, _IDS, _TAGS, _DIMS),
    st.one_of(st.tuples(_IDS, _IDS, _IDS, _BAD_TAGS, _DIMS),
              st.tuples(_IDS, _IDS, _IDS, _TAGS, _BAD_DIMS)),
)


@st.composite
def tsv_files(draw, header, rows):
    """File bytes: a header and good rows, blank lines at the start, middle
    and end, "\\n", "\\r\\n" or "\\r" line ends, then none, one or two
    defects: a row with a bad cell, a row of one field or one field short
    or long, a wrong header (one starts with a BOM), a byte that is not
    UTF-8 or a NUL byte anywhere. Half the files are all ASCII."""
    good, bad = rows
    n = len(header.split("\t"))
    lines = [header] + ["\t".join(draw(good)) for _ in range(draw(st.integers(0, 6)))]
    defects = draw(st.lists(st.sampled_from(["cell", "width", "header", "utf8",
                                             "nul"]), max_size=2))
    for defect in defects:
        if defect == "header":
            lines[0] = draw(st.sampled_from([header + "\t", "\ufeff" + header,
                                             header.upper()]))
        elif defect in ("cell", "width"):
            fields = list(draw(bad if defect == "cell" else good))
            if defect == "width":
                fields = (fields + fields)[:draw(st.sampled_from([1, n - 1, n + 1]))]
            lines.insert(draw(st.integers(1, len(lines))), "\t".join(fields))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, "", end + end]))
    # half the files all ASCII: each non-ASCII character becomes "?"
    data = bytearray(text.encode("ascii", "replace") if draw(st.booleans())
                     else text.encode("utf-8"))
    if "utf8" in defects:
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    if "nul" in defects:
        at = draw(st.integers(0, len(data)))
        data[at:at] = b"\x00"
    return bytes(data)


DIFF = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@DIFF
@given(data=tsv_files(TRIALS_HEADER, TRIAL_ROWS))
@example(data=f"{TRIALS_HEADER}\na\tb\tsame\x00\n".encode())
@example(data=f"{TRIALS_HEADER}\na\tb\nsame\n".encode())  # cells of a row of 3
def test_trials_reader_matches_text_reference(tmp_path, data):
    path = tmp_path / "trials.tsv"
    path.write_bytes(data)
    assert _outcome(read_trials_file, path) == _outcome(ref_read_trials_file, path)


@DIFF
@given(data=tsv_files(MANIFEST_HEADER, MANIFEST_ROWS))
@example(data=f"{MANIFEST_HEADER}\na\ts\ten\tvspk\x00\t64\n".encode())
def test_manifest_reader_matches_text_reference(tmp_path, data):
    path = tmp_path / "manifest.tsv"
    path.write_bytes(data)
    assert _outcome(_read_manifest, path) == _outcome(ref_read_manifest, path)


def test_non_ascii_ids_keep_their_dtype(tmp_path):
    # a non-ASCII column is sized in characters, not in UTF-8 bytes
    path = tmp_path / "trials.tsv"
    path.write_bytes("\r\n".join([
        "", TRIALS_HEADER, "日本\ta\tsame", "", "\tbbb\tdifferent", "",
    ]).encode("utf-8"))
    got = _outcome(read_trials_file, path)
    assert got == _outcome(ref_read_trials_file, path)
    assert got[0] == (np.dtype("<U2"), ["日本", ""])
    assert got[1] == (np.dtype("<U3"), ["a", "bbb"])
    assert got[2] == (np.dtype(bool), [True, False])


@pytest.mark.parametrize("read, header, rows", [
    # two faces that a numpy str would both read as "a"
    (read_trials_file, TRIALS_HEADER, ["a\tv\tsame", "a\x00\tv\tdifferent"]),
    # two speakers that would merge, and a dim that would read as 64
    (_read_manifest, MANIFEST_HEADER, ["r1\ts1\ten\tvspk\t64",
                                       "r2\ts1\x00\ten\tvspk\t64"]),
    (_read_manifest, MANIFEST_HEADER, ["r1\ts1\ten\tvspk\t64\x00"]),
], ids=["trial-id", "manifest-speaker", "manifest-dim"])
def test_nul_character_is_a_format_error_naming_its_row(tmp_path, read,
                                                         header, rows):
    path = tmp_path / "file.tsv"
    path.write_text("\n".join([header, *rows, rows[0]]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="NUL character in .* row") as exc:
        read(path)
    assert str(exc.value).endswith(f"row {rows[-1]!r}")


def _trials(n):
    rng = np.random.default_rng(n)
    face, voice = rng.integers(0, 6000, (2, n)).tolist()
    return trial_table([f"s{f // 10:03d}:f{f % 10:03d}" for f in face],
                       [f"s{v // 10:03d}:v{v % 10:03d}" for v in voice],
                       rng.random(n) < 0.1)


def _peak(fn, *args):
    """Bytes that `fn(*args)` allocates at its peak, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_trials_peaks_within_8x_the_file(tmp_path):
    path = tmp_path / "trials.tsv"
    trials = _trials(50_000)
    path.write_text("".join([f"{TRIALS_HEADER}\n"] + [
        f"{f}\t{v}\t{'same' if same else 'different'}\n"
        for f, v, same in trials.tolist()]))
    assert read_trials_file(path).tolist() == trials.tolist()
    assert _peak(read_trials_file, path) <= 8 * path.stat().st_size


def test_score_file_peak_does_not_grow_with_trials(tmp_path):
    peaks = []
    for n in (50_000, 200_000):
        trials = _trials(n)
        scores = np.random.default_rng(0).uniform(-1, 1, n)
        peaks.append(_peak(write_score_file, tmp_path / "scores.tsv", trials, scores))
    assert peaks[1] <= 1.1 * peaks[0]


def _ref_write_rows(path, header, trials, scores=None):
    """The former writer: a tab join per row and "{:.9g}".format per score."""
    rows = [[f, v, "same" if same else "different"]
            for f, v, same in trials.tolist()]
    if scores is not None:
        for row, score in zip(rows, scores.tolist()):
            row.append("{:.9g}".format(score))
    Path(path).write_text("".join(f"{ln}\n" for ln in
                                  [header, *map("\t".join, rows)]),
                          encoding="utf-8")


@pytest.mark.parametrize("with_scores", [True, False])
def test_block_formatter_writes_the_per_row_bytes(tmp_path, with_scores):
    # -0.0, the smallest subnormals, +-1e300 and values that need all nine
    # digits; ids with two-, three- and four-byte UTF-8; 4,100 rows, so more
    # than one 4,096-row block
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-310, 1e300, -1e300,
               1 / 3, -0.999999999, 1.0, np.nextafter(1.0, 2.0), 123456789.5]
    n = 4100
    scores = np.resize(special, n) * np.where(np.arange(n) % 7 == 3, -1.0, 1.0)
    faces = [f"é{i % 13}:日{i % 5}" for i in range(n)]
    voices = [f"🙂{i % 11}#v" for i in range(n)]
    trials = trial_table(faces, voices, np.arange(n) % 3 == 0)
    header = TRIALS_HEADER + ("\tscore" if with_scores else "")
    args = (trials, scores) if with_scores else (trials,)
    _write_rows(tmp_path / "new.tsv", header, *args)
    _ref_write_rows(tmp_path / "ref.tsv", header, *args)
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
