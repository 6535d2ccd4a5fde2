"""Digest every output of a fixed set of fvassoc runs, to compare two trees.

Runs the seven commands of the A9 determinism set-up
(tests/test_acceptance.py), plus `crossval` at 7 folds, in a new temporary
directory with whichever `fvassoc` is importable, and prints JSON that maps
each file written there, by path relative to that directory, to its sha256.
A `report.json` is hashed without its "timestamp" and with the directory's
path replaced by "<work>"; the config files the runs read are not hashed.
Two trees give the same output exactly when their outputs are byte-identical:

    PYTHONPATH=src python3 tools/output_digests.py > new.json
    PYTHONPATH=/path/to/other/src python3 tools/output_digests.py > old.json
    cmp new.json old.json

The `eval` trial list starts with 30 rows that name 10 faces and 10 voices
three times each, first seen in an order that is not sorted, so it exercises
how the scorer projects each distinct record once, in sorted id order: a
change to either shows in the outputs on a BLAS build that rounds a row by
its place in the matmul or by the rows it shares the matmul with. A unit
test checks that the order and repetition of a trial list leave every score
bit for bit unchanged. Its other 784 rows pair each of the 56 faces with a
voice of each of the 14 speakers, so the 814 trials fill three 256-trial
scoring blocks (`traineval._SCORE_BLOCK`) and part of a fourth: a fault
at a block boundary, such as a trial left unscored, shows in
`eval/scores.tsv`.

The `eval_utf8` run scores the same trials on a copy of the corpus,
`utf8`, in which every owner id of a speaker whose number is a multiple of
3 has an "\u00e9" after its leading "s" and of one whose number is 2 more
than a multiple of 3 a "\u4e2d", in its record ids and in the trial file.
Its ids are then non-ASCII and of 9, 10 and 11 bytes: its stores are read
record by record, not as one strided view, its trial ids are joined by
non-ASCII code points, and its score file's ids are encoded per distinct
id. Its scores are those of `eval`, but its file is not.

The `xattn` run holds out 40% of the speakers and trains at lr 0.03 for up
to 60 steps, so its best dev EER comes after step 0 (step 40 on OpenBLAS
0.3.31): its checkpoint then holds trained weights, and a change to the
cross-attention update shows in `xattn/checkpoint.fvh`, not only in the
losses its report logs. At lr 0.001 with a 25% dev split the dev EER stays
0.5 at every evaluation, so the best step is 0 and the checkpoint holds the
untrained initial weights.

The `xattn_dropout` run is the `xattn` run at p_drop 0.3. Every other
cross-attention run trains at p_drop 0, so it alone draws dropout masks,
one for the voice input and then one for the face input at each step, and
a change to those draws or their order shows in the losses its report
logs at each evaluation, even where its best step is 0, and in its
checkpoint (its best step is 20 on OpenBLAS 0.3.31).

The `train_resorted` and `xattn_resorted` runs train on `resorted`, a copy
of the corpus in which owner s<NNN> belongs to the speaker named
utf8_id("s<MMM>"), MMM = 13 - NNN in three digits, so that its speakers do
not sort in its owners' order (within each of utf8_id's three spellings,
they sort in the reverse order). Both trainers number speakers in sorted
order (`PairedDataset.matrices`), and in training a speaker's number is its
row of the classifier. Every other corpus lists its speakers in sorted
order, so there a change that numbers them in first-seen order leaves every
digest unchanged; here it changes `train_resorted/checkpoint.fvh` and
`xattn_resorted/checkpoint.fvh`.

The `train_narrow` run trains at p_drop 0.9 on `narrow`, a copy of the
corpus whose face records keep only their first 3 identity and 1
age-gender columns. Dropout then zeroes whole 4-wide face inputs (about
two in three at the first step, while the head bias is still 0), so the
AAM loss takes its kept-rows branch, which no other run reaches: every
other input is at least 56 columns wide and runs at p_drop 0.5.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fvassoc.cli import main as cli_main
from fvassoc.embedstore import ModalityKind, read_store, record_table, write_store

TRAIN = {"lr": 0.01, "batch_size": 16, "max_steps": 40, "patience": 3,
         "eval_every": 20, "seed": 5, "p_drop": 0.5, "n_dev_target": 80,
         "n_dev_nontarget": 80}
XATTN = {"d_model": 8, "lr": 0.03, "batch_size": 16, "max_steps": 60,
         "patience": 3, "eval_every": 20, "seed": 5}
# columns each face record keeps in the `narrow` corpus
NARROW = {ModalityKind.FACE_IDENTITY: 3, ModalityKind.FACE_AGE_GENDER: 1}
SYNTH = {"n_speakers": 14, "latent_dim": 8, "dims": "small",
         "noise_sigma": 0.01, "records_per_speaker": 4, "seed": 1,
         "languages": {"en": 0.4, "de": 0.4, "fr": 0.2}}


def utf8_id(rid):
    """A record or owner id of the `utf8` corpus: "s<NNN>..." with "\u00e9"
    after the "s" when NNN % 3 is 0, "\u4e2d" when it is 2."""
    return rid[0] + ["\u00e9", "", "\u4e2d"][int(rid[1:4]) % 3] + rid[1:]


def eval_trials(name=str):
    """The `eval` trial file, each id spelled name(id): trial n < 30 pairs
    the face of speaker order[n % 10] with the voice of order[n % 10] (rows
    0-9, same speaker), order[(n + 3) % 10] (rows 10-19) or order[(n + 6) %
    10] (rows 20-29). Rows 30-813 pair face i of speaker a, for each a and
    then each i, with voice (a + i + b) % 4 of speaker b, for b = 0 .. 13."""
    order = [9, 2, 11, 5, 0, 7, 13, 3, 6, 1]
    pairs = [(order[n % 10], order[(n + 3 * (n // 10)) % 10]) for n in range(30)]
    rows = [(a, a % 4, b, b % 3) for a, b in pairs]
    rows += [(a, i, b, (a + i + b) % 4)
             for a in range(14) for i in range(4) for b in range(14)]
    return "face_record_id\tvoice_record_id\tlabel\n" + "".join(
        f"{name(f's{a:03d}:f{i:03d}')}\t{name(f's{b:03d}:v{j:03d}')}\t"
        f"{'same' if a == b else 'different'}\n" for a, i, b, j in rows
    )


def run(work, name, command, config):
    """Run `command` on `config` with its outputs in work/<name>."""
    cfg = work / "inputs" / f"{name}.json"
    cfg.write_text(json.dumps(config))
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries the JSON
        code = cli_main([command, "--config", str(cfg), "--out", str(work / name)])
    if code != 0:
        raise SystemExit(f"{name}: {command} exited {code}")


def run_all(work):
    """The set-up: its inputs under work/inputs, everything else beside."""
    inputs = work / "inputs"
    inputs.mkdir()
    (inputs / "trials.tsv").write_text(eval_trials())
    (inputs / "trials_utf8.tsv").write_text(eval_trials(utf8_id), encoding="utf-8")
    data, no_en, no_de = (str(work / d) for d in ("data", "no_en", "no_de"))
    run(work, "data", "synth", {"synth": SYNTH})
    vectors, records = read_store(data)
    for lang, dst in (("en", "no_en"), ("de", "no_de")):
        write_store(vectors, records[records.language != lang], work / dst)
    ids = [utf8_id(rid) for rid in records.record_id.tolist()]
    write_store(vectors, record_table(ids, *(records[f] for f in (
        "speaker_id", "language", "modality", "row"))), work / "utf8")
    write_store({kind: vecs[:, : NARROW.get(kind)] for kind, vecs in vectors.items()},
                records, work / "narrow")
    last = SYNTH["n_speakers"] - 1
    speakers = [utf8_id(f"s{last - int(s[1:]):03d}") for s in records.speaker_id.tolist()]
    write_store(vectors, record_table(records.record_id, speakers, *(records[f] for f in (
        "language", "modality", "row"))), work / "resorted")
    run(work, "train", "train",
        {"data": data, "dev_fraction": 0.25, "train": TRAIN})
    run(work, "train_narrow", "train", {"data": str(work / "narrow"),
                                         "dev_fraction": 0.25,
                                         "train": dict(TRAIN, p_drop=0.9)})
    run(work, "crossval", "crossval", {"data": data, "n_folds": 3, "train": TRAIN})
    run(work, "crossval7", "crossval",
        {"data": data, "n_folds": 7, "train": TRAIN})
    run(work, "pretrain-finetune", "pretrain-finetune", {
        "pretrain_data": data, "finetune_data": data, "n_folds": 2,
        "dev_fraction": 0.25, "pretrain": TRAIN, "finetune": TRAIN})
    run(work, "eval", "eval", {
        "checkpoint": str(work / "train" / "checkpoint.fvh"), "data": data,
        "trials": str(inputs / "trials.tsv")})
    run(work, "eval_utf8", "eval", {
        "checkpoint": str(work / "train" / "checkpoint.fvh"),
        "data": str(work / "utf8"), "trials": str(inputs / "trials_utf8.tsv")})
    run(work, "xattn", "xattn",
        {"data": data, "dev_fraction": 0.4, "train": XATTN})
    run(work, "xattn_dropout", "xattn",
        {"data": data, "dev_fraction": 0.4, "train": dict(XATTN, p_drop=0.3)})
    resorted = str(work / "resorted")
    run(work, "train_resorted", "train",
        {"data": resorted, "dev_fraction": 0.25, "train": TRAIN})
    run(work, "xattn_resorted", "xattn",
        {"data": resorted, "dev_fraction": 0.4, "train": XATTN})
    run(work, "scenarios", "scenarios", {
        "test_data": data, "n_trials_target": 15, "n_trials_nontarget": 15,
        "dev_fraction": 0.25, "train": TRAIN,
        "scenarios": {
            "english_heard": {"pretrain": data},
            "german_heard": {"pretrain": data},
            "english_unheard": {"pretrain": no_en, "finetune": no_en},
            "german_unheard": {"pretrain": no_de, "finetune": no_de},
        }})


def digests(work):
    out = {}
    for path in sorted(work.rglob("*")):
        rel = path.relative_to(work)
        if not path.is_file() or rel.parts[0] == "inputs":
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data.decode("utf-8").replace(str(work), "<work>"))
            report.pop("timestamp")
            data = json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
        out[rel.as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_all(work)
        print(json.dumps(digests(work), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
