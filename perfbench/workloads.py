"""Workload inputs and output checks for the fvassoc CLI benchmark.

Each workload builds its inputs from the benchmark seed (synthetic corpus,
config files, and for ``eval_many`` a trial list and a checkpoint), names the
one CLI command that is timed, and checks that command's outputs with code
that does not call into fvassoc: the report schema, the checkpoint shapes
(read with a parser of the documented FVH1 layout), and for ``eval_many`` an
EER recomputed from ``scores.tsv``.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# Corpora. Noise puts each workload's EER well above 0 and high enough that
# it varies little between seeds; the wide corpus is shared by trials_wide
# and eval_many.
CORPORA = {
    "full_100": {"n_speakers": 100, "dims": "full", "noise_sigma": 5.0,
                 "records_per_speaker": 10},
    "wide_600": {"n_speakers": 600, "dims": "small", "noise_sigma": 1.5,
                 "records_per_speaker": 10},
    "a8_30": {"n_speakers": 30, "dims": "small", "noise_sigma": 0.01,
              "records_per_speaker": 10},
}

# patience exceeds the number of evaluations, so every run takes max_steps.
# At small dims p_drop stays at 0.5: with the default 0.9 a 56-wide face
# input is now and then dropped entirely, and training exits with status 4.
WORKLOADS = {
    "train_full": {
        "why": "full-width train: Adam, head forward/backward, AAM loss, "
               "dev scoring and large-record reads do the work",
        "command": "train",
        "corpus": "full_100",
        "config": {"dev_fraction": 0.2,
                   "train": {"max_steps": 40, "eval_every": 40,
                             "patience": 10, "n_dev_target": 2000,
                             "n_dev_nontarget": 2000}},
        "eer_ceiling": 0.45,
    },
    "trials_wide": {
        "why": "600 small speakers, half held out: generate_trials builds "
               "3000x3000 pair pools; training maths is minor",
        "command": "train",
        "corpus": "wide_600",
        "config": {"dev_fraction": 0.5,
                   "train": {"max_steps": 60, "eval_every": 20,
                             "patience": 10, "p_drop": 0.5,
                             "n_dev_target": 10_000,
                             "n_dev_nontarget": 10_000}},
        "eer_ceiling": 0.45,
    },
    "xattn_small": {
        "why": "A8-shaped cross-attention run: attention einsums, per-step "
               "pair sampling and many tiny Adam calls",
        "command": "xattn",
        "corpus": "a8_30",
        "config": {"dev_fraction": 0.5,
                   "train": {"d_model": 8, "lr": 0.01, "batch_size": 128,
                             "max_steps": 300, "eval_every": 100,
                             "patience": 10, "p_drop": 0.3}},
        # after 300 steps this model is close to chance on most seeds
        "eer_ceiling": 0.65,
    },
    "eval_many": {
        "why": "read-only path: parse a 200k-row trial file, project and "
               "score every row, sort for the EER, write scores.tsv",
        "command": "eval",
        "corpus": "wide_600",
        # training run that makes the checkpoint during set-up
        "config": {"dev_fraction": 0.05,
                   "train": {"max_steps": 60, "eval_every": 30,
                             "patience": 10, "p_drop": 0.5}},
        "n_target": 20_000,
        "n_nontarget": 180_000,
        "eer_ceiling": 0.45,
    },
}

TRIALS_HEADER = "face_record_id\tvoice_record_id\tlabel"
SCORES_HEADER = TRIALS_HEADER + "\tscore"


class CheckError(Exception):
    """An output of the timed command is wrong; `eer` is the EER it
    reported, when the report got that far."""

    def __init__(self, message, eer=None):
        super().__init__(message)
        self.eer = eer


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# Setup


def setup(name, seed, work, cli):
    """Build the inputs of workload `name` under `work`.

    `cli(args, traceable=False)` runs one fvassoc command and raises on
    failure; only traceable commands are traced in a traced run.
    Returns the context that `argv` and `check` need.
    """
    spec = WORKLOADS[name]
    work.mkdir(parents=True)
    data = work / "data"
    synth_cfg = work / "synth.json"
    _write_json(synth_cfg, {"synth": dict(CORPORA[spec["corpus"]], seed=seed)})
    cli(["synth", "--config", str(synth_cfg), "--out", str(data)], traceable=True)
    ctx = {"name": name, "data": data, "dims": _manifest_dims(data)}

    run_cfg = dict(spec["config"], data=str(data))
    run_cfg["train"] = dict(run_cfg["train"], seed=seed + 1)
    if name == "eval_many":
        train_cfg = work / "ckpt_train.json"
        _write_json(train_cfg, run_cfg)
        ckpt_dir = work / "ckpt"
        cli(["train", "--config", str(train_cfg), "--out", str(ckpt_dir)])
        trials = work / "trials.tsv"
        ctx["trials"] = write_trials(
            data, trials, spec["n_target"], spec["n_nontarget"], seed
        )
        run_cfg = {"checkpoint": str(ckpt_dir / "checkpoint.fvh"),
                   "data": str(data), "trials": str(trials)}
    ctx["config"] = work / "run.json"
    _write_json(ctx["config"], run_cfg)
    ctx["run_config"] = run_cfg
    return ctx


def argv(ctx, out_dir):
    """CLI arguments of the timed command."""
    command = WORKLOADS[ctx["name"]]["command"]
    return [command, "--config", str(ctx["config"]), "--out", str(out_dir)]


def _manifest_rows(data):
    lines = (Path(data) / "manifest.tsv").read_text(encoding="utf-8").split("\n")
    return [ln.split("\t") for ln in lines[1:] if ln]


def _manifest_dims(data):
    """Face and voice input widths, from the manifest's per-record dims."""
    dim = {}
    for rid, _, _, tag, d in _manifest_rows(data):
        dim[tag] = int(d)
    return {"face": dim["fid"] + dim["fag"], "voice": dim["vspk"] + dim["vag"]}


def write_trials(data, path, n_target, n_nontarget, seed):
    """Seeded trial list over the corpus's face and voice owners.

    Target pairs are drawn without replacement from the same-speaker pool;
    non-target pairs are drawn uniformly over cross-speaker pairs.
    """
    faces, voices = {}, {}
    for rid, spk, _, tag, _ in _manifest_rows(data):
        owner = rid.split("#", 1)[0]
        if tag == "fid":
            faces.setdefault(spk, []).append(owner)
        elif tag == "vspk":
            voices.setdefault(spk, []).append(owner)
    speakers = sorted(faces)
    rng = np.random.default_rng(seed)
    same = [(f, v) for s in speakers for f in faces[s] for v in voices[s]]
    pick = rng.choice(len(same), size=n_target, replace=False)
    rows = [(*same[i], "same") for i in pick]
    face_ids = [f for s in speakers for f in faces[s]]
    voice_ids = [v for s in speakers for v in voices[s]]
    face_spk = np.repeat(np.arange(len(speakers)), [len(faces[s]) for s in speakers])
    voice_spk = np.repeat(np.arange(len(speakers)), [len(voices[s]) for s in speakers])
    # two draws per wanted pair leave plenty after dropping same-speaker ones
    fi = rng.integers(0, len(face_ids), size=2 * n_nontarget)
    vi = rng.integers(0, len(voice_ids), size=2 * n_nontarget)
    cross = face_spk[fi] != voice_spk[vi]
    fi, vi = fi[cross][:n_nontarget], vi[cross][:n_nontarget]
    rows += [(face_ids[f], voice_ids[v], "different") for f, v in zip(fi, vi)]
    order = rng.permutation(len(rows))
    lines = [TRIALS_HEADER] + ["\t".join(rows[i]) for i in order]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [rows[i] for i in order]


# ---------------------------------------------------------------------------
# Checks


def digest(out_dir):
    """sha256 over every output file; report.json without its timestamp."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timestamp", None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def check(ctx, out_dir):
    """Check the timed command's outputs; return the EER it reports."""
    name = ctx["name"]
    out_dir = Path(out_dir)
    files = sorted(p.name for p in out_dir.iterdir())
    expected = {
        "train": ["checkpoint.fvh", "report.json"],
        "xattn": ["checkpoint.fvh", "dev_trials.tsv", "report.json"],
        "eval": ["report.json", "scores.tsv"],
    }[WORKLOADS[name]["command"]]
    if files != expected:
        raise CheckError(f"output files {files}, expected {expected}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if name == "eval_many":
        eer = _check_eval(ctx, out_dir, report)
    else:
        eer = _check_training(ctx, out_dir, report)
    if not 0.0 < eer < WORKLOADS[name]["eer_ceiling"]:
        raise CheckError(
            f"EER {eer} outside (0, {WORKLOADS[name]['eer_ceiling']})", eer
        )
    return eer


def _keys(obj, keys, where):
    if not isinstance(obj, dict) or set(obj) != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise CheckError(f"{where} keys {got}, expected {sorted(keys)}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise CheckError(f"{where} is not a finite number: {value!r}")
    return value


def _check_training(ctx, out_dir, report):
    xattn = ctx["name"] == "xattn_small"
    keys = {"timestamp", "config", "dev_eer", "best_step", "dev_speakers", "log"}
    keys |= {"architecture", "dev_trials_file"} if xattn else {"skipped"}
    _keys(report, keys, "report")
    if not isinstance(report["timestamp"], str):
        raise CheckError("report timestamp is not a string")
    eer = _number(report["dev_eer"], "dev_eer")
    log = report["log"]
    steps = [_number(e.get("step"), "log step") for e in log]
    eers = [_number(e.get("dev_eer"), "log dev_eer") for e in log]
    max_steps = ctx["run_config"]["train"]["max_steps"]
    if steps[0] != 0 or steps[-1] != max_steps or steps != sorted(steps):
        raise CheckError(f"log steps {steps} do not run 0..{max_steps}")
    if report["best_step"] not in steps or eer != min(eers):
        raise CheckError("dev_eer/best_step disagree with the log")
    dev = report["dev_speakers"]
    if not dev or not all(isinstance(s, str) for s in dev):
        raise CheckError("dev_speakers is not a list of speaker ids")

    arrays, meta = read_checkpoint(out_dir / "checkpoint.fvh")
    dims = ctx["dims"]
    if xattn:
        if report["architecture"] != "cross-attention" \
                or report["dev_trials_file"] != "dev_trials.tsv":
            raise CheckError("xattn report fields wrong")
        d = ctx["run_config"]["train"]["d_model"]
        shapes = {f"layer{i}.{w}": (d, d) for i in range(2)
                  for w in ("wq", "wk", "wv", "wo")}
        shapes.update({"out_w": (1, d), "out_b": (1, 1)})
        want_meta = {"architecture": "cross-attention", "d_model": d,
                     "face_in_dim": dims["face"], "voice_in_dim": dims["voice"],
                     "residual": True}
        header = (out_dir / "dev_trials.tsv").read_text("utf-8").split("\n")[0]
        if header != TRIALS_HEADER:
            raise CheckError("dev_trials.tsv header wrong")
    else:
        n_train = CORPORA[WORKLOADS[ctx["name"]]["corpus"]]["n_speakers"] - len(dev)
        out = 192
        shapes = {"head_face.weight": (out, dims["face"]),
                  "head_face.bias": (1, out),
                  "head_voice.weight": (out, dims["voice"]),
                  "head_voice.bias": (1, out),
                  "clf.weight": (n_train, out)}
        want_meta = {"architecture": "mapping-heads", "face_in_dim": dims["face"],
                     "voice_in_dim": dims["voice"], "out_dim": out}
    got = {k: v.shape for k, v in arrays.items()}
    if got != shapes:
        raise CheckError(f"checkpoint shapes {got}, expected {shapes}")
    if meta != want_meta:
        raise CheckError(f"checkpoint meta {meta}, expected {want_meta}")
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise CheckError("checkpoint holds non-finite weights")
    return eer


def _check_eval(ctx, out_dir, report):
    _keys(report, {"timestamp", "config", "eval", "score_file"}, "report")
    _keys(report["eval"], {"eer", "threshold_at_eer", "n_target", "n_nontarget"},
          "report.eval")
    if report["score_file"] != "scores.tsv":
        raise CheckError("score_file is not scores.tsv")
    trials = ctx["trials"]
    n_target = sum(1 for t in trials if t[2] == "same")
    if (report["eval"]["n_target"], report["eval"]["n_nontarget"]) != \
            (n_target, len(trials) - n_target):
        raise CheckError("report trial counts disagree with the trial file")
    lines = (out_dir / "scores.tsv").read_text("utf-8").split("\n")
    if lines[0] != SCORES_HEADER or lines[-1] != "" or len(lines) != len(trials) + 2:
        raise CheckError("scores.tsv header or row count wrong")
    scores = np.empty(len(trials))
    for i, (line, trial) in enumerate(zip(lines[1:-1], trials)):
        *ids, score = line.split("\t")
        if tuple(ids) != trial:
            raise CheckError(f"scores.tsv row {i + 1} is not trial {trial}")
        scores[i] = float(score)
    if not np.all(np.abs(scores) <= 1.0 + 1e-9):
        raise CheckError("a cosine score lies outside [-1, 1]")
    labels = np.array([t[2] == "same" for t in trials])
    eer = _number(report["eval"]["eer"], "eval.eer")
    ours = reference_eer(scores[labels], scores[~labels])
    # scores.tsv keeps 9 significant digits, which can reorder near-ties
    if abs(ours - eer) > 1e-4:
        raise CheckError(f"EER {eer} but scores.tsv gives {ours}")
    return eer


def reference_eer(tar, non):
    """EER at the crossing of FRR (target < t) and FAR (non-target >= t),
    linearly interpolated between the two thresholds that bracket it."""
    tar, non = np.sort(tar), np.sort(non)
    thr = np.append(np.unique(np.concatenate([tar, non])), np.inf)
    frr = np.searchsorted(tar, thr, side="left") / len(tar)
    far = 1.0 - np.searchsorted(non, thr, side="left") / len(non)
    k = int(np.argmax(frr >= far))
    if frr[k] == far[k]:
        return float(far[k])
    a, b = frr[k - 1] - far[k - 1], frr[k] - far[k]
    return float(far[k - 1] + (-a / (b - a)) * (far[k] - far[k - 1]))


def read_checkpoint(path):
    """Parse an FVH1 checkpoint: magic, u32 version, u32 meta length, JSON
    meta, u32 array count, then per array u16 name length, u32 rows, u32
    cols, the name and rows*cols little-endian float64 values."""
    data = Path(path).read_bytes()
    if data[:4] != b"FVH1":
        raise CheckError("checkpoint magic is not FVH1")
    try:
        version, meta_len = struct.unpack_from("<II", data, 4)
        off = 12 + meta_len
        meta = json.loads(data[12:off].decode("utf-8"))
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        arrays = {}
        for _ in range(count):
            name_len, rows, cols = struct.unpack_from("<HII", data, off)
            off += 10
            name = data[off:off + name_len].decode("utf-8")
            off += name_len
            n = rows * cols
            arrays[name] = np.frombuffer(data, "<f8", n, off).reshape(rows, cols)
            off += 8 * n
    except (struct.error, ValueError) as exc:
        raise CheckError(f"checkpoint unreadable: {exc}") from exc
    if version != 1 or off != len(data):
        raise CheckError("checkpoint version or length wrong")
    return arrays, meta
