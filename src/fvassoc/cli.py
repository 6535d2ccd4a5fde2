"""Command-line entry point.

Commands: synth, train, crossval, pretrain-finetune, scenarios, eval, xattn.
Every command takes --config <json>, --out <dir>, and an optional --seed
that overrides the seed of every config block. Reports are JSON, written
atomically (temp file + rename); the only non-deterministic field is
"timestamp".

CONFIG_SCHEMA describes each command's config keys; `load_config` and the
--help epilog both read it. A top-level key maps to its default (whose JSON
type is the key's type), to the type of a required key (`str` for a path,
`dict` for the scenarios table), or to a config dataclass whose block is
parsed from its fields. Types are strict: a bool takes only true/false, an
int only a JSON integer, a float an integer or a finite number. Ranges are
checked by each dataclass's validate() and, for top-level numbers, by the
traineval function that uses them.

Exit statuses: 0 success, else the `status` of the FvError that ended the
command (2 config/parse error, 3 protocol violation, 4 data/schema error,
5 numeric error; see errors.py), 4 for an input path that cannot be read
(OSError) and 5 for any other exception (printed with its type name).
"""

import argparse
import json
import os
import sys
import textwrap
import time
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import embedstore, synthgen, traineval
from .embedstore import ModalityKind, read_store, split_tsv_rows
from .errors import ConfigError, FormatError, FvError, MetricError, SchemaError
from .fusion import load_checkpoint, save_checkpoint
from .synthgen import SynthConfig
from .traineval import PairedDataset, TrainConfig, XAttnTrainConfig, trial_table


def _exit_code(exc):
    """The exit status of the exception `exc` that ended a command: an
    FvError's own status, 4 for an unusable input path (an OSError), else 5."""
    if isinstance(exc, FvError):
        return exc.status
    return 4 if isinstance(exc, OSError) else 5


CONFIG_SCHEMA = {
    "synth": {"synth": SynthConfig},
    "train": {"data": str, "dev_fraction": 0.05, "train": TrainConfig},
    "crossval": {"data": str, "n_folds": 7, "train": TrainConfig},
    "pretrain-finetune": {
        "pretrain_data": str, "finetune_data": str, "n_folds": 7,
        "dev_fraction": 0.05, "pretrain": TrainConfig, "finetune": TrainConfig,
    },
    "scenarios": {
        "test_data": str, "scenarios": dict, "n_trials_target": 200,
        "n_trials_nontarget": 200, "dev_fraction": 0.1, "train": TrainConfig,
    },
    "eval": {"checkpoint": str, "data": str, "trials": str},
    "xattn": {"data": str, "dev_fraction": 0.1, "train": XAttnTrainConfig},
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", dict: "a JSON object"}


def _check_keys(obj, allowed, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _check_type(value, kind, where):
    """`value` if JSON gave it as a `kind` (a float may be given as an
    integer and comes back a float), else a ConfigError naming `where`.
    A `kind` that is not a type is the parser of a hand-parsed field."""
    if kind not in _TYPE_NAMES:
        return kind(value, where)
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _parse_dims(value, where):
    if value == "small":
        return dict(synthgen.SMALL_DIMS)
    if value == "full":
        return dict(embedstore.FULL_DIMS)
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be 'small', 'full', or a mapping")
    _check_keys(value, {k.tag for k in ModalityKind}, where)
    return {
        ModalityKind.from_tag(t): _check_type(d, int, f"{where}.{t}")
        for t, d in value.items()
    }


def _parse_languages(value, where):
    return {
        tag: _check_type(p, float, f"{where}.{tag}")
        for tag, p in _check_type(value, dict, where).items()
    }


# SynthConfig fields with a JSON spelling of their own -> (parser, default).
# The CLI's default corpus speaks one language, not SynthConfig's en/de mix.
_HAND_PARSED = {
    "dims": (_parse_dims, "small"),
    "languages": (_parse_languages, {"en": 1.0}),
}


def _block_keys(cls):
    """JSON key -> (type, default) of a `cls` block; the fields of a nested
    config (TrainConfig.aam) are flat keys of the block."""
    keys = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            keys.update(_block_keys(f.type))
        else:
            keys[f.name] = _HAND_PARSED.get(f.name, (f.type, f.default))
    return keys


def _build(cls, values):
    return cls(**{
        f.name: _build(f.type, values) if is_dataclass(f.type) else values[f.name]
        for f in fields(cls)
    })


def _parse_block(cls, obj, where, seed_override):
    keys = _block_keys(cls)
    _check_keys(_check_type(obj, dict, where), keys, where)
    values = {
        key: _check_type(obj.get(key, default), kind, f"{where}.{key}")
        for key, (kind, default) in keys.items()
    }
    if seed_override is not None:
        values["seed"] = seed_override
    cfg = _build(cls, values)
    cfg.validate()
    return cfg


def load_config(command, path, seed_override=None):
    """The config of `command` read from the JSON file at `path`: every key
    of CONFIG_SCHEMA[command] with its default filled in, and each block a
    validated dataclass whose seed is `seed_override` when one is given."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # not JSON, nested too deeply, or holding an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    schema = CONFIG_SCHEMA[command]
    _check_keys(_check_type(raw, dict, "config root"), schema, "config")
    cfg = {}
    for key, spec in schema.items():
        if is_dataclass(spec):
            cfg[key] = _parse_block(spec, raw.get(key, {}), key, seed_override)
        elif spec in (str, dict):
            if key not in raw:
                raise ConfigError(f"missing config key: {key}")
            cfg[key] = _check_type(raw[key], spec, key)
        else:
            cfg[key] = _check_type(raw.get(key, spec), type(spec), key)
    return cfg


def _help_entry(key, spec):
    if is_dataclass(spec):
        return f"{key}={{{spec.__name__}}}"
    if spec is str:
        return key
    if spec is dict:
        return f"{key}={{...}}"
    return f"{key}={json.dumps(spec, separators=(',', ':'))}"


def _help_lines(label, entries):
    return textwrap.fill(
        ", ".join(entries), width=79, initial_indent=f"  {label:<19}",
        subsequent_indent=" " * 21, break_long_words=False,
        break_on_hyphens=False,
    )


def _help_epilog():
    """The --help text on config keys, generated from CONFIG_SCHEMA."""
    blocks = dict.fromkeys(
        spec for schema in CONFIG_SCHEMA.values() for spec in schema.values()
        if is_dataclass(spec)
    )
    notes = (
        "dims is \"small\", \"full\" or {tag: int} for the tags "
        + ", ".join(k.tag for k in ModalityKind)
        + "; languages maps a language tag to its probability. scenarios maps "
        + ", ".join(traineval.SCENARIOS)
        + ' each to {"pretrain": path, "finetune": path}; finetune is needed '
        "where the recipe fine-tunes."
    )
    return "\n".join([
        "config keys by command: key=default (the key takes the JSON type of",
        "its default), a bare key is a required path, key={...} a required",
        "object and key={Class} an object of the keys of Class below:",
        *(_help_lines(command, [_help_entry(k, s) for k, s in schema.items()])
          for command, schema in CONFIG_SCHEMA.items()),
        "config blocks:",
        *(_help_lines(cls.__name__, [
            _help_entry(k, default) for k, (_, default) in _block_keys(cls).items()
        ]) for cls in blocks),
        textwrap.fill(notes, width=79),
    ]) + "\n"


def atomic_write_json(path, payload):
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)


def make_report(config_echo, body):
    report = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    report["config"] = config_echo
    report.update(body)
    return report


def load_dataset(path):
    vectors, records = read_store(path)
    voices, v_skipped = embedstore.assemble_voice_inputs(vectors, records)
    faces, f_skipped = embedstore.assemble_face_inputs(vectors, records)
    ds = PairedDataset(faces, voices)
    return records, ds, {"skipped_voice": v_skipped, "skipped_face": f_skipped}


def _save_checkpoint(path, arrays, architecture, ds, **extra):
    """Save a checkpoint whose meta holds `architecture`, the input dims of
    `ds` and `extra` (out_dim, stage, fold; d_model, residual)."""
    meta = {"architecture": architecture, "face_in_dim": ds.face_dim,
            "voice_in_dim": ds.voice_dim, **extra}
    save_checkpoint(path, arrays, meta)


# ---------------------------------------------------------------------------
# Commands: each takes the resolved config and the output directory


def cmd_synth(cfg, out):
    synth = cfg["synth"]
    out.mkdir(parents=True, exist_ok=True)
    _, records, _ = synthgen.write_dataset(synth, out)
    dims = "/".join(str(synth.dims[k]) for k in ModalityKind)
    print(
        f"synth: {synth.n_speakers} speakers, {len(records)} records, dims {dims}"
    )


def cmd_train(cfg, out):
    train = cfg["train"]
    _, ds, skipped = load_dataset(cfg["data"])
    best, log, dev_spk = traineval.pretrain(
        ds, train, dev_fraction=cfg["dev_fraction"]
    )
    out.mkdir(parents=True, exist_ok=True)
    _save_checkpoint(out / "checkpoint.fvh", best["arrays"], "mapping-heads", ds,
                     out_dim=train.out_dim)
    report = make_report(
        {"train": asdict(train), "data": cfg["data"]},
        {
            "dev_eer": best["dev_eer"],
            "best_step": best["step"],
            "dev_speakers": dev_spk,
            "log": log,
            "skipped": skipped,
        },
    )
    atomic_write_json(out / "report.json", report)
    print(f"train: best dev EER {best['dev_eer']:.4f} at step {best['step']}")


def cmd_crossval(cfg, out):
    train, n_folds = cfg["train"], cfg["n_folds"]
    _, ds, _ = load_dataset(cfg["data"])
    cv = traineval.cross_validate(ds, train, n_folds=n_folds)
    out.mkdir(parents=True, exist_ok=True)
    for entry in cv["folds"]:
        _save_checkpoint(out / f"fold{entry['fold']}.fvh", entry.pop("arrays"),
                         "mapping-heads", ds, out_dim=train.out_dim,
                         fold=entry["fold"])
    report = make_report(
        {"train": asdict(train), "data": cfg["data"], "n_folds": n_folds}, cv
    )
    atomic_write_json(out / "report.json", report)
    print(
        f"crossval: mean EER {cv['mean_eer']:.4f} +- {cv['std_eer']:.4f} "
        f"over {n_folds} folds"
    )


def cmd_pretrain_finetune(cfg, out):
    cfg_pre, cfg_ft = cfg["pretrain"], cfg["finetune"]
    _, pre_ds, _ = load_dataset(cfg["pretrain_data"])
    _, ft_ds, _ = load_dataset(cfg["finetune_data"])
    result = traineval.pretrain_then_finetune(
        pre_ds,
        ft_ds,
        cfg_pre,
        cfg_ft,
        n_folds=cfg["n_folds"],
        dev_fraction=cfg["dev_fraction"],
    )
    out.mkdir(parents=True, exist_ok=True)
    _save_checkpoint(out / "pretrained.fvh", result["pretrain"].pop("arrays"),
                     "mapping-heads", pre_ds, out_dim=cfg_pre.out_dim,
                     stage="pretrain")
    for entry in result["finetune"]["folds"]:
        _save_checkpoint(out / f"finetuned_fold{entry['fold']}.fvh",
                         entry.pop("arrays"), "mapping-heads", ft_ds,
                         out_dim=cfg_ft.out_dim, stage="finetune",
                         fold=entry["fold"])
    report = make_report(
        {
            "pretrain": asdict(cfg_pre),
            "finetune": asdict(cfg_ft),
            "pretrain_data": cfg["pretrain_data"],
            "finetune_data": cfg["finetune_data"],
        },
        result,
    )
    atomic_write_json(out / "report.json", report)
    print(
        f"pretrain dev EER {result['pretrain']['dev_eer']:.4f}; "
        f"fine-tuned mean EER {result['finetune']['mean_eer']:.4f} "
        f"(frozen baseline {result['frozen_mean_eer']:.4f})"
    )


def cmd_scenarios(cfg, out):
    train, scenarios = cfg["train"], cfg["scenarios"]
    _check_keys(scenarios, traineval.SCENARIOS, "scenarios")
    missing = sorted(set(traineval.SCENARIOS) - set(scenarios))
    if missing:
        raise ConfigError(f"missing scenario entries: {', '.join(missing)}")
    for name, entry in scenarios.items():  # every key before any corpus
        where = f"scenarios.{name}"
        unheard = traineval.SCENARIOS[name]["unheard"]
        stages = ("pretrain", "finetune") if unheard else ("pretrain",)
        _check_keys(_check_type(entry, dict, where), stages, where)
        for stage in sorted(entry.keys() | {"pretrain"}):
            _check_type(entry.get(stage), str, f"{where}.{stage}")
    corpora = {
        name: {stage: load_dataset(path)[:2] for stage, path in entry.items()}
        for name, entry in scenarios.items()
    }
    _, test_ds, _ = load_dataset(cfg["test_data"])
    table = traineval.run_scenarios(
        corpora,
        test_ds,
        train,
        n_trials_target=cfg["n_trials_target"],
        n_trials_nontarget=cfg["n_trials_nontarget"],
        dev_fraction=cfg["dev_fraction"],
    )
    out.mkdir(parents=True, exist_ok=True)
    report = make_report({"train": asdict(train)}, table)
    atomic_write_json(out / "report.json", report)
    for name, row in table["scenarios"].items():
        print(f"{name}: EER {row['eer']:.4f}")
    print(f"overall mean EER {table['overall_mean_eer']:.4f}")


TRIALS_HEADER = "face_record_id\tvoice_record_id\tlabel"


def read_trials_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: trials file is not UTF-8 text") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != TRIALS_HEADER:
        raise FormatError(f"{path}: bad trials header")
    rows = lines[1:]
    cols = split_tsv_rows(rows, 3)
    if (cols is None
            or cols[2].count("same") + cols[2].count("different") != len(rows)):
        bad = next(ln for ln in rows
                   if ln.split("\t")[2:] not in (["same"], ["different"]))
        raise FormatError(f"{path}: bad trial row {bad!r}")
    return trial_table(cols[0], cols[1], np.array(cols[2]) == "same")


def _write_rows(path, header, trials, *extra):
    """Write `header`, then per trial its ids, label and `extra` entries."""
    labels = np.where(trials.label, "same", "different").tolist()
    rows = zip(trials.face_id.tolist(), trials.voice_id.tolist(), labels, *extra)
    Path(path).write_text("\n".join([header, *map("\t".join, rows)]) + "\n",
                          encoding="utf-8")


def write_trials_file(path, trials):
    _write_rows(path, TRIALS_HEADER, trials)


def write_score_file(path, trials, scores):
    _write_rows(path, TRIALS_HEADER + "\tscore", trials,
                map("{:.9g}".format, scores.tolist()))


def cmd_eval(cfg, out):
    arrays, meta = load_checkpoint(cfg["checkpoint"])
    if meta.get("architecture") != "mapping-heads":
        raise SchemaError(
            f"eval scores mapping-heads checkpoints, got architecture "
            f"{meta.get('architecture')!r}"
        )
    _, ds, _ = load_dataset(cfg["data"])
    if meta.get("face_in_dim") != ds.face_dim or meta.get("voice_in_dim") != ds.voice_dim:
        raise SchemaError(
            f"checkpoint dims ({meta.get('face_in_dim')}, "
            f"{meta.get('voice_in_dim')}) do not match stores "
            f"({ds.face_dim}, {ds.voice_dim})"
        )
    trials = read_trials_file(cfg["trials"])
    if len(trials) == 0:
        raise MetricError("empty trial file")
    scores, report = traineval.score_arrays(arrays, trials, ds)
    out.mkdir(parents=True, exist_ok=True)
    write_score_file(out / "scores.tsv", trials, scores)
    payload = make_report(
        {"checkpoint": cfg["checkpoint"], "data": cfg["data"], "trials": cfg["trials"]},
        {"eval": report.to_dict(), "score_file": "scores.tsv"},
    )
    atomic_write_json(out / "report.json", payload)
    print(f"eval: EER {report.eer:.4f} over {len(trials)} trials")


def cmd_xattn(cfg, out):
    train = cfg["train"]
    _, ds, _ = load_dataset(cfg["data"])
    # dev-trial counts are TrainConfig's defaults under the xattn seed
    train_ds, trials, dev_spk = traineval.dev_split(
        ds, cfg["dev_fraction"], TrainConfig(seed=train.seed)
    )
    model, best, log = traineval.train_xattn(train_ds, trials, ds, train)
    out.mkdir(parents=True, exist_ok=True)
    _save_checkpoint(out / "checkpoint.fvh", best["arrays"], "cross-attention", ds,
                     d_model=train.d_model, residual=train.residual)
    write_trials_file(out / "dev_trials.tsv", trials)
    report = make_report(
        {"train": asdict(train), "data": cfg["data"]},
        {
            "architecture": "cross-attention",
            "dev_eer": best["dev_eer"],
            "best_step": best["step"],
            "dev_speakers": dev_spk,
            "dev_trials_file": "dev_trials.tsv",
            "log": log,
        },
    )
    atomic_write_json(out / "report.json", report)
    print(f"xattn: best dev EER {best['dev_eer']:.4f} at step {best['step']}")


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "crossval": cmd_crossval,
    "pretrain-finetune": cmd_pretrain_finetune,
    "scenarios": cmd_scenarios,
    "eval": cmd_eval,
    "xattn": cmd_xattn,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fvassoc",
        description="Face-voice association training and evaluation toolkit.",
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--seed", type=int, default=None, help="seed override (u64)"
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args.config, args.seed)
        COMMANDS[args.command](cfg, Path(args.out))
    except Exception as exc:  # mapped to the stable exit-status contract
        unmapped = "" if isinstance(exc, FvError) else f"{type(exc).__name__}: "
        print(f"error: {unmapped}{exc}", file=sys.stderr)
        return _exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
