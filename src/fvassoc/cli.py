"""Command-line entry point.

Commands: synth, train, crossval, pretrain-finetune, scenarios, eval, xattn.
Every command takes --config <json>, --out <dir>, and an optional --seed
that overrides the seed of every config block. An `Output` owns --out: each
file is staged as <name>.tmp as soon as it exists, and only a command that
succeeds gives them their final names, report.json last; a failed one
leaves --out as it found it. The JSON report echoes the whole resolved
config; its only non-deterministic field is "timestamp".

`eval` reads its trial file with `embedstore.read_tsv`; `scores.tsv` and
`dev_trials.tsv` are written `_WRITE_BLOCK` rows at a time, never whole.

CONFIG_SCHEMA describes each command's config keys; `load_config` and the
--help epilog both read it. A top-level key maps to its default (whose JSON
type is the key's type), to the type of a required key (`str` for a path,
`dict` for the scenarios table), or to a config dataclass whose block is
parsed from its fields. Types are strict: a bool takes only true/false, an
int only a JSON integer, a float an integer or a finite number. Ranges are
checked by each dataclass's validate() and, for top-level numbers, by
`load_config` (dev_fraction, n_folds >= 2) before any corpus is read, or by
the traineval function that uses them when a bound needs the corpus.

Exit statuses: 0 success, else the `status` of the FvError that ended the
command (2 config/parse error, 3 protocol violation, 4 data/schema error,
5 numeric error; see errors.py), 4 for an input path that cannot be read
(OSError) and 5 for any other exception (printed with its type name).
"""

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
import textwrap
import time
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import embedstore, synthgen, traineval
from .embedstore import ModalityKind, read_store, read_tsv, tsv_rows
from .errors import (ConfigError, FormatError, FvError, MetricError, SchemaError,
                     check_fraction)
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
    languages = _check_type(value, dict, where)
    bad = [tag for tag in languages if set(tag) & set("\t\n\r\0")]
    if bad:  # a manifest row, one line of tab-separated fields, could not hold it
        raise ConfigError(f"{where}: language tag {bad[0]!r} holds a tab, line end or NUL")
    return {tag: _check_type(p, float, f"{where}.{tag}")
            for tag, p in languages.items()}


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
    validated dataclass whose seed is `seed_override` when one is given;
    dev_fraction and n_folds are range-checked too."""
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
    if "dev_fraction" in cfg:
        check_fraction(dev_fraction=cfg["dev_fraction"])
    if "n_folds" in cfg:
        traineval.check_n_folds(cfg["n_folds"])
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


def load_dataset(path):
    vectors, records = read_store(path)
    voices, v_skipped = embedstore.assemble_voice_inputs(vectors, records)
    faces, f_skipped = embedstore.assemble_face_inputs(vectors, records)
    ds = PairedDataset(faces, voices)
    return records, ds, {"skipped_voice": v_skipped, "skipped_face": f_skipped}


class Output:
    """A command's --out directory, made with its parents at once. Files are
    staged as <name>.tmp as soon as they exist; commit() adds report.json and
    gives them all their final names, and discard() deletes them and each
    directory made here."""

    def __init__(self, path):
        self.path, self._staged = Path(path), []
        self._made = [p for p in (self.path, *self.path.parents) if not p.exists()]
        self.path.mkdir(parents=True, exist_ok=True)

    def write(self, name, fn, *args):
        """Stage the file `name`, written by fn(its staging path, *args)."""
        tmp = self.path / f"{name}.tmp"
        self._staged.append(tmp)
        fn(tmp, *args)

    def checkpoint(self, name, arrays, architecture, ds, **extra):
        """Stage a checkpoint whose meta holds `architecture`, the input dims
        of `ds` and `extra` (out_dim, stage, fold; d_model, residual)."""
        meta = {"architecture": architecture, "face_in_dim": ds.face_dim,
                "voice_in_dim": ds.voice_dim, **extra}
        self.write(name, save_checkpoint, arrays, meta)

    def commit(self, cfg, body):
        """Stage report.json, `body` with the timestamp and the resolved
        config `cfg`, each block a dict; then rename every staged file into
        place, the report last."""
        config = {k: asdict(v) if is_dataclass(v) else v for k, v in cfg.items()}
        report = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  "config": config, **body}
        self.write("report.json", Path.write_text,
                   json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
        for tmp in self._staged:
            os.replace(tmp, tmp.with_suffix(""))

    def discard(self):
        """Delete the staged files, then each directory made here if empty."""
        for tmp in self._staged:
            tmp.unlink(missing_ok=True)
        for made in self._made:
            with contextlib.suppress(OSError):
                made.rmdir()


# ---------------------------------------------------------------------------
# Commands: each takes the resolved config and the Output of --out


def cmd_synth(cfg, out):
    synth = cfg["synth"]
    _, records, _ = synthgen.write_dataset(synth, out.path)
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
    out.checkpoint("checkpoint.fvh", best["arrays"], "mapping-heads", ds,
                   out_dim=train.out_dim)
    out.commit(cfg, {
        "dev_eer": best["dev_eer"],
        "best_step": best["step"],
        "dev_speakers": dev_spk,
        "log": log,
        "skipped": skipped,
    })
    print(f"train: best dev EER {best['dev_eer']:.4f} at step {best['step']}")


def cmd_crossval(cfg, out):
    train, n_folds = cfg["train"], cfg["n_folds"]
    _, ds, _ = load_dataset(cfg["data"])

    def save(fold, arrays):
        out.checkpoint(f"fold{fold}.fvh", arrays, "mapping-heads", ds,
                       out_dim=train.out_dim, fold=fold)

    cv = traineval.cross_validate(ds, train, save, n_folds=n_folds)
    out.commit(cfg, cv)
    print(
        f"crossval: mean EER {cv['mean_eer']:.4f} +- {cv['std_eer']:.4f} "
        f"over {n_folds} folds"
    )


def cmd_pretrain_finetune(cfg, out):
    cfg_pre, cfg_ft = cfg["pretrain"], cfg["finetune"]
    load = functools.cache(load_dataset)  # a path named twice is read once
    _, pre_ds, _ = load(cfg["pretrain_data"])
    _, ft_ds, _ = load(cfg["finetune_data"])

    def save(fold, arrays):
        if fold is None:
            out.checkpoint("pretrained.fvh", arrays, "mapping-heads", pre_ds,
                           out_dim=cfg_pre.out_dim, stage="pretrain")
        else:
            out.checkpoint(f"finetuned_fold{fold}.fvh", arrays, "mapping-heads",
                           ft_ds, out_dim=cfg_ft.out_dim, stage="finetune",
                           fold=fold)

    result = traineval.pretrain_then_finetune(
        pre_ds, ft_ds, cfg_pre, cfg_ft, save,
        n_folds=cfg["n_folds"], dev_fraction=cfg["dev_fraction"],
    )
    out.commit(cfg, result)
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
    settings = {key: cfg[key] for key in ("n_trials_target", "n_trials_nontarget",
                                          "dev_fraction")}
    traineval.check_scenarios(scenarios, **settings)
    load = functools.cache(load_dataset)  # in config order, each path once
    corpora = {name: {stage: load(path)[:2] for stage, path in entry.items()}
               for name, entry in scenarios.items()}
    _, test_ds, _ = load(cfg["test_data"])
    table = traineval.run_scenarios(corpora, test_ds, train, **settings)
    out.commit(cfg, table)
    for name, row in table["scenarios"].items():
        print(f"{name}: EER {row['eer']:.4f}")
    print(f"overall mean EER {table['overall_mean_eer']:.4f}")


TRIALS_HEADER = "face_record_id\tvoice_record_id\tlabel"


def read_trials_file(path):
    cols = read_tsv(path, TRIALS_HEADER, "trials file",
                    {2: [b"different", b"same"]})
    if cols is None:
        bad = next(ln for ln in tsv_rows(path)
                   if ln.split("\t")[2:] not in (["same"], ["different"]))
        raise FormatError(f"{path}: bad trial row {bad!r}")
    return trial_table(cols[0], cols[1], cols[2] == 1)


_WRITE_BLOCK = 4096  # rows formatted and written at a time
_LABELS = np.array([b"different", b"same"]).view(np.uint8).reshape(2, -1)


def _utf8_cells(ids):
    """The UTF-8 bytes of each id of a str array as a 0-padded uint8 row: an
    ASCII column narrowed from its code points, any other encoding each
    distinct id once."""
    points = np.ascontiguousarray(ids).view(np.uint32).reshape(len(ids), -1)
    if points.max(initial=0) < 128:
        return points.astype(np.uint8)
    names, at = np.unique(ids, return_inverse=True)
    names = np.array([name.encode() for name in names.tolist()])
    return names.view(np.uint8).reshape(len(names), -1)[at]


def _write_rows(path, header, trials, scores=None):
    """Write `header`, then per trial its ids, label and, if given, score
    (as "%.9g"), one block of rows at a time. A block's fields are 0-padded
    byte rows, each score formatted by one `%` per block as "%-16.9g" (no
    "%.9g" is longer) with its padding spaces zeroed; the block is written
    without its zero bytes, which no field holds."""
    face, voice, label = trials.face_id, trials.voice_id, trials.label.view(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for i in range(0, len(trials), _WRITE_BLOCK):
            block = slice(i, i + _WRITE_BLOCK)
            sep = np.full((len(label[block]), 1), 9, np.uint8)  # "\t"
            fields = [_utf8_cells(face[block]), sep, _utf8_cells(voice[block]), sep,
                      _LABELS[label[block]], sep + 1]  # "\n"
            if scores is not None:
                text = "%-16.9g\n" * len(sep) % tuple(scores[block].tolist())
                cells = np.frombuffer(text.encode(), np.uint8).reshape(len(sep), 17)
                fields[-1:] = [sep, cells * (cells != 32)]  # " " -> 0
            rows = np.concatenate(fields, axis=1)
            fh.write(rows[rows != 0].tobytes())


def write_score_file(path, trials, scores):
    _write_rows(path, TRIALS_HEADER + "\tscore", trials, scores)


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
    out.write("scores.tsv", write_score_file, trials, scores)
    out.commit(cfg, {"eval": asdict(report), "score_file": "scores.tsv"})
    print(f"eval: EER {report.eer:.4f} over {len(trials)} trials")


def cmd_xattn(cfg, out):
    train = cfg["train"]
    _, ds, _ = load_dataset(cfg["data"])
    # dev-trial counts are TrainConfig's defaults under the xattn seed
    train_ds, trials, dev_spk = traineval.dev_split(
        ds, cfg["dev_fraction"], TrainConfig(seed=train.seed)
    )
    model, best, log = traineval.train_xattn(train_ds, trials, ds, train)
    out.checkpoint("checkpoint.fvh", best["arrays"], "cross-attention", ds,
                   d_model=train.d_model, residual=train.residual)
    out.write("dev_trials.tsv", _write_rows, TRIALS_HEADER, trials)
    out.commit(cfg, {
        "architecture": "cross-attention",
        "dev_eer": best["dev_eer"],
        "best_step": best["step"],
        "dev_speakers": dev_spk,
        "dev_trials_file": "dev_trials.tsv",
        "log": log,
    })
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


def _keep_freed_heap():
    """Keep freed heap for the next small step, not trimmed and faulted back
    in. Sets both thresholds: any `mallopt` call stops glibc adapting them."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's dynamic ceiling
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None):
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    out = None
    try:
        cfg = load_config(args.command, args.config, args.seed)
        out = Output(args.out)  # an unusable --out fails before any work
        COMMANDS[args.command](cfg, out)
    except Exception as exc:  # mapped to the stable exit-status contract
        if out is not None:
            out.discard()
        unmapped = "" if isinstance(exc, FvError) else f"{type(exc).__name__}: "
        print(f"error: {unmapped}{exc}", file=sys.stderr)
        return _exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
