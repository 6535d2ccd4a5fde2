"""Command-line entry point.

Commands: synth, train, crossval, pretrain-finetune, scenarios, eval, xattn.
Every command takes --config <json>, --out <dir>, and an optional --seed
that overrides the config's seed. Reports are JSON, written atomically
(temp file + rename); the only non-deterministic field is "timestamp".

Exit statuses: 0 success, 2 config/parse error, 3 protocol violation
(unheard-language leakage), 4 data/schema error, 5 internal numeric error.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import embedstore, synthgen, traineval
from .aamloss import AamConfig
from .embedstore import ModalityKind, read_store
from .errors import (
    ConfigError,
    DegenerateVectorError,
    EmptyDatasetError,
    FormatError,
    LookupError_,
    MetricError,
    NumericError,
    ProtocolViolationError,
    SamplingError,
    SchemaError,
    ShapeError,
)
from .diffcore import make_rng
from .fusion import head_from_arrays, load_checkpoint, save_checkpoint
from .traineval import (
    PairedDataset,
    TrainConfig,
    Trial,
    XAttnTrainConfig,
    compute_eer,
    score_trials,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5

_EXIT_BY_ERROR = [
    (ProtocolViolationError, EXIT_PROTOCOL),
    (ConfigError, EXIT_CONFIG),
    (NumericError, EXIT_NUMERIC),
    (
        (
            FormatError,
            SchemaError,
            EmptyDatasetError,
            LookupError_,
            SamplingError,
            MetricError,
            ShapeError,
            DegenerateVectorError,
            FileNotFoundError,
        ),
        EXIT_DATA,
    ),
]


def _exit_code(exc):
    for types, code in _EXIT_BY_ERROR:
        if isinstance(exc, types):
            return code
    return EXIT_NUMERIC


def load_config(path, allowed, required=()):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return cfg


def _check_keys(obj, allowed, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


_TRAIN_KEYS = {
    "lr",
    "batch_size",
    "max_steps",
    "patience",
    "eval_every",
    "seed",
    "p_drop",
    "out_dim",
    "scale",
    "margin",
    "classifier_reinit",
    "n_dev_target",
    "n_dev_nontarget",
}


def _get(obj, key, default, kind):
    """obj[key] (or `default`) converted by `kind`; a value it cannot convert,
    such as "abc" or null for a number, is a ConfigError naming the key."""
    value = obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


def parse_train_config(obj, seed_override=None):
    _check_keys(obj, _TRAIN_KEYS, "train config")
    cfg = TrainConfig(
        lr=_get(obj, "lr", 1e-2, float),
        batch_size=_get(obj, "batch_size", 32, int),
        max_steps=_get(obj, "max_steps", 500, int),
        patience=_get(obj, "patience", 5, int),
        eval_every=_get(obj, "eval_every", 25, int),
        seed=_get(obj, "seed", 0, int),
        aam=AamConfig(
            scale=_get(obj, "scale", 30.0, float),
            margin=_get(obj, "margin", 0.2, float),
        ),
        p_drop=_get(obj, "p_drop", 0.9, float),
        out_dim=_get(obj, "out_dim", 192, int),
        classifier_reinit=_get(obj, "classifier_reinit", True, bool),
        n_dev_target=_get(obj, "n_dev_target", 1000, int),
        n_dev_nontarget=_get(obj, "n_dev_nontarget", 1000, int),
    )
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg


_SYNTH_KEYS = {
    "n_speakers",
    "latent_dim",
    "dims",
    "noise_sigma",
    "records_per_speaker",
    "seed",
    "languages",
}


def parse_synth_config(obj, seed_override=None):
    _check_keys(obj, _SYNTH_KEYS, "synth config")
    dims = obj.get("dims", "small")
    if dims == "small":
        dims = dict(synthgen.SMALL_DIMS)
    elif dims == "full":
        dims = dict(embedstore.FULL_DIMS)
    elif isinstance(dims, dict):
        _check_keys(dims, {k.tag for k in ModalityKind}, "synth dims")
        dims = {ModalityKind.from_tag(t): int(d) for t, d in dims.items()}
    else:
        raise ConfigError(f"dims must be 'small', 'full', or a mapping")
    cfg = synthgen.SynthConfig(
        n_speakers=int(obj.get("n_speakers", 30)),
        latent_dim=int(obj.get("latent_dim", 16)),
        dims=dims,
        noise_sigma=float(obj.get("noise_sigma", 0.01)),
        records_per_speaker=int(obj.get("records_per_speaker", 10)),
        seed=int(obj.get("seed", 0)),
        languages={
            str(k): float(v) for k, v in obj.get("languages", {"en": 1.0}).items()
        },
    )
    if seed_override is not None:
        cfg.seed = seed_override
    cfg.validate()
    return cfg


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
    manifest, records = read_store(path)
    voices, v_skipped = embedstore.assemble_voice_inputs(records)
    faces, f_skipped = embedstore.assemble_face_inputs(records)
    ds = PairedDataset(faces, voices)
    return manifest, ds, {"skipped_voice": v_skipped, "skipped_face": f_skipped}


def _strip_arrays(obj):
    """Drop in-memory weight snapshots before JSON serialization."""
    if isinstance(obj, dict):
        return {k: _strip_arrays(v) for k, v in obj.items() if k != "arrays"}
    if isinstance(obj, list):
        return [_strip_arrays(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args):
    raw = load_config(args.config, {"synth", "dataset_name"})
    cfg = parse_synth_config(raw.get("synth", {}), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest, records, _ = synthgen.write_dataset(
        cfg, out, dataset_name=raw.get("dataset_name", "synthetic")
    )
    dims = "/".join(str(cfg.dims[k]) for k in ModalityKind)
    print(
        f"synth: {cfg.n_speakers} speakers, {len(records)} records, dims {dims}"
    )
    return EXIT_OK


def _resolved_train_echo(cfg):
    d = asdict(cfg)
    return d


def cmd_train(args):
    raw = load_config(args.config, {"data", "train", "dev_fraction"}, ["data"])
    cfg = parse_train_config(raw.get("train", {}), args.seed)
    _, ds, skipped = load_dataset(raw["data"])
    best, log, dev_spk = traineval.pretrain(
        ds, cfg, dev_fraction=float(raw.get("dev_fraction", 0.05))
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out / "checkpoint.fvh",
        best["arrays"],
        {
            "architecture": "mapping-heads",
            "face_in_dim": ds.face_dim,
            "voice_in_dim": ds.voice_dim,
            "out_dim": cfg.out_dim,
        },
    )
    report = make_report(
        {"train": _resolved_train_echo(cfg), "data": raw["data"]},
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
    return EXIT_OK


def cmd_crossval(args):
    raw = load_config(args.config, {"data", "train", "n_folds"}, ["data"])
    cfg = parse_train_config(raw.get("train", {}), args.seed)
    n_folds = int(raw.get("n_folds", 7))
    _, ds, _ = load_dataset(raw["data"])
    cv = traineval.cross_validate(ds, cfg, n_folds=n_folds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for entry in cv["folds"]:
        save_checkpoint(
            out / f"fold{entry['fold']}.fvh",
            entry["arrays"],
            {
                "architecture": "mapping-heads",
                "fold": entry["fold"],
                "face_in_dim": ds.face_dim,
                "voice_in_dim": ds.voice_dim,
                "out_dim": cfg.out_dim,
            },
        )
    report = make_report(
        {"train": _resolved_train_echo(cfg), "data": raw["data"], "n_folds": n_folds},
        _strip_arrays(cv),
    )
    atomic_write_json(out / "report.json", report)
    print(
        f"crossval: mean EER {cv['mean_eer']:.4f} +- {cv['std_eer']:.4f} "
        f"over {n_folds} folds"
    )
    return EXIT_OK


def cmd_pretrain_finetune(args):
    raw = load_config(
        args.config,
        {"pretrain_data", "finetune_data", "pretrain", "finetune", "n_folds",
         "dev_fraction"},
        ["pretrain_data", "finetune_data"],
    )
    cfg_pre = parse_train_config(raw.get("pretrain", {}), args.seed)
    cfg_ft = parse_train_config(raw.get("finetune", {}), args.seed)
    _, pre_ds, _ = load_dataset(raw["pretrain_data"])
    _, ft_ds, _ = load_dataset(raw["finetune_data"])
    result = traineval.pretrain_then_finetune(
        pre_ds,
        ft_ds,
        cfg_pre,
        cfg_ft,
        n_folds=int(raw.get("n_folds", 7)),
        dev_fraction=float(raw.get("dev_fraction", 0.05)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out / "pretrained.fvh",
        result["pretrain"]["arrays"],
        {
            "architecture": "mapping-heads",
            "stage": "pretrain",
            "face_in_dim": pre_ds.face_dim,
            "voice_in_dim": pre_ds.voice_dim,
            "out_dim": cfg_pre.out_dim,
        },
    )
    for entry in result["finetune"]["folds"]:
        save_checkpoint(
            out / f"finetuned_fold{entry['fold']}.fvh",
            entry["arrays"],
            {
                "architecture": "mapping-heads",
                "stage": "finetune",
                "fold": entry["fold"],
                "face_in_dim": ft_ds.face_dim,
                "voice_in_dim": ft_ds.voice_dim,
                "out_dim": cfg_ft.out_dim,
            },
        )
    report = make_report(
        {
            "pretrain": _resolved_train_echo(cfg_pre),
            "finetune": _resolved_train_echo(cfg_ft),
            "pretrain_data": raw["pretrain_data"],
            "finetune_data": raw["finetune_data"],
        },
        _strip_arrays(result),
    )
    atomic_write_json(out / "report.json", report)
    print(
        f"pretrain dev EER {result['pretrain']['dev_eer']:.4f}; "
        f"fine-tuned mean EER {result['finetune']['mean_eer']:.4f} "
        f"(frozen baseline {result['frozen_mean_eer']:.4f})"
    )
    return EXIT_OK


def cmd_scenarios(args):
    raw = load_config(
        args.config,
        {"test_data", "scenarios", "train", "n_trials_target",
         "n_trials_nontarget", "dev_fraction"},
        ["test_data", "scenarios"],
    )
    cfg = parse_train_config(raw.get("train", {}), args.seed)
    _check_keys(raw["scenarios"], set(traineval.SCENARIOS), "scenarios")
    missing = sorted(set(traineval.SCENARIOS) - set(raw["scenarios"]))
    if missing:
        raise ConfigError(f"missing scenario entries: {', '.join(missing)}")
    corpora = {}
    for name, entry in raw["scenarios"].items():
        _check_keys(entry, {"pretrain", "finetune"}, f"scenario {name}")
        pre_manifest, pre_ds, _ = load_dataset(entry["pretrain"])
        ft = None
        if "finetune" in entry:
            ft_manifest, ft_ds, _ = load_dataset(entry["finetune"])
            ft = (ft_manifest, ft_ds)
        corpora[name] = {"pretrain": (pre_manifest, pre_ds), "finetune": ft}
    _, test_ds, _ = load_dataset(raw["test_data"])
    table = traineval.run_scenarios(
        corpora,
        test_ds,
        cfg,
        n_trials_target=int(raw.get("n_trials_target", 200)),
        n_trials_nontarget=int(raw.get("n_trials_nontarget", 200)),
        dev_fraction=float(raw.get("dev_fraction", 0.1)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = make_report({"train": _resolved_train_echo(cfg)}, table)
    atomic_write_json(out / "report.json", report)
    for name, row in table["scenarios"].items():
        print(f"{name}: EER {row['eer']:.4f}")
    print(f"overall mean EER {table['overall_mean_eer']:.4f}")
    return EXIT_OK


TRIALS_HEADER = "face_record_id\tvoice_record_id\tlabel"


def read_trials_file(path):
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != TRIALS_HEADER:
        raise FormatError(f"{path}: bad trials header")
    trials = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3 or parts[2] not in ("same", "different"):
            raise FormatError(f"{path}: bad trial row {ln!r}")
        trials.append(Trial(parts[0], parts[1], parts[2] == "same"))
    return trials


def write_trials_file(path, trials):
    lines = [TRIALS_HEADER]
    for t in trials:
        lines.append(
            f"{t.face_id}\t{t.voice_id}\t{'same' if t.label else 'different'}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_score_file(path, trials, scores):
    lines = ["face_record_id\tvoice_record_id\tlabel\tscore"]
    for t, s in zip(trials, scores):
        label = "same" if t.label else "different"
        lines.append(f"{t.face_id}\t{t.voice_id}\t{label}\t{s:.9g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_eval(args):
    raw = load_config(
        args.config, {"checkpoint", "data", "trials"},
        ["checkpoint", "data", "trials"],
    )
    arrays, meta = load_checkpoint(raw["checkpoint"])
    if meta.get("architecture") != "mapping-heads":
        raise SchemaError(
            f"eval scores mapping-heads checkpoints, got architecture "
            f"{meta.get('architecture')!r}"
        )
    _, ds, _ = load_dataset(raw["data"])
    if meta.get("face_in_dim") != ds.face_dim or meta.get("voice_in_dim") != ds.voice_dim:
        raise SchemaError(
            f"checkpoint dims ({meta.get('face_in_dim')}, "
            f"{meta.get('voice_in_dim')}) do not match stores "
            f"({ds.face_dim}, {ds.voice_dim})"
        )
    trials = read_trials_file(raw["trials"])
    if not trials:
        raise MetricError("empty trial file")
    head_f = head_from_arrays(arrays, "head_face", p_drop=0.0)
    head_v = head_from_arrays(arrays, "head_voice", p_drop=0.0)
    scores = score_trials(head_f, head_v, trials, ds)
    report = compute_eer(scores, [t.label for t in trials])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_score_file(out / "scores.tsv", trials, scores)
    payload = make_report(
        {"checkpoint": raw["checkpoint"], "data": raw["data"], "trials": raw["trials"]},
        {"eval": report.to_dict(), "score_file": "scores.tsv"},
    )
    atomic_write_json(out / "report.json", payload)
    print(f"eval: EER {report.eer:.4f} over {len(trials)} trials")
    return EXIT_OK


_XATTN_KEYS = {
    "d_model",
    "lr",
    "batch_size",
    "max_steps",
    "patience",
    "eval_every",
    "seed",
    "p_drop",
    "residual",
}


def cmd_xattn(args):
    raw = load_config(args.config, {"data", "train", "dev_fraction"}, ["data"])
    obj = raw.get("train", {})
    _check_keys(obj, _XATTN_KEYS, "xattn train config")
    cfg = XAttnTrainConfig(
        d_model=_get(obj, "d_model", 16, int),
        lr=_get(obj, "lr", 1e-3, float),
        batch_size=_get(obj, "batch_size", 32, int),
        max_steps=_get(obj, "max_steps", 500, int),
        patience=_get(obj, "patience", 5, int),
        eval_every=_get(obj, "eval_every", 25, int),
        seed=_get(obj, "seed", 0, int),
        p_drop=_get(obj, "p_drop", 0.0, float),
        residual=_get(obj, "residual", True, bool),
    )
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    _, ds, _ = load_dataset(raw["data"])
    split_rng = make_rng(cfg.seed + 0xD5)
    train_spk, dev_spk = traineval._dev_speaker_split(
        ds.speakers(), float(raw.get("dev_fraction", 0.1)), split_rng
    )
    tc = TrainConfig(seed=cfg.seed)
    trials = traineval.default_dev_trials(ds, dev_spk, tc, make_rng(cfg.seed + 0xDE))
    model, best, log = traineval.train_xattn(ds.subset(train_spk), trials, ds, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out / "checkpoint.fvh",
        best["arrays"],
        {
            "architecture": "cross-attention",
            "d_model": cfg.d_model,
            "face_in_dim": ds.face_dim,
            "voice_in_dim": ds.voice_dim,
            "residual": cfg.residual,
        },
    )
    write_trials_file(out / "dev_trials.tsv", trials)
    report = make_report(
        {"train": asdict(cfg), "data": raw["data"]},
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
    return EXIT_OK


CONFIG_KEY_HELP = """\
config keys by command:
  synth              synth.{n_speakers,latent_dim,dims,noise_sigma,
                     records_per_speaker,seed,languages}, dataset_name
  train              data, dev_fraction, train.{lr,batch_size,max_steps,
                     patience,eval_every,seed,p_drop,out_dim,scale,margin,
                     classifier_reinit,n_dev_target,n_dev_nontarget}
  crossval           data, n_folds, train.{...as train}
  pretrain-finetune  pretrain_data, finetune_data, n_folds, dev_fraction,
                     pretrain.{...}, finetune.{...}
  scenarios          test_data, n_trials_target, n_trials_nontarget,
                     dev_fraction, train.{...},
                     scenarios.<name>.{pretrain,finetune} for
                     english_heard, german_heard, english_unheard,
                     german_unheard
  eval               checkpoint, data, trials
  xattn              data, dev_fraction, train.{d_model,lr,batch_size,
                     max_steps,patience,eval_every,seed,p_drop,residual}
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fvassoc",
        description="Face-voice association training and evaluation toolkit.",
        epilog=CONFIG_KEY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": cmd_synth,
        "train": cmd_train,
        "crossval": cmd_crossval,
        "pretrain-finetune": cmd_pretrain_finetune,
        "scenarios": cmd_scenarios,
        "eval": cmd_eval,
        "xattn": cmd_xattn,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--seed", type=int, default=None, help="seed override (u64)"
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # mapped to the stable exit-status contract
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
