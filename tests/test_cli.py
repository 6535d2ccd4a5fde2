import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fvassoc
from fvassoc.cli import CONFIG_SCHEMA, build_parser, main
from fvassoc.fusion import load_checkpoint, save_checkpoint


def write_config(path, payload):
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def synth_config(tmp_path, name="synth.json", n_speakers=8, seed=1,
                 languages=None, records=4):
    return write_config(
        tmp_path / name,
        {
            "synth": {
                "n_speakers": n_speakers,
                "latent_dim": 8,
                "dims": "small",
                "noise_sigma": 0.01,
                "records_per_speaker": records,
                "seed": seed,
                "languages": languages or {"en": 1.0},
            }
        },
    )


def quick_train_block(**kw):
    block = {
        "lr": 0.01,
        "batch_size": 16,
        "max_steps": 60,
        "patience": 3,
        "eval_every": 20,
        "seed": 5,
        "p_drop": 0.5,
        "n_dev_target": 100,
        "n_dev_nontarget": 100,
    }
    block.update(kw)
    return block


def make_data(tmp_path, sub="data", **kw):
    cfg = synth_config(tmp_path, name=f"{sub}.json", **kw)
    out = tmp_path / sub
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


def load_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def reports_equal_modulo_timestamp(a, b):
    a, b = dict(a), dict(b)
    a.pop("timestamp")
    b.pop("timestamp")
    return a == b


class TestSynth:
    def test_outputs_exist(self, tmp_path):
        data = make_data(tmp_path)
        for name in ("manifest.tsv", "vspk.fve", "vag.fve", "fid.fve",
                     "fag.fve", "ground_truth.fve"):
            assert (Path(data) / name).exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = synth_config(tmp_path)
        main(["synth", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["synth", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("manifest.tsv", "vspk.fve", "ground_truth.fve"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"synth": {}, "bogus": 1})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = synth_config(tmp_path)
        main(["synth", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "9"])
        main(["synth", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "vspk.fve").read_bytes() != (
            tmp_path / "b" / "vspk.fve"
        ).read_bytes()


class TestTrain:
    def test_train_writes_checkpoint_and_report(self, tmp_path):
        data = make_data(tmp_path)
        cfg = write_config(
            tmp_path / "train.json",
            {"data": data, "dev_fraction": 0.25, "train": quick_train_block()},
        )
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        arrays, meta = load_checkpoint(out / "checkpoint.fvh")
        assert meta["architecture"] == "mapping-heads"
        assert "head_face.weight" in arrays and "clf.weight" in arrays
        report = load_report(out)
        assert "dev_eer" in report and "timestamp" in report

    def test_default_dropout_zeroing_a_whole_row_still_trains(self, tmp_path):
        # at seed 4 the default p_drop 0.9 drops every input of one face row
        # on step 1, while the head bias is still zero
        data = tmp_path / "data"
        synth = write_config(tmp_path / "s.json", {})
        assert main(["synth", "--config", synth, "--out", str(data)]) == 0
        cfg = write_config(
            tmp_path / "t.json",
            {"data": str(data), "dev_fraction": 0.2, "train": {"max_steps": 3}},
        )
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run),
                     "--seed", "4"]) == 0
        assert (run / "checkpoint.fvh").exists()

    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        data = make_data(tmp_path)
        cfg = write_config(
            tmp_path / "train.json",
            {"data": data, "dev_fraction": 0.25, "train": quick_train_block()},
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "checkpoint.fvh").read_bytes() == (
            out_b / "checkpoint.fvh"
        ).read_bytes()
        assert reports_equal_modulo_timestamp(load_report(out_a), load_report(out_b))


_BAD_LR = [-0.01, "abc", float("nan"), float("inf")]


def _bad_lr_config(tmp_path, data, lr, command):
    train = quick_train_block(lr=lr) if command == "train" else {
        "d_model": 8, "lr": lr, "max_steps": 2, "eval_every": 1}
    return write_config(
        tmp_path / "bad_lr.json",
        {"data": data, "dev_fraction": 0.25, "train": train},
    )


@pytest.mark.parametrize("lr", _BAD_LR)
@pytest.mark.parametrize("command", ["train", "xattn"])
def test_bad_lr_exits_2(tmp_path, capsys, command, lr):
    data = make_data(tmp_path)
    cfg = _bad_lr_config(tmp_path, data, lr, command)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "lr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "xattn"])
def test_zero_lr_still_trains(tmp_path, command):
    data = make_data(tmp_path)
    cfg = _bad_lr_config(tmp_path, data, 0.0, command)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("key", ["batch_size", "seed", "scale"])
def test_non_numeric_train_value_exits_2(tmp_path, key):
    data = make_data(tmp_path)
    cfg = write_config(
        tmp_path / "t.json",
        {"data": data, "train": quick_train_block(**{key: "x"})},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestCrossval:
    def test_report_structure(self, tmp_path):
        data = make_data(tmp_path, n_speakers=14)
        cfg = write_config(
            tmp_path / "cv.json",
            {
                "data": data,
                "n_folds": 7,
                "train": quick_train_block(max_steps=30, eval_every=15),
            },
        )
        out = tmp_path / "cv"
        assert main(["crossval", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        assert len(report["folds"]) == 7
        assert "mean_eer" in report and "std_eer" in report
        for f in range(7):
            assert (out / f"fold{f}.fvh").exists()


class TestPretrainFinetune:
    def test_report_contains_both_stages(self, tmp_path):
        pre = make_data(tmp_path, sub="pre", n_speakers=10)
        ft = make_data(tmp_path, sub="ft", n_speakers=8, seed=2)
        cfg = write_config(
            tmp_path / "pf.json",
            {
                "pretrain_data": pre,
                "finetune_data": ft,
                "n_folds": 2,
                "dev_fraction": 0.2,
                "pretrain": quick_train_block(max_steps=40, eval_every=20),
                "finetune": quick_train_block(max_steps=20, eval_every=10),
            },
        )
        out = tmp_path / "pf"
        assert main(["pretrain-finetune", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        assert "pretrain" in report and "finetune" in report
        assert "frozen_mean_eer" in report
        assert (out / "pretrained.fvh").exists()
        assert (out / "finetuned_fold0.fvh").exists()


class TestEval:
    def test_scores_and_report(self, tmp_path):
        data = make_data(tmp_path, n_speakers=8)
        train_cfg = write_config(
            tmp_path / "train.json",
            {"data": data, "dev_fraction": 0.25, "train": quick_train_block()},
        )
        run = tmp_path / "run"
        assert main(["train", "--config", train_cfg, "--out", str(run)]) == 0
        # build a trial file over two speakers
        trials = tmp_path / "trials.tsv"
        trials.write_text(
            "face_record_id\tvoice_record_id\tlabel\n"
            "s000:f000\ts000:v001\tsame\n"
            "s000:f001\ts001:v000\tdifferent\n"
            "s001:f000\ts001:v001\tsame\n"
            "s001:f001\ts000:v000\tdifferent\n"
        )
        eval_cfg = write_config(
            tmp_path / "eval.json",
            {
                "checkpoint": str(run / "checkpoint.fvh"),
                "data": data,
                "trials": str(trials),
            },
        )
        out = tmp_path / "eval"
        assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
        lines = (out / "scores.tsv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 trials
        report = load_report(out)
        assert 0.0 <= report["eval"]["eer"] <= 1.0

    def test_empty_trials_exit_4(self, tmp_path):
        data = make_data(tmp_path)
        train_cfg = write_config(
            tmp_path / "t.json",
            {"data": data, "dev_fraction": 0.25,
             "train": quick_train_block(max_steps=20)},
        )
        run = tmp_path / "run"
        main(["train", "--config", train_cfg, "--out", str(run)])
        trials = tmp_path / "empty.tsv"
        trials.write_text("face_record_id\tvoice_record_id\tlabel\n")
        cfg = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(run / "checkpoint.fvh"), "data": data,
             "trials": str(trials)},
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_unknown_record_exit_4(self, tmp_path):
        data = make_data(tmp_path)
        train_cfg = write_config(
            tmp_path / "t.json",
            {"data": data, "dev_fraction": 0.25,
             "train": quick_train_block(max_steps=20)},
        )
        run = tmp_path / "run"
        main(["train", "--config", train_cfg, "--out", str(run)])
        trials = tmp_path / "trials.tsv"
        trials.write_text(
            "face_record_id\tvoice_record_id\tlabel\n"
            "ghost:f000\ts000:v000\tsame\n"
        )
        cfg = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(run / "checkpoint.fvh"), "data": data,
             "trials": str(trials)},
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


    def test_voice_id_in_face_column_exit_4(self, tmp_path, capsys):
        data = make_data(tmp_path)
        train_cfg = write_config(
            tmp_path / "t.json",
            {"data": data, "dev_fraction": 0.25,
             "train": quick_train_block(max_steps=20)},
        )
        run = tmp_path / "run"
        assert main(["train", "--config", train_cfg, "--out", str(run)]) == 0
        trials = tmp_path / "trials.tsv"
        trials.write_text(
            "face_record_id\tvoice_record_id\tlabel\n"
            "s000:f000\ts000:v000\tsame\n"
            "s001:v000\ts000:v001\tdifferent\n"
        )
        cfg = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(run / "checkpoint.fvh"), "data": data,
             "trials": str(trials)},
        )
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "face s001:v000" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_4(self, tmp_path):
        data = make_data(tmp_path)
        train_cfg = write_config(
            tmp_path / "t.json",
            {"data": data, "dev_fraction": 0.25,
             "train": quick_train_block(max_steps=2)},
        )
        run = tmp_path / "run"
        assert main(["train", "--config", train_cfg, "--out", str(run)]) == 0
        blob = (run / "checkpoint.fvh").read_bytes()
        meta_len = int.from_bytes(blob[8:12], "little")
        trials = tmp_path / "trials.tsv"
        trials.write_text(
            "face_record_id\tvoice_record_id\tlabel\n"
            "s000:f000\ts000:v001\tsame\n"
            "s000:f001\ts001:v000\tdifferent\n"
        )
        for cut in (6, 12, 12 + meta_len // 2, 12 + meta_len, len(blob) - 1):
            ckpt = tmp_path / "cut.fvh"
            ckpt.write_bytes(blob[:cut])
            cfg = write_config(
                tmp_path / "e.json",
                {"checkpoint": str(ckpt), "data": data, "trials": str(trials)},
            )
            code = main(["eval", "--config", cfg, "--out", str(tmp_path / "o")])
            assert code == 4, cut

    def test_cross_attention_checkpoint_exit_4(self, tmp_path, capsys):
        data = make_data(tmp_path)
        xattn_cfg = write_config(
            tmp_path / "x.json",
            {"data": data, "dev_fraction": 0.25,
             "train": {"d_model": 8, "max_steps": 2, "eval_every": 1}},
        )
        run = tmp_path / "run"
        assert main(["xattn", "--config", xattn_cfg, "--out", str(run)]) == 0
        cfg = write_config(
            tmp_path / "e.json",
            {"checkpoint": str(run / "checkpoint.fvh"), "data": data,
             "trials": str(run / "dev_trials.tsv")},
        )
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "'cross-attention'" in capsys.readouterr().err

def scenario_dirs(tmp_path):
    langs = {"en": 0.4, "de": 0.4, "fr": 0.2}
    full = make_data(tmp_path, sub="full", n_speakers=14, languages=langs)
    test = make_data(tmp_path, sub="test", n_speakers=12, seed=3,
                     languages={"en": 0.5, "de": 0.5})
    ft = make_data(tmp_path, sub="ft", n_speakers=10, seed=4, languages=langs)

    # prepare language-excluded variants the way the protocol requires
    from fvassoc.embedstore import (
        filter_records_exclude_language,
        read_store,
        write_store,
    )

    def variant(src, excluded, dst):
        _, records = read_store(src)
        kept = filter_records_exclude_language(records, excluded)
        write_store(kept, tmp_path / dst, dataset_name=dst)
        return str(tmp_path / dst)

    return {
        "full": full,
        "test": test,
        "no_en": variant(full, "en", "full_no_en"),
        "no_de": variant(full, "de", "full_no_de"),
        "ft_no_en": variant(ft, "en", "ft_no_en"),
        "ft_no_de": variant(ft, "de", "ft_no_de"),
    }


def scenarios_config(tmp_path, dirs):
    return write_config(
        tmp_path / "scen.json",
        {
            "test_data": dirs["test"],
            "n_trials_target": 50,
            "n_trials_nontarget": 50,
            "dev_fraction": 0.2,
            "train": quick_train_block(max_steps=40, eval_every=20),
            "scenarios": {
                "english_heard": {"pretrain": dirs["full"]},
                "german_heard": {"pretrain": dirs["no_en"]},
                "english_unheard": {
                    "pretrain": dirs["no_en"],
                    "finetune": dirs["ft_no_en"],
                },
                "german_unheard": {
                    "pretrain": dirs["no_de"],
                    "finetune": dirs["ft_no_de"],
                },
            },
        },
    )


class TestScenarios:
    def test_table_structure(self, tmp_path):
        dirs = scenario_dirs(tmp_path)
        cfg = scenarios_config(tmp_path, dirs)
        out = tmp_path / "scen"
        assert main(["scenarios", "--config", cfg, "--out", str(out)]) == 0
        report = load_report(out)
        assert len(report["scenarios"]) == 4
        assert "overall_mean_eer" in report
        assert report["reference_eer_percent"]["overall"] == 23.99

    def test_injected_leakage_exits_3(self, tmp_path):
        dirs = scenario_dirs(tmp_path)
        # inject one excluded-language record into the english-unheard corpus
        from fvassoc.embedstore import read_store, write_store, EmbeddingRecord
        from fvassoc.embedstore import ModalityKind

        manifest, records = read_store(dirs["no_en"])
        dim = next(
            len(r.vector)
            for r in records
            if r.modality == ModalityKind.VOICE_SPEAKER
        )
        leak_owner = "leak:v000"
        for kind, d in (
            (ModalityKind.VOICE_SPEAKER, dim),
            (ModalityKind.VOICE_AGE_GENDER, None),
        ):
            d = d or next(
                len(r.vector) for r in records if r.modality == kind
            )
            records.append(
                EmbeddingRecord(
                    f"{leak_owner}#{kind.tag}", "leak", "en", kind,
                    np.zeros(d, dtype=np.float32) + 1.0,
                )
            )
        write_store(records, dirs["no_en"], dataset_name="full_no_en")
        cfg = scenarios_config(tmp_path, dirs)
        assert main(["scenarios", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestXAttn:
    def test_report_tagged_and_deterministic(self, tmp_path):
        data = make_data(tmp_path, n_speakers=8)
        cfg = write_config(
            tmp_path / "x.json",
            {
                "data": data,
                "dev_fraction": 0.25,
                "train": {
                    "d_model": 8,
                    "lr": 0.001,
                    "batch_size": 16,
                    "max_steps": 40,
                    "patience": 3,
                    "eval_every": 20,
                    "seed": 5,
                },
            },
        )
        out_a, out_b = tmp_path / "xa", tmp_path / "xb"
        assert main(["xattn", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["xattn", "--config", cfg, "--out", str(out_b)]) == 0
        report = load_report(out_a)
        assert report["architecture"] == "cross-attention"
        assert (out_a / "checkpoint.fvh").read_bytes() == (
            out_b / "checkpoint.fvh"
        ).read_bytes()
        assert reports_equal_modulo_timestamp(load_report(out_a), load_report(out_b))

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        data = make_data(tmp_path, n_speakers=12, records=6)
        cfg = write_config(tmp_path / "x.json", {
            "data": data, "dev_fraction": 0.5,
            "train": {"d_model": 4, "lr": 0.01, "batch_size": 32,
                      "max_steps": 60, "eval_every": 10, "seed": 3,
                      "p_drop": 0.3},
        })
        src = str(Path(fvassoc.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("0", "7"):
            out = tmp_path / f"x{hash_seed}"
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            subprocess.run(
                [sys.executable, "-m", "fvassoc.cli", "xattn", "--config", cfg,
                 "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            outs.append(out)
        a, b = outs
        assert load_report(a)["best_step"] > 0  # the checkpoint is trained
        assert (a / "checkpoint.fvh").read_bytes() == (
            b / "checkpoint.fvh"
        ).read_bytes()
        assert reports_equal_modulo_timestamp(load_report(a), load_report(b))


# ---------------------------------------------------------------------------
# Config schema: strict JSON types, ranges, decode errors and --help


SCHEMA_TRAIN = {
    "lr": 0.01, "batch_size": 16, "max_steps": 2, "patience": 3,
    "eval_every": 1, "seed": 5, "scale": 30.0, "margin": 0.2, "p_drop": 0.5,
    "out_dim": 16, "classifier_reinit": True, "n_dev_target": 20,
    "n_dev_nontarget": 20,
}
SCHEMA_BLOCKS = {"synth", "train", "pretrain", "finetune"}


@pytest.fixture(scope="module")
def schema_corpus(tmp_path_factory):
    """A corpus with en/de/fr speakers, its no-en and no-de variants, a
    checkpoint and a trial file: every command's base config runs on them."""
    from fvassoc.embedstore import (
        filter_records_exclude_language,
        read_store,
        write_store,
    )

    tmp = tmp_path_factory.mktemp("schema")
    data = make_data(tmp, n_speakers=14,
                     languages={"en": 0.4, "de": 0.4, "fr": 0.2})
    _, records = read_store(data)
    for lang in ("en", "de"):
        kept = filter_records_exclude_language(records, lang)
        write_store(kept, tmp / f"no_{lang}", dataset_name=f"no_{lang}")
    train_cfg = write_config(
        tmp / "ckpt.json",
        {"data": data, "dev_fraction": 0.25, "train": SCHEMA_TRAIN},
    )
    assert main(["train", "--config", train_cfg, "--out", str(tmp / "ckpt")]) == 0
    trials = tmp / "trials.tsv"
    trials.write_text(
        "face_record_id\tvoice_record_id\tlabel\n"
        "s000:f000\ts000:v001\tsame\n"
        "s000:f001\ts001:v000\tdifferent\n"
    )
    return tmp, data, str(tmp / "ckpt" / "checkpoint.fvh"), str(trials)


def schema_base_configs(corpus):
    """Each command's config with every key of its schema set to a valid
    value, on the `schema_corpus` inputs."""
    tmp, data, ckpt, trials = corpus
    return {
        "synth": {
            "synth": {"n_speakers": 4, "latent_dim": 4, "dims": "small",
                      "noise_sigma": 0.01, "records_per_speaker": 2,
                      "seed": 1, "languages": {"en": 1.0}},
            "dataset_name": "schema",
        },
        "train": {"data": data, "dev_fraction": 0.25, "train": SCHEMA_TRAIN},
        "crossval": {"data": data, "n_folds": 2, "train": SCHEMA_TRAIN},
        "pretrain-finetune": {
            "pretrain_data": data, "finetune_data": data, "n_folds": 2,
            "dev_fraction": 0.25, "pretrain": SCHEMA_TRAIN,
            "finetune": SCHEMA_TRAIN,
        },
        "scenarios": {
            "test_data": data, "n_trials_target": 10,
            "n_trials_nontarget": 10, "dev_fraction": 0.25,
            "train": SCHEMA_TRAIN,
            "scenarios": {
                "english_heard": {"pretrain": data},
                "german_heard": {"pretrain": data},
                "english_unheard": {"pretrain": str(tmp / "no_en"),
                                    "finetune": str(tmp / "no_en")},
                "german_unheard": {"pretrain": str(tmp / "no_de"),
                                   "finetune": str(tmp / "no_de")},
            },
        },
        "eval": {"checkpoint": ckpt, "data": data, "trials": trials},
        "xattn": {
            "data": data, "dev_fraction": 0.25,
            "train": {"d_model": 8, "lr": 0.01, "batch_size": 16,
                      "max_steps": 2, "patience": 3, "eval_every": 1,
                      "seed": 5, "p_drop": 0.0, "residual": True},
        },
    }


def schema_leaves(config):
    """Key paths of `config`: each top-level key, and each key of a block."""
    for key, value in config.items():
        yield (key,)
        if key in SCHEMA_BLOCKS:
            for inner in value:
                yield (key, inner)


def with_value(config, path, value):
    config = json.loads(json.dumps(config))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def run_config(tmp_path, command, config, *extra):
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "probe_out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    created = out.exists()
    if created:
        shutil.rmtree(out)
    return code, created


# the shape of the base configs, for drawing keys before the corpus exists
_SHAPES = schema_base_configs((Path("."), "data", "ckpt", "trials"))
_LEAVES = [
    (command, path)
    for command, config in _SHAPES.items()
    for path in schema_leaves(config)
]

_ANY_LIST = st.lists(st.integers(), max_size=2)
_ANY_DICT = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_WRONG_TYPE = {
    bool: st.one_of(st.text(max_size=5), st.integers(), st.floats(),
                    st.none(), _ANY_LIST, _ANY_DICT),
    int: st.one_of(st.text(max_size=3), st.floats(), st.booleans(),
                   st.none(), _ANY_LIST, _ANY_DICT),
    float: st.one_of(st.text(max_size=3), _NON_FINITE, st.booleans(),
                     st.none(), _ANY_LIST, _ANY_DICT),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                   _ANY_LIST, _ANY_DICT),
    dict: st.one_of(st.text(max_size=3), st.integers(), st.floats(),
                    st.booleans(), st.none(), _ANY_LIST),
}
_SMALL = {"vspk": 64, "vag": 16, "fid": 48, "fag": 8}
_OUT_OF_RANGE = {
    "lr": [-0.01, -1], "batch_size": [0, -4], "max_steps": [-1, -3],
    "patience": [0], "eval_every": [0], "seed": [-1], "scale": [0.0, -1.0],
    "margin": [-0.1, 1.6], "p_drop": [-0.1, 1.0, 1.5], "out_dim": [0],
    "n_dev_target": [0, -1], "n_dev_nontarget": [0, -1], "d_model": [0, -1],
    "n_speakers": [0], "latent_dim": [0], "noise_sigma": [-0.5],
    "records_per_speaker": [0], "n_folds": [0, 1, -2, 99],
    "dev_fraction": [-0.1, 1.0, 1.5], "n_trials_target": [0, -1],
    "n_trials_nontarget": [0],
    "dims": ["medium", dict(_SMALL, vspk=0), dict(_SMALL, vspk=2.5),
             dict(_SMALL, vspk="64"), {"vspk": 64}, dict(_SMALL, xx=1)],
    "languages": [{}, {"en": 0.5}, {"en": 1.5, "de": -0.5}, {"en": "1"},
                  {"en": None}],
    "scenarios": [{}, {"english_heard": {"pretrain": "x"}},
                  {"nope": {"pretrain": "x"}}],
}


def bad_values(command, path):
    """Strategy of JSON values that `path` of `command` must reject."""
    key = path[-1]
    base = _SHAPES[command]
    for part in path:
        base = base[part]
    if key == "dims":  # "small", "full" or a mapping
        wrong = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                          _ANY_LIST)
    else:
        wrong = _WRONG_TYPE[type(base)]
    if key in _OUT_OF_RANGE:
        return st.one_of(wrong, st.sampled_from(_OUT_OF_RANGE[key]))
    return wrong


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bad_config_value_exits_2(schema_corpus, tmp_path, data):
    command, path = data.draw(st.sampled_from(_LEAVES), label="key")
    bad = data.draw(bad_values(command, path), label="value")
    config = with_value(schema_base_configs(schema_corpus)[command], path, bad)
    code, created = run_config(tmp_path, command, config)
    assert code == 2
    assert not created


_FIXED_WRONG = {
    bool: [None, "false", 1], int: [None, 2.0, True, "7"],
    float: [None, float("nan"), float("-inf"), "0.1"], str: [None, 5, []],
    dict: [None, [], "x"],
}


def test_wrong_type_for_every_schema_key_exits_2(schema_corpus, tmp_path):
    """test_any_bad_config_value_exits_2 for fixed wrong-type values of
    every key of every command, so that no key is left to chance."""
    failures = []
    for command, path in _LEAVES:
        base = _SHAPES[command]
        for part in path:
            base = base[part]
        for bad in _FIXED_WRONG[type(base)]:
            config = with_value(schema_base_configs(schema_corpus)[command],
                                path, bad)
            result = run_config(tmp_path, command, config)
            if result != (2, False):
                failures.append((command, path, bad, result))
    assert not failures


@pytest.mark.parametrize("command", list(CONFIG_SCHEMA))
def test_schema_base_config_runs(schema_corpus, tmp_path, command):
    config = schema_base_configs(schema_corpus)[command]
    assert run_config(tmp_path, command, config) == (0, True)


_PROBES = [
    ("train", ("train", "seed"), -1),
    ("train", ("train", "out_dim"), 0),
    ("train", ("train", "n_dev_target"), -1),
    ("train", ("train", "max_steps"), -3),
    ("xattn", ("train", "d_model"), 0),
    ("xattn", ("train", "max_steps"), -1),
    ("synth", ("synth", "seed"), -1),
    ("scenarios", ("n_trials_target",), 0),
    ("scenarios", ("n_trials_nontarget",), 0),
    ("train", ("dev_fraction",), -0.1),
    ("xattn", ("dev_fraction",), -0.5),
    ("crossval", ("n_folds",), "x"),
    ("crossval", ("n_folds",), 1),
    ("pretrain-finetune", ("n_folds",), 1),
    ("train", ("dev_fraction",), "x"),
    ("pretrain-finetune", ("n_folds",), "x"),
    ("train", ("train", "classifier_reinit"), "false"),
    ("xattn", ("train", "residual"), "false"),
    ("train", ("train", "batch_size"), 2.7),
    ("scenarios", ("scenarios", "german_heard"), {"finetune": "x"}),
]


@pytest.mark.parametrize(
    "command,path,value", _PROBES,
    ids=[f"{c}:{'.'.join(p)}={v!r}" for c, p, v in _PROBES])
def test_out_of_range_or_mistyped_value_exits_2(schema_corpus, tmp_path,
                                                command, path, value):
    config = with_value(schema_base_configs(schema_corpus)[command], path, value)
    assert run_config(tmp_path, command, config) == (2, False)


@pytest.mark.parametrize("command", [
    "synth", "train", "crossval", "pretrain-finetune", "scenarios", "xattn",
])
def test_negative_seed_override_exits_2(schema_corpus, tmp_path, command):
    config = schema_base_configs(schema_corpus)[command]
    assert run_config(tmp_path, command, config, "--seed", "-1") == (2, False)


def _epilog_keys():
    """Command -> every config key the --help epilog lists for it, a block's
    keys as "block.key"."""
    text = build_parser().epilog
    head, blocks_text = text.split("config blocks:\n")

    def entries(section):
        out, label = {}, None
        for line in section.split("\n"):
            if line.startswith("  ") and line[2] != " ":
                label = line[2:21].strip()
                out[label] = []
            elif not line.startswith(" " * 21):
                label = None
                continue
            if label is not None:
                out[label] += [e for e in line[21:].split(", ") if e]
        return out

    blocks = entries(blocks_text)
    keys = {}
    for command, items in entries(head).items():
        keys[command] = set()
        for item in (e.rstrip(",") for e in items):
            key, _, value = item.partition("=")
            if value.startswith("{") and value[1:-1] in blocks:
                keys[command] |= {f"{key}.{e.rstrip(',').partition('=')[0]}"
                                  for e in blocks[value[1:-1]]}
            else:
                keys[command].add(key)
    return keys


def test_help_epilog_lists_exactly_the_accepted_keys(schema_corpus):
    configs = schema_base_configs(schema_corpus)
    expected = {
        command: {".".join(p) for p in schema_leaves(config)
                  if len(p) == 2 or p[0] not in SCHEMA_BLOCKS}
        for command, config in configs.items()
    }
    assert _epilog_keys() == expected


def test_synth_without_languages_writes_one_language(tmp_path):
    cfg = write_config(tmp_path / "s.json",
                       {"synth": {"n_speakers": 4, "records_per_speaker": 2}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    from fvassoc.embedstore import read_manifest

    assert read_manifest(tmp_path / "d" / "manifest.tsv").languages() == ["en"]


class TestDecodeErrors:
    def test_non_utf8_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"synth": {"seed": 1}, "dataset_name": "\xff"}')
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_too_deeply_nested_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_data_path_that_is_a_file_exits_4(self, schema_corpus, tmp_path):
        config = schema_base_configs(schema_corpus)["train"]
        config = with_value(config, ("data",), schema_corpus[3])
        assert run_config(tmp_path, "train", config) == (4, False)

    def test_non_utf8_trials_file_exits_4(self, schema_corpus, tmp_path):
        config = schema_base_configs(schema_corpus)["eval"]
        trials = tmp_path / "t.tsv"
        trials.write_bytes(
            b"face_record_id\tvoice_record_id\tlabel\ns000:f000\xff\ts000:v001\tsame\n"
        )
        config = with_value(config, ("trials",), str(trials))
        assert run_config(tmp_path, "eval", config) == (4, False)

    def _corrupt_copy(self, corpus, tmp_path, name, edit):
        data = tmp_path / "data"
        shutil.copytree(corpus[1], data)
        (data / name).write_bytes(edit((data / name).read_bytes()))
        config = {"data": str(data), "dev_fraction": 0.25, "train": SCHEMA_TRAIN}
        return run_config(tmp_path, "train", config)

    def test_non_utf8_record_id_in_store_exits_4(self, schema_corpus, tmp_path,
                                                 capsys):
        # 17-byte header, u16 id length, then the first record id
        code = self._corrupt_copy(
            schema_corpus, tmp_path, "fid.fve",
            lambda blob: blob[:19] + b"\xff" + blob[20:],
        )
        assert code == (4, False)
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_integer_manifest_dim_exits_4(self, schema_corpus, tmp_path):
        def edit(blob):
            lines = blob.split(b"\n")
            lines[1] = lines[1].rsplit(b"\t", 1)[0] + b"\t6x"
            return b"\n".join(lines)

        assert self._corrupt_copy(
            schema_corpus, tmp_path, "manifest.tsv", edit
        ) == (4, False)

    @pytest.mark.parametrize("bad", [b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f",
                                     b"\x00\x00\x80\xff"],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_store_value_exits_4(self, schema_corpus, tmp_path,
                                            capsys, bad):
        data = tmp_path / "data"
        shutil.copytree(schema_corpus[1], data)
        blob = (data / "fid.fve").read_bytes()
        # 17-byte header, u16 id length, the first record id, then its vector
        at = 19 + int.from_bytes(blob[17:19], "little")
        (data / "fid.fve").write_bytes(blob[:at] + bad + blob[at + 4:])
        config = with_value(schema_base_configs(schema_corpus)["eval"],
                            ("data",), str(data))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert "has a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("head_voice.bias"), "has no array head_voice.bias"),
        (lambda a: a.update({"head_face.bias": a["head_face.bias"][:, :-1]}),
         "do not form a head"),
        (lambda a: a.update({"head_voice.weight": a["head_voice.weight"][:8],
                             "head_voice.bias": a["head_voice.bias"][:, :8]}),
         "cannot score 16-dim face projections against 8-dim"),
    ], ids=["no_bias", "short_bias", "out_dims_differ"])
    def test_malformed_checkpoint_arrays_exit_4(self, schema_corpus, tmp_path,
                                                capsys, edit, message):
        arrays, meta = load_checkpoint(schema_corpus[2])
        edit(arrays)
        ckpt = tmp_path / "edited.fvh"
        save_checkpoint(ckpt, arrays, meta)
        config = with_value(schema_base_configs(schema_corpus)["eval"],
                            ("checkpoint",), str(ckpt))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert message in capsys.readouterr().err

    def test_unmapped_exception_exits_5_with_its_type_name(
            self, schema_corpus, tmp_path, monkeypatch, capsys):
        import fvassoc.cli

        def boom(path):
            raise KeyError("boom")

        monkeypatch.setattr(fvassoc.cli, "load_dataset", boom)
        config = schema_base_configs(schema_corpus)["train"]
        capsys.readouterr()
        assert run_config(tmp_path, "train", config) == (5, False)
        assert "error: KeyError: 'boom'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Corrupted input files: every outcome is exit 0 or a documented status,
# reached through an exception that `_EXIT_BY_ERROR` maps


STORE_FILES = ["vspk.fve", "vag.fve", "fid.fve", "fag.fve"]
NON_FINITE_F32 = [struct.pack("<f", v) for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture
def corrupt_inputs(schema_corpus, tmp_path, monkeypatch):
    """A private copy of the corpus, checkpoint and trial file, and
    `run(command, path, blob)`: run `command` on the copy with the file at
    `path` replaced by `blob`, put the file back, and return the exit status.

    An exception that no entry of `_EXIT_BY_ERROR` maps fails the test
    instead of taking `_exit_code`'s fallback to exit 5.
    """
    import fvassoc.cli

    exit_code, mapped = fvassoc.cli._exit_code, fvassoc.cli._EXIT_BY_ERROR

    def mapped_exit_code(exc):
        if not any(isinstance(exc, types) for types, _ in mapped):
            raise AssertionError(
                f"unmapped {type(exc).__name__}: {exc}") from exc
        return exit_code(exc)

    monkeypatch.setattr(fvassoc.cli, "_exit_code", mapped_exit_code)
    inputs = tmp_path / "inputs"
    shutil.copytree(schema_corpus[1], inputs / "data")
    shutil.copy(schema_corpus[2], inputs / "checkpoint.fvh")
    shutil.copy(schema_corpus[3], inputs / "trials.tsv")
    configs = schema_base_configs((
        schema_corpus[0], str(inputs / "data"),
        str(inputs / "checkpoint.fvh"), str(inputs / "trials.tsv"),
    ))

    def run(command, path, blob):
        path = inputs / path
        original = path.read_bytes()
        path.write_bytes(blob)
        try:
            return run_config(tmp_path, command, configs[command])[0]
        finally:
            path.write_bytes(original)

    run.inputs = inputs
    return run


def _edit(data, blob):
    """`blob` truncated, or with 1-4 of its bytes overwritten, as drawn."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="n_bytes")):
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        out[at] = data.draw(st.integers(0, 255), label="byte")
    return bytes(out)


def _store_value_offsets(blob):
    """Byte offset of every float32 of every vector in a .fve file."""
    dim, count = struct.unpack_from("<II", blob, 9)
    offsets, off = [], 17
    for _ in range(count):
        off += 2 + struct.unpack_from("<H", blob, off)[0]
        offsets.extend(range(off, off + 4 * dim, 4))
        off += 4 * dim
    return offsets


def _head_value_offsets(blob):
    """Byte offset of every float64 of the head arrays in a .fvh file."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    off = 12 + meta_len
    (n_arrays,) = struct.unpack_from("<I", blob, off)
    offsets, off = [], off + 4
    for _ in range(n_arrays):
        name_len, rows, cols = struct.unpack_from("<HII", blob, off)
        name = blob[off + 10 : off + 10 + name_len].decode("utf-8")
        off += 10 + name_len
        if name.startswith("head_"):
            offsets.extend(range(off, off + 8 * rows * cols, 8))
        off += 8 * rows * cols
    return offsets


FUZZ = settings(max_examples=100, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# corrupted values overflow in places; the exit status is what is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCorruptInputs:
    @FUZZ
    @given(data=st.data())
    def test_corrupt_store_or_manifest(self, corrupt_inputs, data):
        name = data.draw(st.sampled_from(STORE_FILES + ["manifest.tsv"]))
        command = data.draw(st.sampled_from(["train", "xattn", "eval"]))
        path = Path("data") / name
        blob = (corrupt_inputs.inputs / path).read_bytes()
        edited = _edit(data, blob)
        code = corrupt_inputs(command, path, edited)
        assert code in (0, 2, 3, 4, 5)
        if name.endswith(".fve") and len(edited) < len(blob):
            assert code == 4

    @FUZZ
    @given(data=st.data())
    def test_corrupt_checkpoint_or_trials(self, corrupt_inputs, data):
        path = data.draw(st.sampled_from(["checkpoint.fvh", "trials.tsv"]))
        blob = (corrupt_inputs.inputs / path).read_bytes()
        edited = _edit(data, blob)
        code = corrupt_inputs("eval", path, edited)
        assert code in (0, 2, 3, 4, 5)
        if path == "checkpoint.fvh" and len(edited) < len(blob):
            assert code == 4

    @FUZZ
    @given(data=st.data())
    def test_non_finite_store_value(self, corrupt_inputs, data):
        path = Path("data") / data.draw(st.sampled_from(STORE_FILES))
        command = data.draw(st.sampled_from(["train", "xattn", "eval"]))
        blob = bytearray((corrupt_inputs.inputs / path).read_bytes())
        offsets = st.sampled_from(_store_value_offsets(blob))
        for at in data.draw(st.lists(offsets, min_size=1, max_size=3)):
            blob[at : at + 4] = data.draw(st.sampled_from(NON_FINITE_F32))
        assert corrupt_inputs(command, path, bytes(blob)) == 4

    @FUZZ
    @given(data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_head_weight(self, corrupt_inputs, data, value):
        path = corrupt_inputs.inputs / "checkpoint.fvh"
        blob = bytearray(path.read_bytes())
        at = data.draw(st.sampled_from(_head_value_offsets(blob)))
        blob[at : at + 8] = struct.pack("<d", value)
        assert corrupt_inputs("eval", "checkpoint.fvh", bytes(blob)) == 4
