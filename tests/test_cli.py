import json
import os
import platform
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fvassoc
from fvassoc import traineval
from fvassoc.cli import CONFIG_SCHEMA, build_parser, load_config, main
from fvassoc.errors import ConfigError, DegenerateVectorError, FvError
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

    def test_one_speaker_fold_exits_2(self, tmp_path, capsys):
        # 4 folds of 6 speakers would hold out a single speaker twice
        data = make_data(tmp_path, n_speakers=6)
        cfg = write_config(tmp_path / "cv.json", {
            "data": data, "n_folds": 4, "train": quick_train_block()})
        capsys.readouterr()
        out = tmp_path / "cv"
        assert main(["crossval", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_folds 4" in err and "6 speakers" in err
        assert not out.exists()


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
    from fvassoc.embedstore import read_store, write_store
    from testlib import filter_exclude_language

    def variant(src, excluded, dst):
        vectors, records = read_store(src)
        write_store(vectors, filter_exclude_language(records, excluded),
                    tmp_path / dst)
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
        from fvassoc.embedstore import read_store, write_store
        from fvassoc.embedstore import ModalityKind
        from testlib import store_entries, store_pair

        vectors, records = read_store(dirs["no_en"])
        entries = store_entries(vectors, records)
        leak_owner = "leak:v000"
        for kind in (ModalityKind.VOICE_SPEAKER, ModalityKind.VOICE_AGE_GENDER):
            d = vectors[kind].shape[1]
            entries.append(
                (f"{leak_owner}#{kind.tag}", "leak", "en", kind,
                 np.zeros(d, dtype=np.float32) + 1.0)
            )
        write_store(*store_pair(entries), dirs["no_en"])
        cfg = scenarios_config(tmp_path, dirs)
        assert main(["scenarios", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


    def test_heard_finetune_key_exits_2_before_any_corpus(self, tmp_path, capsys):
        # no path exists: reading any corpus would exit 4
        missing = str(tmp_path / "missing")
        cfg = write_config(tmp_path / "scen.json", {
            "test_data": missing,
            "train": quick_train_block(),
            "scenarios": {
                "english_unheard": {"pretrain": missing, "finetune": missing},
                "german_unheard": {"pretrain": missing, "finetune": missing},
                "german_heard": {"pretrain": missing},
                "english_heard": {"pretrain": missing, "finetune": missing},
            },
        })
        capsys.readouterr()
        assert main(["scenarios", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "scenarios.english_heard: finetune" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("english_unheard", None, "english_unheard: fine-tune corpus required"),
        ("n_trials_target", 0, "n_trials_target and n_trials_nontarget"),
        ("n_trials_nontarget", -1, "n_trials_target and n_trials_nontarget"),
        ("dev_fraction", 1.0, "dev_fraction must be in [0, 1)"),
        ("dev_fraction", -0.1, "dev_fraction must be in [0, 1)"),
    ])
    def test_scenario_settings_exit_2_before_any_corpus(self, tmp_path, capsys,
                                                        key, value, message):
        # no path exists: reading any corpus would exit 4
        missing = str(tmp_path / "missing")
        both = {"pretrain": missing, "finetune": missing}
        scenarios = {"english_heard": {"pretrain": missing},
                     "german_heard": {"pretrain": missing},
                     "english_unheard": both, "german_unheard": both}
        config = {"test_data": missing, "train": quick_train_block(),
                  "scenarios": scenarios}
        if key in scenarios:
            scenarios[key] = {"pretrain": missing}  # no fine-tune corpus
        else:
            config[key] = value
        cfg = write_config(tmp_path / "scen.json", config)
        capsys.readouterr()
        assert main(["scenarios", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, message", [
    ("train", "dev_fraction", 1.5, "dev_fraction must be in [0, 1)"),
    ("xattn", "dev_fraction", 1.5, "dev_fraction must be in [0, 1)"),
    ("pretrain-finetune", "dev_fraction", 1.5, "dev_fraction must be in [0, 1)"),
    ("crossval", "n_folds", 1, "n_folds must be >= 2"),
    ("pretrain-finetune", "n_folds", 1, "n_folds must be >= 2"),
])
def test_top_level_numbers_exit_2_before_any_corpus(tmp_path, capsys, command,
                                                    key, value, message):
    # no path exists: reading any corpus would exit 4
    missing = str(tmp_path / "missing")
    config = {k: missing for k, spec in CONFIG_SCHEMA[command].items() if spec is str}
    config[key] = value
    cfg = write_config(tmp_path / "c.json", config)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


# After `main` sets glibc's allocator up, a step's freed arrays stay in the
# heap for the next step. Under glibc's defaults each 300x192 float64
# temporary is mmapped afresh: about 300 minor faults per call.
_FAULTS_PY = r"""
import resource, sys
import numpy as np
from fvassoc import cli
from fvassoc.diffcore import l2_normalize_rows_backward
cli.main(["train", "--config", sys.argv[1], "--out", sys.argv[2]])
x, g = np.random.default_rng(0).standard_normal((2, 300, 192))
l2_normalize_rows_backward(x, g)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    l2_normalize_rows_backward(x, g)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator set-up is glibc's mallopt")
def test_main_keeps_freed_heap_for_the_next_step(tmp_path):
    src = str(Path(fvassoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PY, str(tmp_path / "missing.json"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert int(proc.stdout) < 1000


# numpy's set routines call a plain np.unique, whose masked-array check
# imports numpy.ma (13-18 ms); no command may go through one.
_NUMPY_MA_PY = r"""
import sys
from fvassoc import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.fixture(scope="module")
def command_configs(tmp_path_factory):
    """Command -> config file, one per command, on tiny corpora; eval's
    checkpoint is trained here."""
    tmp = tmp_path_factory.mktemp("commands")
    data = make_data(tmp, n_speakers=8)
    block = quick_train_block(max_steps=4, eval_every=2, n_dev_target=20,
                              n_dev_nontarget=20)
    configs = {
        "synth": {"synth": json.loads(Path(synth_config(tmp)).read_text())["synth"]},
        "train": {"data": data, "dev_fraction": 0.25, "train": block},
        "crossval": {"data": data, "n_folds": 2, "train": block},
        "pretrain-finetune": {"pretrain_data": data, "finetune_data": data,
                              "n_folds": 2, "dev_fraction": 0.25,
                              "pretrain": block, "finetune": block},
        "xattn": {"data": data, "dev_fraction": 0.25,
                  "train": {"d_model": 8, "max_steps": 4, "eval_every": 2}},
    }
    paths = {name: write_config(tmp / f"{name}.json", cfg)
             for name, cfg in configs.items()}
    assert main(["train", "--config", paths["train"], "--out", str(tmp / "ckpt")]) == 0
    trials = tmp / "trials.tsv"
    trials.write_text("face_record_id\tvoice_record_id\tlabel\n"
                      "s000:f000\ts000:v001\tsame\n"
                      "s000:f001\ts001:v000\tdifferent\n")
    paths["eval"] = write_config(tmp / "eval.json", {
        "checkpoint": str(tmp / "ckpt" / "checkpoint.fvh"), "data": data,
        "trials": str(trials)})
    paths["scenarios"] = scenarios_config(tmp, scenario_dirs(tmp))
    return paths


@pytest.mark.parametrize("command", ["synth", "train", "crossval",
                                     "pretrain-finetune", "scenarios", "eval",
                                     "xattn"])
def test_no_command_imports_numpy_ma(command_configs, tmp_path, command):
    src = str(Path(fvassoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PY, command, "--config",
         command_configs[command], "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


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
    from fvassoc.embedstore import read_store, write_store
    from testlib import filter_exclude_language

    tmp = tmp_path_factory.mktemp("schema")
    data = make_data(tmp, n_speakers=14,
                     languages={"en": 0.4, "de": 0.4, "fr": 0.2})
    vectors, records = read_store(data)
    for lang in ("en", "de"):
        write_store(vectors, filter_exclude_language(records, lang),
                    tmp / f"no_{lang}")
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
# language tags that a manifest row could not hold
_UNWRITABLE_LANGUAGES = [{"e\tn": 1.0}, {"e\nn": 1.0}, {"e\rn": 1.0},
                         {"e\u0000n": 1.0}]
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
                  {"en": None}, *_UNWRITABLE_LANGUAGES],
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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_config_loads_or_raises_config_error(tmp_path, data):
    """A config file of any JSON value, or a base config with up to three
    keys (an unknown one included) set to any JSON value, either loads or
    raises ConfigError."""
    command = data.draw(st.sampled_from(list(CONFIG_SCHEMA)), label="command")
    config = _SHAPES[command]
    if data.draw(st.booleans(), label="whole file"):
        config = data.draw(_JSON, label="config")
    else:
        paths = [*schema_leaves(config), ("extra",),
                 *((key, "extra") for key in config if key in SCHEMA_BLOCKS)]
        drawn = data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                   max_size=3, unique=True), label="keys")
        for path in sorted(drawn, key=len, reverse=True):  # inner keys first
            config = with_value(config, path, data.draw(_JSON, label=str(path)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    seed = data.draw(st.none() | st.integers(), label="seed")
    try:
        loaded = load_config(command, path, seed)
    except ConfigError:
        return
    assert set(loaded) == set(CONFIG_SCHEMA[command])


@pytest.mark.parametrize("command", list(CONFIG_SCHEMA))
def test_schema_base_config_runs(schema_corpus, tmp_path, command):
    config = schema_base_configs(schema_corpus)[command]
    assert run_config(tmp_path, command, config) == (0, True)


@pytest.mark.parametrize("command", [c for c in CONFIG_SCHEMA if c != "synth"])
def test_report_echoes_the_resolved_config(schema_corpus, tmp_path, command):
    # every key, defaults filled in, so that the echo can reproduce the run
    config = schema_base_configs(schema_corpus)[command]
    path = write_config(tmp_path / "c.json", config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    resolved = {key: asdict(value) if is_dataclass(value) else value
                for key, value in load_config(command, path).items()}
    assert load_report(tmp_path / "o")["config"] == resolved


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_that_cannot_be_a_directory_exits_4_before_any_work(
            self, schema_corpus, tmp_path, monkeypatch, capsys, below):
        import fvassoc.cli

        def forbidden(*args, **kwargs):
            raise AssertionError("reached after a failed --out")

        monkeypatch.setattr(fvassoc.cli, "load_dataset", forbidden)
        monkeypatch.setattr(traineval, "train_with_early_stopping", forbidden)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if below else taken
        path = write_config(tmp_path / "c.json",
                            schema_base_configs(schema_corpus)["train"])
        capsys.readouterr()
        assert main(["train", "--config", path, "--out", str(out)]) == 4
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new_out", "existing_out"])
    def test_a_fold_failing_mid_run_leaves_out_as_it_was(
            self, schema_corpus, tmp_path, monkeypatch, existing):
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        before = sorted(p.name for p in out.iterdir()) if existing else []
        staged = []
        train = traineval.train_with_early_stopping

        def third_fails(*args, **kwargs):
            staged.append(sorted(p.name for p in out.iterdir()))
            if len(staged) == 3:
                raise DegenerateVectorError("injected at the third fold")
            return train(*args, **kwargs)

        monkeypatch.setattr(traineval, "train_with_early_stopping", third_fails)
        config = with_value(schema_base_configs(schema_corpus)["crossval"],
                            ("n_folds",), 3)
        path = write_config(tmp_path / "c.json", config)
        assert main(["crossval", "--config", path, "--out", str(out)]) == 4
        # the folds that ended were staged, then discarded with the directory
        assert staged[2] == sorted(before + ["fold0.fvh.tmp", "fold1.fvh.tmp"])
        if existing:
            assert sorted(p.name for p in out.iterdir()) == before
            assert (out / "notes.txt").read_text() == "kept"
        else:
            assert not (tmp_path / "made").exists()


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


# (command, key path): each value sizes an array, and at 2^40 no machine's
# physical memory holds it, so the command exits 2 naming the key before
# anything of that size is allocated
_TOO_LARGE = [
    ("train", ("train", "out_dim")),
    ("crossval", ("train", "out_dim")),
    ("xattn", ("train", "d_model")),
    ("xattn", ("train", "batch_size")),
    ("synth", ("synth", "n_speakers")),
    ("synth", ("synth", "latent_dim")),
    ("synth", ("synth", "records_per_speaker")),
    ("synth", ("synth", "dims", "vspk")),
]


@pytest.mark.parametrize("command,path", _TOO_LARGE,
                         ids=[f"{c}:{'.'.join(p)}" for c, p in _TOO_LARGE])
def test_size_beyond_physical_memory_exits_2_naming_its_key(
        schema_corpus, tmp_path, capsys, command, path):
    config = schema_base_configs(schema_corpus)[command]
    if path[-1] == "vspk":
        config = with_value(config, path[:-1], dict(_SMALL))
    assert run_config(tmp_path, command, with_value(config, path, 2**40)) == (2, False)
    err = capsys.readouterr().err
    assert "error: config " in err and "of physical memory" in err
    assert ("dims" if path[-1] == "vspk" else path[-1]) in err


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


@pytest.mark.parametrize("languages", _UNWRITABLE_LANGUAGES)
def test_language_tag_a_manifest_cannot_hold_exits_2(tmp_path, capsys, languages):
    cfg = write_config(tmp_path / "s.json", {"synth": {"languages": languages}})
    capsys.readouterr()
    out = tmp_path / "d"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    assert "synth.languages" in capsys.readouterr().err
    assert not out.exists()


def test_synth_without_languages_writes_one_language(tmp_path):
    cfg = write_config(tmp_path / "s.json",
                       {"synth": {"n_speakers": 4, "records_per_speaker": 2}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    from fvassoc.embedstore import read_store

    _, records = read_store(tmp_path / "d")
    assert set(records.language.tolist()) == {"en"}


class TestDecodeErrors:
    def test_non_utf8_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        # read as Latin-1 this would be a valid config with language "\xff"
        cfg.write_bytes(b'{"synth": {"seed": 1, "languages": {"\xff": 1.0}}}')
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_too_deeply_nested_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_over_long_integer_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"synth": {"seed": ' + "1" * 5000 + "}}", encoding="utf-8")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
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

    @pytest.mark.parametrize("rows", [
        ["s000:f000\ts000:v001"],
        ["s000:f000\ts000:v001\tsame\tsame"],
        ["s000:f000\ts000:v001\tSame"],
        # 6 cells that regroup into two rows of 3, each with a valid label
        ["s000:f000\ts000:v001", "same\ts000:f001\ts001:v000\tdifferent"],
        # 3 cells in a row of 2 and a row of 1
        ["s000:f000\ts000:v001", "same"],
    ], ids=["2-fields", "4-fields", "label-Same", "2-then-4-fields",
            "2-then-1-fields"])
    def test_bad_trial_row_exits_4_and_is_named(self, schema_corpus, tmp_path,
                                                capsys, rows):
        config = schema_base_configs(schema_corpus)["eval"]
        trials = tmp_path / "t.tsv"
        trials.write_text("\n".join([
            "face_record_id\tvoice_record_id\tlabel",
            "s000:f000\ts000:v001\tsame", *rows, "s000:f001\ts001:v000\tdifferent",
        ]) + "\n", encoding="utf-8")
        config = with_value(config, ("trials",), str(trials))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert f"bad trial row {rows[0]!r}" in capsys.readouterr().err

    def test_nul_in_a_trial_id_exits_4_and_is_named(self, schema_corpus,
                                                    tmp_path, capsys):
        # without the check both rows would name the face s000:f000
        config = schema_base_configs(schema_corpus)["eval"]
        trials = tmp_path / "t.tsv"
        bad = "s000:f000\x00\ts001:v000\tdifferent"
        trials.write_text("\n".join([
            "face_record_id\tvoice_record_id\tlabel",
            "s000:f000\ts000:v001\tsame", bad,
        ]) + "\n", encoding="utf-8")
        config = with_value(config, ("trials",), str(trials))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert f"NUL character in trials file row {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [1, 4], ids=["speaker", "dim"])
    def test_nul_in_a_manifest_row_exits_4(self, schema_corpus, tmp_path,
                                           capsys, cell):
        def edit(blob):
            lines = blob.split(b"\n")
            cells = lines[2].split(b"\t")
            cells[cell] += b"\x00"
            lines[2] = b"\t".join(cells)
            return b"\n".join(lines)

        capsys.readouterr()
        assert self._corrupt_copy(
            schema_corpus, tmp_path, "manifest.tsv", edit
        ) == (4, False)
        assert "NUL character in manifest row" in capsys.readouterr().err

    def test_nul_in_a_store_record_id_exits_4(self, schema_corpus, tmp_path,
                                              capsys):
        # 17-byte header, u16 id length, then the first record id
        code = self._corrupt_copy(
            schema_corpus, tmp_path, "vspk.fve",
            lambda blob: blob[:20] + b"\x00" + blob[21:],
        )
        assert code == (4, False)
        assert "record id at byte 19 has a NUL" in capsys.readouterr().err

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

    def test_manifest_dim_beyond_int64_exits_4(self, schema_corpus, tmp_path,
                                               capsys):
        def edit(blob):
            lines = blob.split(b"\n")
            lines[1] = lines[1].rsplit(b"\t", 1)[0] + b"\t99999999999999999999"
            return b"\n".join(lines)

        capsys.readouterr()
        assert self._corrupt_copy(
            schema_corpus, tmp_path, "manifest.tsv", edit
        ) == (4, False)
        assert "bad dim in manifest row" in capsys.readouterr().err

    def test_manifest_tag_other_than_its_store_exits_4(self, schema_corpus,
                                                       tmp_path, capsys):
        # vspk.fve holds s000:v000#vspk; its manifest row now tags it fid
        def edit(blob):
            return blob.replace(b"s000:v000#vspk\ts000\ten\tvspk\t",
                                b"s000:v000#vspk\ts000\ten\tfid\t")

        capsys.readouterr()
        assert self._corrupt_copy(
            schema_corpus, tmp_path, "manifest.tsv", edit
        ) == (4, False)
        assert ("record s000:v000#vspk has manifest tag fid != store tag vspk"
                in capsys.readouterr().err)

    def test_duplicate_owner_in_one_modality_exits_4(self, schema_corpus,
                                                     tmp_path, capsys):
        from fvassoc.embedstore import ModalityKind, read_store, write_store
        from testlib import store_entries, store_pair

        entries = store_entries(*read_store(schema_corpus[1]))
        first = next(e for e in entries if e[3] == ModalityKind.VOICE_SPEAKER)
        owner = first[0].split("#", 1)[0]
        # same owner, so assembly would have to drop one of the two silently
        entries.append((f"{owner}#vspk2", *first[1:]))
        write_store(*store_pair(entries), tmp_path / "data")
        config = {"data": str(tmp_path / "data"), "dev_fraction": 0.25,
                  "train": SCHEMA_TRAIN}
        capsys.readouterr()
        assert run_config(tmp_path, "train", config) == (4, False)
        assert f"owner {owner}: two vspk records" in capsys.readouterr().err

    def test_record_stored_twice_exits_4(self, schema_corpus, tmp_path, capsys):
        # vspk.fve holds its first record a second time, all 99s, while the
        # manifest lists it once: reading must not keep either vector
        data = tmp_path / "data"
        shutil.copytree(schema_corpus[1], data)
        blob = (data / "vspk.fve").read_bytes()
        count = int.from_bytes(blob[13:17], "little")
        id_len = int.from_bytes(blob[17:19], "little")
        rid = blob[19 : 19 + id_len]
        width = (len(blob) - 17) // count - 2 - id_len  # ids of one length
        again = blob[17 : 19 + id_len] + np.full(width // 4, 99, "<f4").tobytes()
        (data / "vspk.fve").write_bytes(
            blob[:13] + struct.pack("<I", count + 1) + blob[17:] + again
        )
        config = {"data": str(data), "dev_fraction": 0.25, "train": SCHEMA_TRAIN}
        capsys.readouterr()
        assert run_config(tmp_path, "train", config) == (4, False)
        err = capsys.readouterr().err
        assert f"vspk.fve: record {rid.decode()} is stored twice" in err

    def test_bytes_after_the_last_store_record_exit_4(self, schema_corpus,
                                                      tmp_path, capsys):
        size = (Path(schema_corpus[1]) / "vspk.fve").stat().st_size
        capsys.readouterr()
        assert self._corrupt_copy(
            schema_corpus, tmp_path, "vspk.fve", lambda blob: blob + b"garbage"
        ) == (4, False)
        assert (f"vspk.fve: 7 trailing bytes at byte {size}"
                in capsys.readouterr().err)

    def test_bytes_after_the_last_checkpoint_array_exit_4(self, schema_corpus,
                                                          tmp_path, capsys):
        blob = Path(schema_corpus[2]).read_bytes()
        ckpt = tmp_path / "joined.fvh"
        ckpt.write_bytes(blob + b"junk")
        config = with_value(schema_base_configs(schema_corpus)["eval"],
                            ("checkpoint",), str(ckpt))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert (f"joined.fvh: 4 trailing bytes at byte {len(blob)}"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("meta", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' + b"1" * 5000 + b"}",
    ], ids=["too_deeply_nested", "over_long_integer"])
    def test_undecodable_checkpoint_meta_exits_4(self, schema_corpus, tmp_path,
                                                 capsys, meta):
        # magic, u32 version, u32 meta length, then the meta block
        blob = Path(schema_corpus[2]).read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        ckpt = tmp_path / "meta.fvh"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(meta)) + meta
                         + blob[12 + meta_len:])
        config = with_value(schema_base_configs(schema_corpus)["eval"],
                            ("checkpoint",), str(ckpt))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert "meta.fvh: bad checkpoint meta block" in capsys.readouterr().err

    def test_an_array_named_twice_in_the_checkpoint_exits_4(
            self, schema_corpus, tmp_path, capsys):
        # a placeholder of the same length is saved, then renamed in the bytes
        arrays, meta = load_checkpoint(schema_corpus[2])
        arrays["head_face.biaz"] = arrays["head_face.bias"] + 1.0
        save_checkpoint(tmp_path / "c.fvh", arrays, meta)
        ckpt = tmp_path / "twice.fvh"
        ckpt.write_bytes((tmp_path / "c.fvh").read_bytes().replace(
            b"head_face.biaz", b"head_face.bias"))
        config = with_value(schema_base_configs(schema_corpus)["eval"],
                            ("checkpoint",), str(ckpt))
        capsys.readouterr()
        assert run_config(tmp_path, "eval", config) == (4, False)
        assert ("twice.fvh: array head_face.bias appears twice"
                in capsys.readouterr().err)

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
# reached through an exception that has one (an FvError or an OSError)


STORE_FILES = ["vspk.fve", "vag.fve", "fid.fve", "fag.fve"]
NON_FINITE_F32 = [struct.pack("<f", v) for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture
def corrupt_inputs(schema_corpus, tmp_path, monkeypatch):
    """A private copy of the corpus, checkpoint and trial file, and
    `run(command, path, blob)`: run `command` on the copy with the file at
    `path` replaced by `blob`, put the file back, and return the exit status.

    An exception that is neither an FvError nor an OSError fails the test
    instead of taking `_exit_code`'s fallback to exit 5.
    """
    import fvassoc.cli

    exit_code = fvassoc.cli._exit_code

    def mapped_exit_code(exc):
        if not isinstance(exc, (FvError, OSError)):
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
    """`blob` truncated, or with 1-4 of its bytes overwritten, inserted or
    deleted, as drawn."""
    mode = data.draw(st.sampled_from(["truncate", "overwrite", "insert",
                                      "delete"]), label="mode")
    if mode == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="n_bytes")):
        at = data.draw(st.integers(0, len(out) - 1), label="at")
        if mode == "delete":
            del out[at]
        elif mode == "insert":
            out.insert(at, data.draw(st.integers(0, 255), label="byte"))
        else:
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
