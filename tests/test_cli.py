import json
from pathlib import Path

import numpy as np
import pytest

from fvassoc.cli import main
from fvassoc.fusion import load_checkpoint


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
