import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_FILES = [
    *(f"crossval/fold{f}.fvh" for f in range(3)),
    "crossval/report.json",
    *(f"crossval7/fold{f}.fvh" for f in range(7)),
    "crossval7/report.json",
    *(f"data/{name}" for name in ("fag.fve", "fid.fve", "ground_truth.fve",
                                  "manifest.tsv", "vag.fve", "vspk.fve")),
    "eval/report.json",
    "eval/scores.tsv",
    "eval_utf8/report.json",
    "eval_utf8/scores.tsv",
    *(f"{d}/{name}" for d in ("narrow", "no_de", "no_en")
      for name in ("fag.fve", "fid.fve", "manifest.tsv", "vag.fve", "vspk.fve")),
    *(f"resorted/{name}" for name in ("fag.fve", "fid.fve", "manifest.tsv",
                                      "vag.fve", "vspk.fve")),
    "pretrain-finetune/finetuned_fold0.fvh",
    "pretrain-finetune/finetuned_fold1.fvh",
    "pretrain-finetune/pretrained.fvh",
    "pretrain-finetune/report.json",
    "scenarios/report.json",
    "train/checkpoint.fvh",
    "train/report.json",
    "train_narrow/checkpoint.fvh",
    "train_narrow/report.json",
    "train_resorted/checkpoint.fvh",
    "train_resorted/report.json",
    *(f"utf8/{name}" for name in ("fag.fve", "fid.fve", "manifest.tsv",
                                  "vag.fve", "vspk.fve")),
    "xattn/checkpoint.fvh",
    "xattn/dev_trials.tsv",
    "xattn/report.json",
    "xattn_dropout/checkpoint.fvh",
    "xattn_dropout/dev_trials.tsv",
    "xattn_dropout/report.json",
    "xattn_resorted/checkpoint.fvh",
    "xattn_resorted/dev_trials.tsv",
    "xattn_resorted/report.json",
]


def test_digests_do_not_depend_on_where_the_tool_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for sub in ("a", "b"):
        cwd = tmp_path / sub
        cwd.mkdir()
        runs.append(subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / "output_digests.py")],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ))
    outputs = []
    for proc in runs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    digests = json.loads(outputs[0])
    assert sorted(digests) == sorted(EXPECTED_FILES)
    assert all(len(d) == 64 for d in digests.values())
