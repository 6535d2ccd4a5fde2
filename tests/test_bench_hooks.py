"""The benchmark's span tracer still finds every hook it needs.

`perfbench/tracer.py` wraps fvassoc functions by name and derives its work
counters from their arguments and results (it counts the records that
`read_store` returns and reads `speaker_id` from the rows of
`dataset.face_inputs`). These tests run it on a tiny corpus the way a
`--trace 1` benchmark run does, so a rename or a changed return shape fails
here instead of in a benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def traced(tmp_path, *cli_args):
    """Run one CLI command under the tracer; returns its trace payload."""
    trace_out = tmp_path / f"{cli_args[0]}.trace.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--trace-out", str(trace_out),
         "--spawned-ns", str(time.time_ns()), "--", *cli_args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_out.read_text(encoding="utf-8"))
    assert trace["exit"] == 0
    return trace


def span_names(trace):
    return [span[0] for span in trace["spans"]]


def test_traced_synth_then_train(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"synth": {
        "n_speakers": 6, "latent_dim": 4, "dims": "small",
        "noise_sigma": 0.01, "records_per_speaker": 3, "seed": 1,
        "languages": {"en": 1.0},
    }}), encoding="utf-8")
    data = tmp_path / "data"
    trace = traced(tmp_path, "synth", "--config", str(synth), "--out", str(data))
    assert "synthgen.generate" in span_names(trace)
    assert "embedstore.write_store" in span_names(trace)

    train = tmp_path / "train.json"
    train.write_text(json.dumps({
        "data": str(data), "dev_fraction": 0.34,  # 2 of 6 speakers
        "train": {"max_steps": 2, "eval_every": 1, "batch_size": 8,
                  "p_drop": 0.5, "out_dim": 8, "n_dev_target": 4,
                  "n_dev_nontarget": 4, "seed": 3},
    }), encoding="utf-8")
    trace = traced(tmp_path, "train", "--config", str(train),
                   "--out", str(tmp_path / "run"))
    names = span_names(trace)
    assert names.count("embedstore.assemble") == 2  # voices, then faces
    assert "traineval.matrices" in names
    assert "traineval.generate_trials" in names
    counters = trace["counters"]
    assert counters["embedstore.records_read"] == 6 * 3 * 4  # 4 modalities
    # 2 dev speakers with 3 faces and 3 voices each: 6 x 6 pairs
    assert counters["traineval.trials.pool_pairs"] == 36
    assert counters["traineval.trials.drawn"] == 8
    assert counters["traineval.train_loop.steps"] == 2
