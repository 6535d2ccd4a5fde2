"""Benchmark of the fvassoc CLI: one workload, one command, many processes.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 15 --trace 0

From the root of a checkout (the package is used from ``src/``). The
workload's inputs are built from ``--seed``; the timed command then runs as
one child process at a time, each with its outputs checked, for
``--seconds``. Every metric is printed by name with its unit, and the last
line of standard output is one JSON object with the gated metrics.

``--trace 0`` reports end-to-end metrics of untraced processes. ``--trace
1`` runs the command under perfbench/tracer.py instead and reports per-layer
self times and work counts, each traced process paired with an untraced one
of the same hash seed to check that tracing leaves the outputs unchanged.
"""

import argparse
import contextlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# Timings are rescaled to a machine on which perfbench/probe.py takes this
# long; see measure_end_to_end.
PROBE_REF_S = 0.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

# Layers reported with --trace 1, each as .self_s and .calls.
LAYER_NAMES = list(dict.fromkeys(name for name, _, _ in tracer.LAYERS))
LAYER_COUNTS = [
    "diffcore.adam_step.elems",
    "traineval.trials.pool_pairs",
    "traineval.trials.drawn",
    "traineval.score_trials.rows",
    "traineval.score_trials.unique_records",
    "traineval.train_loop.steps",
    "traineval.train_loop.evals",
    "embedstore.records_read",
    "embedstore.bytes_read",
]
SETUP_LAYERS = ["embedstore.write_store", "synthgen.generate"]

# BLAS threads are asked of the OpenBLAS that numpy loaded; other BLAS
# builds report null.
FINGERPRINT_PY = r"""
import ctypes, glob, json, os, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    so = ctypes.CDLL(lib)
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(so, fn):
            threads = getattr(so, fn)()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


class SetupError(Exception):
    """A set-up command failed, so the workload has no inputs."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(hash_seed):
    """Environment of every child: the checkout's src/, one BLAS thread, and
    an explicit hash seed that differs between processes (as it does between
    separate invocations by a user).

    One thread keeps each child within nproc and makes its time independent
    of whether a second core is free: on a shared two-core machine, two BLAS
    threads doubled the spread of wall times between identical runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, hash_seed, log_path):
    """Run one child to completion. Returns (exit code, wall s, peak RSS MB).

    The child is reaped with wait4, so the peak RSS is this child's own and
    not the largest over all earlier children as RUSAGE_CHILDREN gives.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(hash_seed), cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: end the child before leaving
            exited = False
            raise
        finally:
            os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fingerprint():
    out = subprocess.run([sys.executable, "-c", FINGERPRINT_PY], env=child_env(0),
                         capture_output=True, text=True, timeout=60, check=True)
    fp = json.loads(out.stdout)
    fp["nproc"] = nproc()
    return fp


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.hash_seeds = random.Random(f"{workload}:{seed}")
        self.n_children = 0
        self.setup_traces = []

    def next_hash_seed(self):
        return self.hash_seeds.randrange(1, 2**32)

    def _argv(self, cli_args, trace_out):
        if trace_out is None:
            return [sys.executable, "-m", "fvassoc.cli", *cli_args]
        return [sys.executable, str(HERE / "tracer.py"),
                "--trace-out", str(trace_out),
                "--spawned-ns", str(time.time_ns()), "--", *cli_args]

    def child(self, argv, hash_seed):
        self.n_children += 1
        log = self.work / f"child{self.n_children}.log"
        code, wall, rss = run_child(argv, hash_seed, log)
        return code, wall, rss, log

    def probe(self):
        """Wall time of one run of the machine-speed probe."""
        code, wall, _, log = self.child([sys.executable, str(HERE / "probe.py")], 0)
        if code != 0:
            raise SetupError(f"probe exited {code}: {_tail(log)}")
        return wall

    def setup(self, directory, trace):
        """Build the inputs once; returns (context, seconds)."""

        def cli(args, traceable=False):
            trace_out = None
            if traceable and trace:
                trace_out = directory.parent / f"setup{len(self.setup_traces)}.json"
            code, _, _, log = self.child(self._argv(args, trace_out),
                                         self.next_hash_seed())
            if code != 0:
                raise SetupError(f"{args[0]} exited {code}: {_tail(log)}")
            if trace_out is not None:
                self.setup_traces.append(json.loads(trace_out.read_text()))

        start = time.perf_counter()
        ctx = workloads.setup(self.workload, self.seed, directory, cli)
        return ctx, time.perf_counter() - start

    def sample(self, ctx, hash_seed, trace_out=None):
        """Run the timed command once and check it. Returns a result dict."""
        out = self.work / f"out{self.n_children + 1}"
        code, wall, rss, log = self.child(
            self._argv(workloads.argv(ctx, out), trace_out), hash_seed)
        result = {"wall_s": wall, "rss_mb": rss, "error": None, "eer": None,
                  "digest": None}
        try:
            if code != 0:
                raise workloads.CheckError(f"exit status {code}: {_tail(log)}")
            result["eer"] = workloads.check(ctx, out)
            result["digest"] = workloads.digest(out)
        except workloads.CheckError as exc:
            result["eer"] = exc.eer
            result["error"] = f"CheckError: {exc}"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return result


def _tail(log, n=400):
    text = Path(log).read_text(encoding="utf-8", errors="replace").strip()
    return text[-n:]


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it, or None."""
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Modes


def measure_end_to_end(bench, seconds):
    """End-to-end metrics of untraced runs.

    Each set-up and each timed run follows a run of the machine-speed probe,
    and times are reported as PROBE_REF_S * median(time) / median(probe
    time): seconds on a machine where the probe takes PROBE_REF_S. On a
    shared VM the speed of the machine drifts by tens of percent over
    minutes; the probes of a run drift with it, so the ratio stays steady
    while a slower or faster fvassoc still moves it in full."""
    setups = []
    for rep in range(SETUP_REPEATS):
        probe = bench.probe()
        ctx, secs = bench.setup(bench.work / f"setup{rep}", trace=False)
        setups.append((secs, probe))
        if rep > 0:
            shutil.rmtree(bench.work / f"setup{rep - 1}")
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        probe = bench.probe()
        samples.append(dict(bench.sample(ctx, bench.next_hash_seed()),
                            probe_s=probe))
    ok = [s for s in samples if s["error"] is None]
    walls = sorted(s["wall_s"] for s in samples)
    probe = statistics.median([p for _, p in setups] + [s["probe_s"] for s in samples])
    scale = PROBE_REF_S / probe
    metrics = {
        "wall_s": (scale * statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in samples), "MB"),
        "setup_s": (scale * statistics.median(secs for secs, _ in setups), "s"),
        "eer": (median_or_zero([s["eer"] for s in samples
                                 if s["eer"] is not None]), "frac"),
        "ok_frac": (len(ok) / len(samples), "frac"),
    }
    p = tail_percentile(len(walls))
    tail = (f"p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4f} s" if p
            else f"max {walls[-1]:.4f} s; no percentile above the median "
                 f"has 10 samples beyond it")
    notes = [
        f"raw wall over n={len(walls)} processes: median "
        f"{statistics.median(walls):.4f} s, {tail}; median probe {probe:.4f} s",
        "raw wall / probe in run order: " + ", ".join(
            f"{s['wall_s']:.3f}/{s['probe_s']:.3f}" for s in samples),
        f"raw set-up / probe over {SETUP_REPEATS} set-ups: " + ", ".join(
            f"{secs:.3f}/{probe:.3f}" for secs, probe in setups),
        _agreement(ok),
    ]
    return samples, metrics, notes


def measure_layers(bench, seconds):
    ctx, _ = bench.setup(bench.work / "setup0", trace=True)
    traces, pairs = [], []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        hash_seed = bench.next_hash_seed()
        trace_out = bench.work / f"trace{len(traces)}.json"
        # alternate which of the pair runs first, so order effects cancel
        if len(pairs) % 2 == 0:
            traced = bench.sample(ctx, hash_seed, trace_out)
            plain = bench.sample(ctx, hash_seed)
        else:
            plain = bench.sample(ctx, hash_seed)
            traced = bench.sample(ctx, hash_seed, trace_out)
        if traced["error"] is None and traced["digest"] != plain["digest"]:
            traced["error"] = "traced and untraced outputs differ"
        if trace_out.exists():
            traces.append(json.loads(trace_out.read_text()))
        pairs.append((traced, plain))
    samples = [s for pair in pairs for s in pair]
    metrics = layer_metrics(traces, bench.setup_traces)
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] - p["wall_s"] for t, p in pairs), "s")
    plain_ok = [p for _, p in pairs if p["error"] is None]
    metrics["run.distinct_outputs"] = (
        len({p["digest"] for p in plain_ok}), "count")
    top = max(LAYER_NAMES, key=lambda n: metrics[f"{n}.self_s"][0])
    notes = [
        f"{len(traces)} traced processes, each paired with an untraced one "
        "of the same hash seed",
        f"largest self time: {top} "
        f"({metrics[f'{top}.self_s'][0]:.4f} s per process)",
        _agreement(plain_ok),
    ]
    return samples, metrics, notes


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in LAYER_COUNTS})
    units["traineval.trials.drawn_per_pool"] = "ratio"
    units["process.startup_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["run.distinct_outputs"] = "count"
    return units


def layer_metrics(traces, setup_traces):
    """Per-layer medians over traced processes of the timed command; the
    set-up layers come from the traced set-up instead."""
    rows = []
    for trace in traces:
        row = dict(trace["counters"])
        for name, entry in tracer.summarize(trace["spans"]).items():
            row[f"{name}.self_s"] = entry["self_ns"] / 1e9
            row[f"{name}.calls"] = entry["calls"]
        pool = row.get("traineval.trials.pool_pairs", 0)
        row["traineval.trials.drawn_per_pool"] = (
            row.get("traineval.trials.drawn", 0) / pool if pool else 0.0)
        row["process.startup_s"] = trace["startup_ns"] / 1e9
        rows.append(row)
    setup = {}
    for trace in setup_traces:
        for name, entry in tracer.summarize(trace["spans"]).items():
            setup[f"{name}.self_s"] = setup.get(f"{name}.self_s", 0.0) \
                + entry["self_ns"] / 1e9
            setup[f"{name}.calls"] = setup.get(f"{name}.calls", 0) + entry["calls"]
    metrics = {}
    for key, unit in layer_units().items():
        if key.rsplit(".", 1)[0] in SETUP_LAYERS:
            value = setup.get(key, 0)
        else:
            value = median_or_zero([r.get(key, 0) for r in rows])
        metrics[key] = (value, unit)
    return metrics


def _agreement(samples):
    digests = [s["digest"] for s in samples]
    distinct = sorted(set(digests))
    verdict = "agree" if len(distinct) == 1 else "DISAGREE"
    return (f"outputs over {len(digests)} processes with distinct hash seeds: "
            f"{len(distinct)} distinct sha256 ({verdict})"
            + (f" {distinct[0]}" if len(distinct) == 1 else ""))


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated benchmark unwinds, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fvassoc" / "cli.py").is_file():
        print(f"error: no fvassoc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        fp = fingerprint()
        measure = measure_layers if args.trace else measure_end_to_end
        samples, metrics, notes = measure(bench, args.seconds)
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    failed = [s for s in samples if s["error"] is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workloads.WORKLOADS[args.workload]['why']}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in fp.items()))
    for note in notes:
        print(note)
    for s in failed[:5]:
        print(f"failed run: {s['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
