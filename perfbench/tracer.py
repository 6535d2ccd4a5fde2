"""Span tracing of the fvassoc CLI from outside the package.

Run as a launcher, this module wraps the public functions of each fvassoc
layer at every module attribute that callers look them up through (for
example ``adam_step`` is bound in ``diffcore``, ``aamloss`` and
``traineval``), then calls ``fvassoc.cli.main``. Each wrapped call records
one span ``[name, start_ns, end_ns, parent_index]`` in memory, plus a few
work counters; everything is written to one JSON file when the command
returns, so the timed region does no tracing I/O.

    python3 perfbench/tracer.py --trace-out spans.json --spawned-ns N -- \\
        train --config train.json --out run/

The package itself is not modified; ``src/`` must be on ``PYTHONPATH``.
"""

import functools
import importlib
import json
import os
import sys
import time

# (layer name, defining module, attribute). Names follow
# "<module>.<function>"; several functions may share one layer name.
LAYERS = [
    ("diffcore.adam_step", "fvassoc.diffcore", "adam_step"),
    ("fusion.head_forward", "fvassoc.fusion", "head_forward"),
    ("fusion.head_backward", "fvassoc.fusion", "head_backward"),
    ("fusion.xattn_forward", "fvassoc.fusion", "xattn_forward"),
    ("fusion.xattn_backward", "fvassoc.fusion", "xattn_backward"),
    ("fusion.save_checkpoint", "fvassoc.fusion", "save_checkpoint"),
    ("fusion.load_checkpoint", "fvassoc.fusion", "load_checkpoint"),
    ("aamloss.joint_step", "fvassoc.aamloss", "joint_step"),
    ("aamloss.aam_loss_and_grad", "fvassoc.aamloss", "aam_loss_and_grad"),
    ("traineval.generate_trials", "fvassoc.traineval", "generate_trials"),
    ("traineval.score_trials", "fvassoc.traineval", "score_trials"),
    ("traineval.matrices", "fvassoc.traineval", "PairedDataset.matrices"),
    ("traineval.compute_eer", "fvassoc.traineval", "compute_eer"),
    ("traineval.train_loop", "fvassoc.traineval", "train_with_early_stopping"),
    ("traineval.train_loop", "fvassoc.traineval", "train_xattn"),
    ("embedstore.read_store", "fvassoc.embedstore", "read_store"),
    ("embedstore.assemble", "fvassoc.embedstore", "assemble_concat_inputs"),
    ("embedstore.write_store", "fvassoc.embedstore", "write_store"),
    ("synthgen.generate", "fvassoc.synthgen", "generate"),
    ("cli.read_trials_file", "fvassoc.cli", "read_trials_file"),
    ("cli.write_score_file", "fvassoc.cli", "write_score_file"),
    ("cli.main", "fvassoc.cli", "main"),
]


class Tracer:
    """In-memory span recorder with work counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, counter=None):
        """Return `fn` wrapped in a span; `counter(tracer, args, result)`
        runs after the span closes, so its cost is charged to the parent."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span. Spans are [name, start, end, parent]."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Layer name -> {"self_ns": total self time, "calls": count}."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"self_ns": 0, "calls": 0})
        entry["self_ns"] += own
        entry["calls"] += 1
    return out


# ---------------------------------------------------------------------------
# Work counters, computed from a wrapped call's arguments and result


def _count_adam(tracer, args, kwargs, result):
    tracer.count("diffcore.adam_step.elems", int(result.size))


def _count_trials(tracer, args, kwargs, result):
    dataset, held = args[0], set(args[1])
    faces = sum(1 for c in dataset.face_inputs if c.speaker_id in held)
    voices = sum(1 for c in dataset.voice_inputs if c.speaker_id in held)
    tracer.count("traineval.trials.pool_pairs", faces * voices)
    tracer.count("traineval.trials.drawn", len(result))


def _count_scoring(tracer, args, kwargs, result):
    trials = args[2]
    tracer.count("traineval.score_trials.rows", 2 * len(trials))
    tracer.count(
        "traineval.score_trials.unique_records",
        len({t.face_id for t in trials}) + len({t.voice_id for t in trials}),
    )


def _count_read(tracer, args, kwargs, result):
    tracer.count("embedstore.records_read", len(result[1]))
    tracer.count(
        "embedstore.bytes_read",
        sum(e.stat().st_size for e in os.scandir(args[0]) if e.is_file()),
    )


def _count_loop(tracer, args, kwargs, result):
    log = result[-1]
    tracer.count("traineval.train_loop.steps", log[-1]["step"])
    tracer.count("traineval.train_loop.evals", len(log))


COUNTERS = {
    "diffcore.adam_step": _count_adam,
    "traineval.train_loop": _count_loop,
    "traineval.generate_trials": _count_trials,
    "traineval.score_trials": _count_scoring,
    "embedstore.read_store": _count_read,
}


def install(tracer):
    """Wrap every layer function wherever an fvassoc module binds it."""
    importlib.import_module("fvassoc.cli")  # loads every fvassoc module
    modules = [m for n, m in sys.modules.items() if n.startswith("fvassoc.")]
    for name, module_name, attr in LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, COUNTERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main(argv):
    if "--" not in argv:
        print("usage: tracer.py --trace-out PATH --spawned-ns N -- CLI ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    trace_out = opts[opts.index("--trace-out") + 1]
    spawned_ns = int(opts[opts.index("--spawned-ns") + 1])
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["fvassoc.cli"]
    started_ns = time.time_ns()
    code = cli.main(cli_args)
    payload = {
        "exit": code,
        "startup_ns": started_ns - spawned_ns,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
