"""Fixed machine-speed probe, run as its own process next to each timed run.

It does a little of each kind of work the fvassoc CLI does: interpreter
start and numpy import, building millions of small tuples (as trial
sampling does, which also makes the garbage collector walk a large heap),
single-threaded BLAS matmuls and elementwise array arithmetic. Its wall
time tracks how fast the machine is at that moment, so the benchmark can
rescale its timings to a machine of fixed speed. Nothing here depends on
fvassoc.
"""

import numpy as np


def main():
    names = [f"r{i:05d}" for i in range(2000)]
    pairs = [(a, b) for a in names for b in names[:1000]]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 2048))
    w = rng.standard_normal((2048, 192))
    for _ in range(8):
        y = x @ w
        x[:, :192] = np.tanh(y)
    v = rng.standard_normal(1_000_000)
    for _ in range(10):
        v = 0.9 * v + 0.1 * v * v
        v /= np.abs(v).max()
    return len(pairs) + float(x.sum()) + float(v.sum())


if __name__ == "__main__":
    main()
