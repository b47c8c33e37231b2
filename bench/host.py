"""Host speed, from fixed reference kernels timed between the timed work.

On a shared host the same code runs faster or slower with what the
neighbours do, and a slow spell can last minutes, longer than a run. The
benchmark therefore times three fixed kernels, each like one kind of work
penet does, at many points of every run (after each training epoch and
each eval batch). A kernel's slowdown is its fastest time in the run over
NOMINAL_MS, its fastest time on the host the benchmark was written on.
The end-to-end timings are divided by the slowdown of the kernels like
them, so that they read as on that host. The kernels never change, so a
change to penet moves the timings and not the slowdown.
"""

import math
import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.random((4096, 128), dtype=np.float32)
_B = _rng.random((128, 1024), dtype=np.float32)
_TEXT = "\n".join(" ".join(f"{v:.6f}" for v in row)
                  for row in _rng.random((1024, 6)))
_PTS = _rng.random((1024, 3), dtype=np.float32)


def matmul():
    """A (4096, 128) @ (128, 1024) float32 product and a ReLU: the shape
    of encoder.layer3 on a training batch."""
    np.maximum(_A @ _B, 0)


def parse():
    """1024 text rows of six floats, split and converted as
    load_cloud_text does."""
    return [[float(t) for t in line.split()] for line in _TEXT.splitlines()]


def loop():
    """128 greedy farthest-point steps over 1024 points: small numpy calls
    from a Python loop, as in farthest_point_sample."""
    d2 = np.sum((_PTS - _PTS[0]) ** 2, axis=1)
    for _ in range(127):
        i = int(np.argmax(d2))
        np.minimum(d2, np.sum((_PTS - _PTS[i]) ** 2, axis=1), out=d2)


KERNELS = {"matmul": matmul, "parse": parse, "loop": loop}

# Fastest time of each kernel, in ms, between the timed work of a run in
# a fast spell of the host the benchmark was written on: 2 vCPUs of an
# Intel Xeon, Python 3.11, numpy 2 with OpenBLAS on one thread.
NOMINAL_MS = {"matmul": 11.0, "parse": 1.3, "loop": 3.6}


class Host:
    """Times of every kernel at every probe of one run."""

    def __init__(self):
        self.times = {name: [] for name in KERNELS}

    def probe(self):
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            self.times[name].append(time.perf_counter() - t0)

    def fastest_ms(self, name):
        return min(self.times[name]) * 1e3

    def slowdown(self, *names):
        """Geometric mean of the named kernels' slowdowns."""
        return math.prod(self.fastest_ms(n) / NOMINAL_MS[n]
                         for n in names) ** (1 / len(names))
