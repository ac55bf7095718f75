"""Host-speed reference for the benchmark's end-to-end times.

On a shared host the speed of a core swings by tens of percent, and by up to
2x, over seconds to minutes, and process CPU time swings with it: the
neighbours slow the core, they do not take it away. A wall time measured in
one 30-second window then says as much about the neighbours as about the
program. So the benchmark times fixed reference loops while each command
runs, every INTERVAL_S of wall time (SIGALRM, in the same thread), and
reports each time rescaled to the reference speed:

    time * NOMINAL_S / (reference time during that time)

Code does not slow alike: interpreter-bound code slows about as much as the
host, vectorised numpy code less. So there are two loops, and the reference
time is the geometric mean of their mean times:

- a step loop, the small-vector numpy arithmetic driven by the interpreter
  that a private step does;
- a vector loop, sorts and uniques of a few thousand integers, the kind of
  work `simulate_tau` does.

On a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4), over five
minutes in which raw command times spread by 17% to 30% (quartile distance
over median), the rescaled times of single `run`, `tau-sim` and `audit`
commands spread by 5% to 15%. A command that is all of one kind is
rescaled a little too much or too little: here the step loop alone fits
`run` best, the vector loop `tau-sim`. The loops run inside the measured
time and cost about 2% of it, the same share on every commit.
"""

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Reference time that defines the reference speed: about its median on the
# machine above.
NOMINAL_S = 1.0e-3

_START = np.linspace(-1.0, 1.0, 10)
_INDICES = np.arange(4096, dtype=np.int64) * 2654435761 % 1024


def _step_loop():
    w = _START.copy()
    for t in range(1, 201):
        g = w * 0.5 + t * 1e-3
        w = w - g / math.sqrt(t)
        norm = float(np.sqrt(w @ w))
        if norm > 1.0:
            w = w / norm


def _vector_loop():
    for _ in range(4):
        _, first = np.unique(_INDICES, return_index=True)
        np.sort(first)


LOOPS = (_step_loop, _vector_loop)


def sample():
    """Run each reference loop once; return their wall times in seconds."""
    times = []
    for loop in LOOPS:
        began = time.perf_counter()
        loop()
        times.append(time.perf_counter() - began)
    return times


class Sampler:
    """Samples the loops on entry, every INTERVAL_S inside, and on exit."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def reference_s(self):
        """Geometric mean over the loops of each loop's mean time."""
        means = [statistics.fmean(times) for times in zip(*self.samples)]
        return math.prod(means) ** (1.0 / len(means))


def at_reference(seconds, reference_s):
    """`seconds` measured while the reference time was `reference_s`, rescaled."""
    return seconds * NOMINAL_S / reference_s
