"""Host-speed probe: scales wall seconds to a fixed reference speed.

The benchmark runs on a few cores of a shared host, whose speed moves
between full and about half within seconds as other tenants come and go.
CPU time moves with wall time, so it does not help. While an op runs, ``SpeedProbe`` wakes every
``INTERVAL_S`` wall seconds on ``SIGALRM`` and times a small fixed piece of
work made of the same kind of operations as the program's hot paths: a
boolean 8-neighbour dilation (labeling) and a 3x3 float stencil with a small
logistic gradient step (features and SGD). The work runs once untimed, so
its data is in cache, then once timed.

Samples are taken at even steps of wall time, so the mean of ``1 / d`` over
the samples inside an op is the host's mean speed over that op, in probe
runs per second. Net op seconds times that speed is the op's cost in probe
runs, which does not depend on how fast the host ran; times
``NOMINAL_PROBE_S`` it reads as seconds at a fixed reference speed. The
probe's own code never changes with the program's, so a slower program
shows as a larger scaled time.

The handler's own time (both runs and the bookkeeping) is recorded so it
can be taken out of the op's wall seconds.
"""

import signal
import time

import numpy as np

# Median duration of one timed probe run inside the ops, on a shared
# 2-vCPU x86-64 host with Python 3.11 and numpy 2.4. Any fixed value would
# do: it only sets the scale, here so that scaled seconds read close to
# wall seconds on that host. Changing it rescales every scaled figure.
NOMINAL_PROBE_S = 1.7e-4

INTERVAL_S = 0.01


class SpeedProbe:
    """Times a fixed piece of work on every ``SIGALRM`` tick."""

    def __init__(self):
        # (handler start, handler end, timed probe seconds), one a tick.
        self.samples = []
        rng = np.random.default_rng(0)
        self._mask = rng.random((24, 24)) < 0.3
        self._img = rng.random((24, 24))
        self._x = rng.standard_normal((576, 8))
        self._w = rng.standard_normal(8)

    def _work(self):
        m = self._mask
        for _ in range(2):
            out = m.copy()
            out[1:, :] |= m[:-1, :]
            out[:-1, :] |= m[1:, :]
            out[:, 1:] |= m[:, :-1]
            out[:, :-1] |= m[:, 1:]
            out[1:, 1:] |= m[:-1, :-1]
            out[:-1, :-1] |= m[1:, 1:]
            m = out & self._mask
        padded = np.pad(self._img, 1, mode="edge")
        s1 = np.zeros((24, 24))
        s2 = np.zeros((24, 24))
        for dr in range(3):
            for dc in range(3):
                v = padded[dr:dr + 24, dc:dc + 24]
                s1 += v
                s2 += v * v
        p = 1.0 / (1.0 + np.exp(-(self._x @ self._w)))
        return self._x.T @ (p - 0.5)

    def _tick(self, signum, frame):
        begin = time.perf_counter()
        self._work()
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.samples.append((begin, time.perf_counter(), end - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def summarize(samples, start, end):
    """(ticks, handler seconds, mean speed) of the samples in [start, end].

    Mean speed is the mean of ``1 / d`` in probe runs per second; it is
    None when no tick fell inside the interval.
    """
    inside = [s for s in samples if start <= s[0] and s[1] <= end]
    if not inside:
        return 0, 0.0, None
    handler_s = sum(s[1] - s[0] for s in inside)
    speed = sum(1.0 / s[2] for s in inside) / len(inside)
    return len(inside), handler_s, speed


def scaled_seconds(seconds, handler_s, speed):
    """Net wall seconds scaled to the reference probe speed."""
    return (seconds - handler_s) * speed * NOMINAL_PROBE_S
