"""Sampling the machine's speed during ops, to factor it out of their CPU times.

On a shared virtual machine the same op can take up to 1.8 times the CPU
time when a neighbour runs on the sibling hardware thread, and that state
changes within a second. SpeedSampler times a short fixed snippet from a
SIGPROF handler every INTERVAL_S of CPU time, so the samples taken during
an op show how fast the machine ran while the op ran. An op's normalized
time is its CPU time (without the snippets') times REFERENCE_S over the
mean snippet time during it: its CPU time at the speed at which the
snippet takes REFERENCE_S.

Each sample runs the snippet once untimed and times a second run. The
untimed run brings the snippet's code and data back into the caches, so
the timed run does not depend on what the op left there: an op with a
large working set would otherwise slow its own samples, and so lower its
own normalized time. `python3 bench/speedcheck.py` checks this.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL_S = 0.025
# A fixed scale: the snippet's time when run back to back on an idle core of
# the machine the benchmark was defined on. Only ratios of normalized times
# between runs and commits carry meaning.
REFERENCE_S = 2.0e-4
MIN_SAMPLES = 3


_VECTOR = np.linspace(0.0, 1.0, 16)


def snippet() -> float:
    """Interpreter loops and small numpy calls, the mix most ops spend their time on.

    It allocates no object the garbage collector tracks, so sampling does
    not move collections, and with them peak memory, inside an op.
    """
    acc = 0.0
    for i in range(1000):
        acc += (i & 63) * 0.5
    for _ in range(70):
        acc += float((_VECTOR * 2.0).max())
    return acc


@dataclass
class SpeedSampler:
    samples: list[float] = field(default_factory=list)
    snippet_cpu: float = 0.0   # CPU time spent in snippets so far, warm-up runs included
    _previous: object = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.thread_time()
        snippet()
        warm = time.thread_time()
        snippet()
        end = time.thread_time()
        self.samples.append(end - warm)
        self.snippet_cpu += end - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def cpu(self) -> float:
        """Main-thread CPU time without the snippets'.

        Retries if a sample lands between its two reads, so that the value
        never counts part of a sample.
        """
        while True:
            spent = self.snippet_cpu
            now = time.thread_time()
            if self.snippet_cpu == spent:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """REFERENCE_S over the mean snippet time since `mark`.

        An op too short to be sampled MIN_SAMPLES times is topped up with
        samples taken right after it; they are taken the same way.
        """
        while len(self.samples) - mark < MIN_SAMPLES:
            self._sample()
        return REFERENCE_S / statistics.fmean(self.samples[mark:])

    def factor(self) -> float:
        """REFERENCE_S over the mean of every sample taken."""
        return self.factor_since(0)
