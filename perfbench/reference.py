"""Machine-speed reference that scales measured times to one nominal speed.

On a shared machine the speed of Python code drifts by a fifth or more
over minutes, alike for every piece of code.  Measured on a 2-vCPU
Intel Xeon VM with Python 3.11, 10 s medians of the corpus workload
spread by 0.15-0.22 (interquartile share) over a few minutes, but only
by 0.04-0.08 once divided by a fixed reference workload timed beside
them.  So every timed slice of the benchmark is followed by samples of the
reference below, which does not touch schemarith, and the slice is
reported as

    measured * NOMINAL_S / (median of the recent samples)

that is, in seconds of a machine that runs the reference in NOMINAL_S.
A change to schemarith moves a normalised time as it moves the raw one.
Each saved result records the median reference sample, so a raw time is
about the normalised one times reference_median_s / NOMINAL_S.
"""
from __future__ import annotations

import statistics
import time

# Nominal time of one reference sample, near its median on the machine above.
NOMINAL_S = 0.0080
REPEATS = 700
WINDOW = 5

_WORDS = tuple("Dan gave 3 nuts to Ruth and the basket held 12 apples now".split())


def _work():
    """Fixed pure-Python work: string, dict and list handling plus arithmetic."""
    total = 0
    for r in range(REPEATS):
        index = {}
        for i, word in enumerate(_WORDS):
            index.setdefault(word.lower(), []).append(i * r % 7)
        key = ",".join(sorted(index))
        total += len(key) + sum(len(v) for v in index.values())
        total += sum(i * i % 7 for i in range(40))
    return total


class Reference:
    """Reference samples taken between and during the timed slices of a run.

    A sample is the CPU time of one run of the reference work, so a
    sample taken while a child process shares the CPU still measures the
    CPU's speed, not the share it got.
    """

    def __init__(self):
        self.samples = []

    def mark(self, count=1):
        """Take `count` samples; return the scale for the slice just timed.

        A single 8 ms sample is itself noisy, so the scale uses the median
        of the last WINDOW samples, which span about a second of a run.
        """
        for _ in range(count):
            start = time.thread_time()
            _work()
            self.samples.append(time.thread_time() - start)
        return self.scale_since(len(self.samples) - WINDOW)

    def scale_since(self, first):
        """Scale from the median of the samples from index `first` on."""
        return NOMINAL_S / statistics.median(self.samples[max(first, 0):])
