"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts in phases
of seconds to tens of minutes: on the 2-core host it was sized on, modexp21
jobs took a median 5.96 s at one time and 3.60 s an hour later.  Such a phase
can cover a whole run, or a whole set of runs, so no run length averages it
out.

A run therefore also times a fixed pure-Python kernel that uses nothing from
``rgc`` (seeded random ints, tuple-keyed dict inserts, BLAKE2b on short byte
strings, int/bytes conversions), between jobs, so that it takes ``SHARE`` of
the run's wall time.  The end-to-end times are reported at a reference host
speed: multiplied by ``REFERENCE_S`` over the kernel's mean time in the run.
A change to ``rgc`` moves the jobs and not the kernel, so it shows in full;
a slow host phase moves both.  In the two phases above the kernel took
0.058 s and 0.030 s.  The raw times and the factor are printed in the run's
details line.

The kernel's single timings fall in two speed modes like the jobs do, so
the factor uses their mean, not their median.  The kernel runs with the
cyclic GC off, so the size of the client's own heap does not change its
time.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time

REFERENCE_S = 0.040      # inside the range of kernel means seen on the sizing host
SHARE = 0.05             # share of the run's wall time spent in the kernel
ITERATIONS = 20000


def kernel() -> int:
    rng = random.Random(0x5EED)
    table = {}
    acc = 0
    for i in range(ITERATIONS):
        a, b = rng.getrandbits(56), rng.getrandbits(56)
        digest = hashlib.blake2b(a.to_bytes(7, "big") + b.to_bytes(7, "big"),
                                 digest_size=16).digest()
        table[(a, b, i & 7)] = digest
        acc ^= int.from_bytes(digest, "big")
    for key, digest in table.items():
        if key[2] == 3:
            acc ^= int.from_bytes(digest, "big") >> 3
    return acc


class Calibrator:
    def __init__(self, initial: int = 3):
        self.samples: list[float] = []
        self.spent = 0.0
        self.start = time.monotonic()
        for _ in range(initial):
            self.sample()

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def keep_up(self) -> None:
        """Run the kernel until it has taken SHARE of the time since start."""
        while self.spent < SHARE * (time.monotonic() - self.start):
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)

    def summary(self) -> dict:
        return {"samples": len(self.samples), "mean_s": statistics.fmean(self.samples),
                "reference_s": REFERENCE_S, "factor": self.factor()}
