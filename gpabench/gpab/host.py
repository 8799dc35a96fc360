"""Host fingerprint and host-speed normalization.

A core of a shared host changes speed from one tenth of a second to the
next: when the other hardware thread of the core is busy, a pure-Python
loop takes up to twice as long.  Two probes follow that drift, and every
gated time is scaled by what they saw while it was measured.

* Request times.  While an inline pass measures, an interval timer
  interrupts the benchmark process every ``SAMPLE_EVERY_S`` and times a
  fixed pure-Python calibration loop there and then, on the core the
  program runs on.  A request's time is scaled by ``REFERENCE_SAMPLE_S``
  over the mean of the samples taken during it and the one on either
  side, and the samples' own time is taken out of it.  The program of
  the service workloads runs in the daemon's workers, out of the timer's
  reach: the closed loop puts the workers on a core of their own and
  samples that core and the client's before each request, while the
  workers are idle (``gpab/service.py``).  The open loop samples between
  its steps and scales by the median sample.
* Start-up times.  A start runs in a process of its own, which the timer
  cannot reach, so each one is bracketed by two runs of a fixed reference
  process (interpreter start, the standard-library and numpy imports the
  program needs, a short loop) and scaled by ``REFERENCE_PROCESS_S`` over
  their mean.

Scaled times are in *reference-host seconds*: what the work would have
taken on a host where one sample takes ``REFERENCE_SAMPLE_S`` and one
reference process ``REFERENCE_PROCESS_S``.  The raw times are printed
beside them.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, List, Tuple

#: Iterations of one calibration sample: an untimed warm-up, then the
#: timed part.  The warm-up refills the caches the program left full of
#: its own data (a shorter one leaves the timed part about 30% slower
#: right after heavy program work than between samples alone).
WARM_ITERATIONS = 1_000
SAMPLE_ITERATIONS = 1_000
#: The timed part of one sample on the host that defined the benchmark
#: (2-core x86 VM, Python 3.11, the core's other thread idle); the unit of
#: every scaled request time.
REFERENCE_SAMPLE_S = 0.00035
#: The sampling timer's period.
SAMPLE_EVERY_S = 0.025

#: The reference process: imports much like the program's, then a loop.
REFERENCE_PROCESS = (
    "import ast, concurrent.futures, dataclasses, decimal, email.parser, "
    "http.server, inspect, json, logging, multiprocessing, numpy, pickle, "
    "sqlite3, ssl, typing, urllib.request, uuid, zipfile\n"
    "table = {}\n"
    "for value in range(60000):\n"
    "    table.setdefault((value & 1023, value & 7), []).append(value)\n"
    "print('ready', flush=True)\n"
)
#: Wall time of the reference process on the host that defined the
#: benchmark; the unit of every scaled start-up time.
REFERENCE_PROCESS_S = 0.25


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def calibration_loop(iterations: int = SAMPLE_ITERATIONS) -> int:
    """Interpreter work shaped like the program's: small tuples and lists
    allocated, dicts and sets filled and probed, integers hashed."""
    table = {}
    seen = set()
    total = 0
    for value in range(iterations):
        key = (value & 1023, value & 7)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [value]
        else:
            entry.append(value)
        if value & 3 == 0:
            seen.add(value >> 2)
        total += len(entry) ^ (value in seen)
    return total


class HostSpeed:
    """Calibration samples of one run.

    ``with speed:`` samples on a timer for as long as the block runs;
    :meth:`sample` takes one sample at once.
    """

    def __init__(self):
        #: ``perf_counter`` at the end of each sample.
        self.ends: List[float] = []
        #: The timed part of each sample.
        self.samples: List[float] = []
        #: Time spent sampling before the end of sample ``i``, at ``i + 1``.
        self._spent: List[float] = [0.0]
        self._previous = None
        self._sampling = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        # A timer tick that lands inside a sample (the process was off the
        # core for a whole period) is dropped, so samples stay in time order.
        if self._sampling:
            return
        # With the collector off, a sample measures the core, not the
        # garbage the program under test left behind.
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            calibration_loop(WARM_ITERATIONS)
            started = time.perf_counter()
            calibration_loop(SAMPLE_ITERATIONS)
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.ends.append(ended)
        self.samples.append(ended - started)
        self._spent.append(self._spent[-1] + ended - began)

    def net(self, start: float, end: float) -> float:
        """``end - start`` without the samples taken in between."""
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_left(self.ends, end)
        return end - start - (self._spent[last] - self._spent[first])

    def factor_around(self, start: float, end: float) -> float:
        """Reference-host seconds per raw second for work done between two
        ``perf_counter`` readings: from the samples taken in between and
        the one on either side."""
        if not self.samples:
            self.sample()
        first = max(0, bisect.bisect_left(self.ends, start) - 1)
        last = bisect.bisect_left(self.ends, end) + 1
        around = self.samples[first:last]
        return REFERENCE_SAMPLE_S * len(around) / sum(around)

    @property
    def median_sample_s(self) -> float:
        if not self.samples:
            self.sample()
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Reference-host seconds per raw second over the whole run."""
        return REFERENCE_SAMPLE_S / self.median_sample_s


def reference_process_s() -> float:
    """Wall time of one run of the reference process, until it says ready."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", REFERENCE_PROCESS],
                             stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"reference process failed ({child.returncode})")
    return elapsed


def scaled_starts(start: Callable[[], float], count: int) -> Tuple[List[float], List[float]]:
    """Time ``count`` calls of ``start`` (each returns its own seconds),
    each between two reference processes; returns the scaled and the raw
    times."""
    references = [reference_process_s()]
    scaled, raw = [], []
    for _ in range(count):
        raw.append(start())
        references.append(reference_process_s())
        scaled.append(raw[-1] * REFERENCE_PROCESS_S * 2 / (references[-2] + references[-1]))
    return scaled, raw
