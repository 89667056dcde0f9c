"""Rescale measured times to the speed of a fixed reference kernel.

The benchmark was written on a 2-vCPU VM that shares its host.  There
the same work runs 20-60% slower for stretches of tens of seconds, and
process CPU time slows with it, so a median over the passes of one run
does not remove the drift.  Each timed stretch of work is therefore cut
into segments of about a second, and each segment is rescaled by the
time of this kernel measured right before and right after it:

    ref_s = work_s * CAL_REF_S / mean(kernel_before_s, kernel_after_s)

``ref_s`` is the time the work would have taken at the speed the
machine had when ``CAL_REF_S`` was recorded.  The kernel uses only the
interpreter, numpy and scipy, never the program, so a change to the
program cannot change it.  It mixes the kinds of work the pipeline does:
Python callbacks into scipy quadrature, small numpy calls from a Python
loop and in-place sorts of an array that fits in cache.  It allocates
no large arrays: fresh large allocations would make its time depend on
the state of the process's allocator, which the program changes.

The raw work time is always kept beside the rescaled one.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import scipy.integrate

# median time of one kernel() on the reference VM: 1133 kernels in a
# minute on one pinned vCPU (Intel Xeon at 2.1 GHz, Python 3.11,
# numpy 2.4, scipy 1.17).  It only scales the results: another value
# changes every rescaled time by one common factor.
CAL_REF_S = 0.058
SEGMENT_S = 1.0

_DATA = np.random.default_rng(0).random(100_000)
_BUF = np.empty_like(_DATA)
_SMALL = np.linspace(0.0, 1.0, 50)


def clock():
    return time.perf_counter()


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one CPU.

    The kernel and the work it rescales then share a CPU, also when the
    work runs in a child process.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def kernel():
    """About a fifth quadrature, two fifths small numpy calls, two fifths sorts.

    These shares tracked the slow stretches of both an index-heavy and an
    empirical-heavy workload best: small numpy calls from a Python loop
    follow interpreter-bound work, in-place sorts follow array work.
    """
    total = 0.0
    for k in range(1, 391):
        total += scipy.integrate.quad(lambda u: u ** (k / 7.0) * np.exp(-u), 0.0, 1.0)[0]
    for i in range(4400):
        total += float(np.exp(-_SMALL * (i % 5)).sum())
    for k in range(30):
        np.add(_DATA, k, out=_BUF)
        _BUF.sort()
        total += float(_BUF[k])
    return total


def measure():
    """Seconds one kernel() takes now."""
    t0 = clock()
    kernel()
    return clock() - t0


def rescale(work_s, before_s, after_s):
    return work_s * CAL_REF_S * 2.0 / (before_s + after_s)


class Segments:
    """Raw and rescaled time of the work between start() and stop().

    cut() closes a segment: it measures the kernel and rescales the
    work done since the last cut.  Kernel time is never counted as
    work.  With the timer on, a SIGALRM handler cuts every SEGMENT_S
    seconds, also inside a long call into the program; without it the
    caller cuts between its own steps (as for work done by a child
    process, which the kernel must not run beside).
    """

    def __init__(self, timer):
        self.timer = timer
        self.work_s = 0.0
        self.ref_s = 0.0
        self.kernel_s = []
        self.running = False

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def _on_alarm(self, signum, frame):
        if self.running:
            self.cut()
            self._arm()

    def start(self):
        self.kernel_s.append(measure())
        self.mark = clock()
        self.running = True
        if self.timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._arm()

    def cut(self):
        work = clock() - self.mark
        after = measure()
        self.work_s += work
        self.ref_s += rescale(work, self.kernel_s[-1], after)
        self.kernel_s.append(after)
        self.mark = clock()

    def stop(self):
        self.running = False
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.cut()
