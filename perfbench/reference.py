"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's host is shared: its speed changes by up to 1.5x in phases
of tens of seconds to minutes, and a run's median op time then depends on
how much of the run fell into a slow phase.  The worker times this kernel
around every op and scales the op's wall and CPU time by
REFERENCE_S / (kernel time), so that the end-to-end timings read as seconds
on a machine where the kernel takes REFERENCE_S.

The kernel never touches fbo_lab, so a change to the package cannot move
it.  It has the two characters the workloads have: a loop of FFTs and
pointwise updates on 512-point vectors (like the split-step loop of
simulate) and FFTs over an 800x512 complex block of 6.5 MB, larger than L2
(like the lifts of strichartz).
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel seconds at the speed the end-to-end timings are scaled to: about
#: the kernel's time in the fast phases of the 2-core Xeon VM it was sized on.
REFERENCE_S = 0.030

SMALL_STEPS = 500
LARGE_PASSES = 3


def kernel_s() -> float:
    """Wall seconds of one pass of the kernel; its inputs are fixed."""
    vec = np.exp(1j * np.arange(512) * 0.37)
    block = np.exp(1j * np.add.outer(np.arange(800) * 0.1, np.arange(512) * 0.01))
    # both parts use 512-point FFTs; plan them before the clock starts, so
    # that a process that has not run one yet times the same work
    np.fft.ifft(np.fft.fft(vec))
    t0 = time.perf_counter()
    x = vec
    for _ in range(SMALL_STEPS):
        y = np.fft.ifft(np.fft.fft(x) * 0.5)
        x = y * np.abs(y) ** 0.1 + vec
    for _ in range(LARGE_PASSES):
        np.abs(np.fft.fft(block, axis=1)) ** 2
    return time.perf_counter() - t0
