"""Host-speed reference: a fixed kernel timed beside and during every op.

On a shared host the speed of a vCPU changes from second to second and from
minute to minute, because other tenants contend for the same cores, and a
run's op times move with it by up to about 2x.  To tell the program's speed
from the host's, the runner times a fixed kernel in a block right before and
right after each op, and once every ``INTERVAL_S`` while the op runs, from a
timer signal.  The time those samples take is taken off the op's time.  The
op's time is then scaled by how fast the kernel ran around and during it::

    ref_s = wall_s * KERNEL_REF_S / (mean kernel time over those runs)

``ref_s`` is the op's time on a host that runs the kernel in
``KERNEL_REF_S``: about wall seconds on the idle 2-vCPU Intel Xeon VM the
benchmark was written on.  The kernel is made of what a solve spends its
time on, numpy calls on arrays of a few hundred to a few thousand values.
A plain Python loop in the kernel tracked the ops less well: in busy phases
of the host it slowed more than they did.  The kernel never calls
``swarmlq``, so a change to the program cannot move it.
"""

import signal
import statistics
import time

import numpy as np

KERNEL_REF_S = 0.0009
BLOCK_RUNS = 8  # kernel runs in the block between two ops
INTERVAL_S = 0.03  # wall time between two kernel runs during an op

_rng = np.random.default_rng(0)
_X = np.sort(_rng.random(4000))
_Q = _rng.random(500)


def kernel():
    s = 0.0
    for _ in range(8):
        c = np.cumsum(_X)
        s += int(np.searchsorted(c, _Q * c[-1])[0])
        s += float(np.interp(_Q, _X, c).sum())
    return s


def _timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def block():
    """Wall time of each of ``BLOCK_RUNS`` kernel runs."""
    return [_timed_kernel() for _ in range(BLOCK_RUNS)]


class Sampler:
    """Times one kernel run every ``INTERVAL_S`` of wall time inside a ``with`` block.

    ``samples`` holds the kernel times; ``spent`` is the wall time they took,
    which the caller takes off the time of what the block ran.  The timer
    signal is handled between bytecodes of the main thread, so a sample
    never interrupts a call into native code.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_timed_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def ref_seconds(op_times, blocks, inside):
    """Each op's time in reference seconds.

    ``blocks[i]`` and ``blocks[i + 1]`` are the kernel times of the blocks
    right before and right after op ``i``, and ``inside[i]`` those sampled
    while it ran.
    """
    if len(blocks) != len(op_times) + 1 or len(inside) != len(op_times):
        raise ValueError("need one block between each two ops and one sample list per op")
    return [t * KERNEL_REF_S / statistics.fmean(blocks[i] + inside[i] + blocks[i + 1])
            for i, t in enumerate(op_times)]
