"""The reference computation that op times are read against.

It does not call csres.  It runs the same kinds of work as the program's
hot loops, on fixed inputs: small complex-array updates in a Python loop
(a batch of four-qubit states through rotation layers, then sign-pattern
brackets, as in the ansatz and expectation loops), an elementwise complex
``exp`` over a few thousand points (basis functions and the rotated
potential on the quadrature grid) and a small dense ``eig`` (the spectra).

The vCPU switches between a fast and a slow speed, about a factor of two
apart, within seconds, so a reference timed only before and after a
10-second op reads whichever speed held at those instants.  The
:class:`Sampler` therefore also times one pass every ``INTERVAL`` seconds
while the op runs, from a ``SIGALRM`` handler on the op's own thread.
The op's time excludes the passes, and its speed is read from the
harmonic mean of the pass times: passes taken at even steps of wall time
weight each speed by the time spent at it, as the op's own wall time does.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
import scipy.linalg as sla

INTERVAL = 0.05  # seconds between passes; one pass takes about 1.4 ms
EDGE_PASSES = 5  # passes right before and right after the op


class Reference:
    """One fixed pass of reference work, :meth:`work`."""

    def __init__(self):
        rng = np.random.default_rng(20250415)
        ks = np.arange(16)
        self.states = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        self.flips = [ks ^ (1 << q) for q in range(4)]
        self.angles = rng.uniform(-1.0, 1.0, (6, 4, 32, 1))
        self.perms = [ks ^ x for x in range(1, 9)]
        self.signs = np.array([np.where(np.bitwise_count(ks & z) & 1, -1.0, 1.0)
                               for z in range(8)])
        self.r2 = (np.linspace(0.01, 60.0, 4000) * np.exp(0.3j)) ** 2
        self.widths = 1.0 / np.array([2.0, 9.0]) ** 2
        self.matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))

    def work(self):
        # a batch of 32 four-qubit states through six rotation layers
        psi = self.states
        for layer in self.angles:
            for flip, a in zip(self.flips, layer):
                psi = np.cos(a) * psi - 1j * np.sin(a) * psi[:, flip]
        # sign-pattern brackets over the batch, one per flip mask
        cols = psi.T
        total = sum((self.signs @ (np.conj(cols) * cols[p])).sum() for p in self.perms)
        for a in self.widths:
            total += np.exp(-a * self.r2).sum()
        return total + sla.eig(self.matrix, right=False).sum()


class Sampler:
    """Times reference passes around and during one op.

    Use as a context manager around the op.  Afterwards ``passes`` holds
    the pass times and ``spent`` the wall time the passes took inside the
    block, which the op's time leaves out.
    """

    def __init__(self, reference):
        self.reference = reference
        self.passes = []
        self.spent = 0.0
        self._previous = None

    def _pass(self):
        t0 = perf_counter()
        self.reference.work()
        self.passes.append(perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._pass()
        self.spent += perf_counter() - t0

    def __enter__(self):
        for _ in range(EDGE_PASSES):
            self._pass()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PASSES):
            self._pass()
        return False

    def seconds(self):
        """Reference time: harmonic mean of the pass times."""
        return len(self.passes) / sum(1.0 / t for t in self.passes)
