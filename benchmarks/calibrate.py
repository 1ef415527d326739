"""Machine-speed sampling behind every time the benchmark reports.

On a shared machine the speed of one core drifts by up to 2x within tens of
seconds, because other tenants contend for it, while the ratio between two
pieces of work run side by side barely moves.  So while a timed section
runs, a fixed calibration chunk runs every `INTERVAL_S` from a SIGALRM
handler and its duration is recorded.  Times are then reported in
reference-speed seconds,

    work time * REFERENCE_S / (mean chunk time during the section),

the time the section takes on a machine where one chunk takes
`REFERENCE_S`.  The work time excludes the chunks themselves (`Clock.now`).
The chunk mixes what kdcollide spends its time on, Python calls and small
dense complex NumPy operations, and never calls kdcollide, so no change to
the library moves it.  The raw wall times are printed next to the results.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.002
_ITERATIONS = 60
_MIN_SAMPLES = 3

_X = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
_Y = np.array([[0.6, 0.05], [0.05, 0.4]], dtype=complex)


def _chunk() -> float:
    acc = 0.0
    for i in range(_ITERATIONS):
        joint = np.kron(_X, _Y)
        gram = joint @ joint.conj().T
        acc += float(np.linalg.eigvalsh(gram)[0])
        acc += float(np.einsum("ikjk->ij", joint.reshape(2, 2, 2, 2)).real[0, 0])
        record = {"step": i, "pair": (i, i + 1)}
        acc += record["pair"][1] * 1e-12
    return acc


class Clock:
    """Samples machine speed while active (use as a context manager).

    `now` is a monotonic work clock that stands still while a chunk runs;
    `factor` converts work time since its previous call into
    reference-speed time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._seen = 0
        self._previous = None

    def __enter__(self) -> "Clock":
        for _ in range(_MIN_SAMPLES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self) -> None:
        t0 = time.perf_counter()
        _chunk()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.probe_s += dt

    def _handler(self, signum, frame) -> None:
        self._probe()

    def sample(self, n: int = 10) -> float:
        """Run `n` chunks right now and return their mean time; for brackets
        around work that runs in another process."""
        for _ in range(n):
            self._probe()
        return statistics.fmean(self.samples[-n:])

    def now(self) -> float:
        """perf_counter minus the time spent in calibration chunks."""
        while True:
            probe_s = self.probe_s
            t = time.perf_counter()
            if probe_s == self.probe_s:  # no chunk ran in between
                return t - probe_s

    def factor(self) -> float:
        """Reference-speed factor of the span since the previous call; spans
        too short for enough samples of their own use the latest ones."""
        new = self.samples[self._seen:]
        self._seen += len(new)
        recent = new if len(new) >= _MIN_SAMPLES else self.samples[-_MIN_SAMPLES:]
        return REFERENCE_S / statistics.fmean(recent)
