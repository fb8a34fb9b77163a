"""Host speed, sampled with a fixed reference kernel.

Other tenants of the benchmark host change its speed by up to 2x, for a
fraction of a second or for minutes, which no run length averages away.
Latencies are therefore reported at a fixed reference speed: scaled by
REF_NOMINAL_S over the time the reference kernel took around them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_STEPS = 6  # reference kernel size, about 1 ms
REF_NOMINAL_S = 1e-3  # latencies are reported as if the kernel took this long
SAMPLE_INTERVAL_S = 0.05  # speed samples cost about 2% of the run
SPEED_WINDOW_S = 0.25  # samples this close to a call set its speed


def reference_kernel() -> float:
    """A fixed piece of work with the solver's instruction mix: batched 2x2
    eigendecompositions and interpreter-bound arithmetic. It never touches
    the program, so its time follows only the host's speed."""
    angles = np.linspace(0.0, 3.0, 64)
    blocks = np.stack([np.array([[2.0, np.exp(1j * a)], [np.exp(-1j * a), 1.5]]) for a in angles])
    acc = 0.0
    for _ in range(REF_STEPS):
        lam, vecs = np.linalg.eigh(blocks)
        blocks = (vecs * np.maximum(lam, 0.1)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        blocks = blocks / float(np.trace(blocks, axis1=1, axis2=2).real.mean())
        for k in range(20):
            acc += k * 0.5
    return acc


class SpeedSampler:
    """Samples the host's speed while operations run, and scales latencies
    to the reference speed.

    While the sampler is active, a SIGALRM handler runs the reference kernel
    every SAMPLE_INTERVAL_S and records its thread CPU time, which a thread
    of the program holding the GIL cannot stretch. A call's scaled latency is
    its wall time minus the handler time inside it, times REF_NOMINAL_S over
    the mean kernel time within SPEED_WINDOW_S of the call.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall s, cpu s)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start, time.thread_time() - cpu))

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean kernel time of the samples taken
        between start and end."""
        near = [cpu for t, _, cpu in self.samples if start <= t < end]
        if not near:
            raise RuntimeError("no speed samples near a timed call")
        return REF_NOMINAL_S / statistics.mean(near)

    def scaled(self, start: float, end: float) -> float:
        """Seconds a call from start to end would take at reference speed."""
        handler = sum(wall for t, wall, _ in self.samples if start <= t < end)
        factor = self.factor(start - SPEED_WINDOW_S, end + SPEED_WINDOW_S)
        return (end - start - handler) * factor

