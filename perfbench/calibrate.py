"""Machine-speed calibration for a shared, noisy host.

On a 2-core Intel Xeon cloud host shared with other tenants, the speed of
the same Python code drifts by up to about 1.8x over seconds.
A fixed calibration kernel is timed next to every job; job times are then
scaled to the reference speed at which the kernel takes its reference time,
so two runs compare the program rather than the neighbours' load.  There
are two kernels: interpreter work for jobs that run Python loops, and numpy
array reshuffles for jobs whose time goes to large arrays, which slow down
differently.  Both are the benchmark's own code and never call qftcost.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from fractions import Fraction

#: Samples on each side of a job that set its speed factor.
WINDOW = 2


def interpreter_kernel() -> int:
    """Fixed interpreter work like the jobs' inner loops: tuple and list
    bookkeeping on register wires, exact Fraction sums and a JSON round trip."""
    total = Fraction(0)
    for d in range(1, 40):
        total += Fraction(40 - d, 1 << d)
    live = [None] * 32
    out = []
    for i in range(7500):
        a, b = i % 31, i % 31 + 1
        if live[a] == live[b] == i - 1:
            out.pop()
        live[a] = live[b] = i
        out.append((a, b))
    return total.denominator + len(json.loads(json.dumps(out[:200])))


@functools.cache
def _arrays():
    import numpy as np

    state = np.ones((2, 1 << 15), dtype=complex)
    return np, state, np.empty_like(state), np.eye(2, dtype=complex)


def array_kernel() -> None:
    """Fixed numpy work like a state-vector gate update on a 1 MB complex
    array: a 2x2 product and a strided copy, into buffers made once, so
    the kernel's time does not depend on the allocator's state."""
    np, state, product, gate = _arrays()
    for _ in range(6):
        np.matmul(gate, state, out=product)
        np.copyto(state.reshape(2, 64, 512), product.reshape(2, 512, 64).transpose(0, 2, 1))


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}
#: Seconds either kernel takes at the reference speed (about its time on an
#: idle 2-core Intel Xeon host); scaled times are seconds at that speed.
REFERENCE_S = 0.0015


def sample(kind: str = "interpreter") -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


def scale(raw: list[float], samples: list[float]) -> list[float]:
    """Scale job times to the reference speed.  samples[i] was taken just
    before job i and samples[i + 1] just after it; each job uses the median
    of the WINDOW samples on either side of it."""
    return [t * REFERENCE_S / statistics.median(samples[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(raw)]


def speed_factor(count: int = 5) -> float:
    """REFERENCE_S over the median interpreter-kernel time of count samples."""
    return REFERENCE_S / statistics.median(sample() for _ in range(count))
