"""Host-speed adjustment of the benchmark's timings.

The benchmark runs on shared machines whose speed wanders: on a shared
2-vCPU virtual machine, one pass of a workload took anywhere from 1.0x to
1.7x its fastest time, in phases of seconds to minutes, and that moved the
run-level timings by 20 to 27% between runs.  No amount of repetition inside
a 40 s run averages out a phase that lasts a minute.

So every pass also gauges the host: it times a fixed :func:`probe` (about
0.15 ms of interpreted loops and small float32 matrix products; nothing from
``src/``, so a change to the program cannot move it) between chunks of its
measured phase and in bursts around its set-up.  A timing ``t`` of the pass
is reported as the time it would have taken on a host on which the probe
takes :data:`REFERENCE_S`::

    reported = t * (REFERENCE_S / median probe time) ** SENSITIVITY

:data:`SENSITIVITY` is the measured elasticity of the workloads' timings
with respect to the probe's: within runs, across passes that fell into
different host phases, the log-log slope of a timing on the probe was 0.3
(set-up) to 0.76 (batched routing call).  The probe time is excluded from
every measured time, and each pass's factors are printed, so the raw
timings can be recovered.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time that adjusted timings refer to: about the probe's time in a
#: fast phase of the machine the README's figures come from.
REFERENCE_S = 150e-6
#: How strongly the workloads' timings follow the probe's (see above).
SENSITIVITY = 0.6
#: Probes taken right before and right after a set-up.
SETUP_PROBES = 15


class _Item:
    __slots__ = ("key", "score")

    def __init__(self, key: int, score: float) -> None:
        self.key = key
        self.score = score


_VECTORS = np.random.default_rng(7).standard_normal((128, 32)).astype(
    np.float32)


def probe() -> float:
    """Time one fixed unit of host work, in seconds."""
    start = time.perf_counter()
    table = {}
    for i in range(300):
        table[i & 127] = _Item(i, i * 0.5)
    total = 0.0
    for item in table.values():
        total += item.score
    query = _VECTORS[:4]
    for _ in range(5):
        scores = query @ _VECTORS.T
        total += float(scores[0, np.argmax(scores[0])])
    return time.perf_counter() - start


class Gauge:
    """Probe samples of one phase of a pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        self.samples.extend(probe() for _ in range(n))

    def factor(self) -> float:
        """Multiply a timing of this phase by this to adjust it."""
        return (REFERENCE_S / statistics.median(self.samples)) ** SENSITIVITY
