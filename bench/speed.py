"""The machine's current speed, from a fixed loop timed next to each measurement.

On the 2-core machine this benchmark was built on, the same process ran up
to 2x slower, with nothing else running in the container.  The slow spells
come and go within a second, and a CPU-time clock slows down with them.  So
the benchmark times a fixed calibration loop in its own process right
before and right after each timed step, and scales the step's times by
``REFERENCE_S`` over the mean of those two calibrations: a time taken while
the machine is slow is shrunk by as much as the loop next to it was
stretched.  The end-to-end run reports the median of these scaled times.

The traced run times probes of a few milliseconds and reports their bests,
so it scales by the run's best calibration instead (``Speed.factor``).

The loop is benchmark code and never changes, so a change to evcalc moves
the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

#: Best time of calibrate() on the reference machine (2 cores, Python 3.11.7).
#: Scaled times are seconds at that speed.  Changing it rescales every result.
REFERENCE_S = 0.008
LOOP_ITERATIONS = 5_000
REFRESH_S = 1.0  # the traced run re-times the loop when its last timing is older than this
REPEATS = 3  # a calibration is the best of this many loops


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and 0.0 <= a <= b):
            raise ValueError(f"bad pair ({a!r}, {b!r})")
        object.__setattr__(self, "a", a)


def calibrate() -> float:
    """Seconds for a fixed loop of the kind of work evcalc does: frozen
    values with validation, floating point, formatting."""
    start = time.perf_counter()
    x = 0.0
    rows = []
    for i in range(LOOP_ITERATIONS):
        p = _Pair(i * 1e-5, i * 1e-5 + 0.5)
        x += math.exp(-p.a) * p.b
        rows.append(f"{p.a:.12g},{x:.12g}")
    return time.perf_counter() - start


class Speed:
    """Calibrations over a run, and the scale factors they give."""

    def __init__(self):
        self.calibrations: list[float] = []
        self._timed_at = -math.inf

    def _calibrate(self) -> float:
        self.calibrations.append(min(calibrate() for _ in range(REPEATS)))
        self._timed_at = time.perf_counter()
        return self.calibrations[-1]

    def bracketed(self, step):
        """Run ``step()`` between two calibrations.  Return its result and the
        factor that scales its times: REFERENCE_S over the calibrations' mean.
        Consecutive steps share the calibration between them."""
        before = self.calibrations[-1] if self.calibrations else self._calibrate()
        out = step()
        return out, 2 * REFERENCE_S / (before + self._calibrate())

    def calibrate_if_stale(self) -> None:
        if time.perf_counter() - self._timed_at > REFRESH_S:
            self._calibrate()

    def factor(self) -> float:
        """REFERENCE_S over the run's best calibration, the fastest the
        machine was; it goes with timings that are also bests."""
        return REFERENCE_S / min(self.calibrations)
