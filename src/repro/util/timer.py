"""Phase timing used by the compiler pipeline and the benchmark harness.

Since the telemetry layer landed, :class:`PhaseTimer` is a thin shim
over it: every ``phase()`` block also opens a ``compile.phase`` trace
span and feeds the ``snap_compile_phase_seconds`` histogram, so the
Table-6 rows the benchmarks print and the registry a scraper sees come
from the same clock reads.  The accumulation into ``durations`` is now
lock-guarded — the old bare read-modify-write lost increments when two
threads timed phases on a shared timer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import histogram
from repro.obs.tracing import TRACER

_PHASE_SECONDS = histogram(
    "snap_compile_phase_seconds", "Wall-clock time per compile phase"
)


class PhaseTimer:
    """Records wall-clock durations for named compiler phases.

    The paper's Table 4 names six phases P1..P6; the pipeline wraps each in
    ``timer.phase(name)`` and benchmarks read ``timer.durations`` to print
    Table 6-style rows.
    """

    def __init__(self):
        self.durations: dict[str, float] = {}
        self._lock = threading.Lock()

    @contextmanager
    def phase(self, name: str):
        with TRACER.span("compile.phase", phase=name) as span:
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                span.set_attr("seconds", elapsed)
                with self._lock:
                    self.durations[name] = (
                        self.durations.get(name, 0.0) + elapsed
                    )
                _PHASE_SECONDS.labels(phase=name).observe(elapsed)

    def total(self, names=None) -> float:
        """Sum of durations, optionally restricted to ``names``."""
        with self._lock:
            if names is None:
                return sum(self.durations.values())
            return sum(self.durations.get(name, 0.0) for name in names)

    def __repr__(self):
        with self._lock:
            rows = ", ".join(
                f"{k}={v:.3f}s" for k, v in sorted(self.durations.items())
            )
        return f"PhaseTimer({rows})"
