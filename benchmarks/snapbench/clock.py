"""Clocks of snapbench: host-speed calibration, op timing, spans.

This host is a shared microVM whose speed swings by a quarter or more
for seconds to minutes at a time, every operation with it (CPU time
follows wall time: the CPU runs slower, the process does not wait).  Raw
wall medians of back-to-back ten-run sets of one commit differed by up
to 40 % per (metric, workload).  So every timed interval is bracketed by
:func:`spin`, a fixed piece of interpreter work, and its wall time is
divided by the host's relative speed over that interval.  What comes out
is *reference-host seconds*: what the interval takes when the host runs
a pass of the calibration loop in :data:`REFERENCE_SPIN_S`.  The loop
runs no code of the program under test, so a slower program still reads
slower; raw wall times are kept beside the calibrated ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: Seconds one pass of :func:`spin`'s loop takes on the reference host —
#: this repository's 2-CPU container in its usual state.
REFERENCE_SPIN_S = 0.0080
#: Passes per probe: one 8 ms pass jitters by +-15 %, three average it.
SPIN_PASSES = 3
#: A probe this fresh (seconds) also serves the span that starts next:
#: sibling spans in a row share the probe between them.
PROBE_FRESH_S = 0.05


def spin() -> float:
    """Seconds per pass of the calibration loop, right now."""
    start = time.perf_counter()
    for _ in range(SPIN_PASSES):
        table: dict = {}
        for i in range(100_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
    return (time.perf_counter() - start) / SPIN_PASSES


def relative_speed(probes) -> float:
    """Host speed over the interval the ``probes`` (:func:`spin`
    results) were taken in; 1.0 is the reference host."""
    return REFERENCE_SPIN_S / statistics.fmean(probes)


class SpanLog:
    """In-memory spans ``(name, start, end, parent, workload, round)``.

    Counts taken at the same boundary ride on the span, as does the
    host's relative ``speed`` over it.  Kept in a list and written out
    once, when the benchmark ends.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.round = 0
        self.spans: list = []
        self._stack: list = []
        self._probe = (float("-inf"), 0.0)  # (taken at, seconds per pass)

    def _probe_now(self) -> float:
        taken_at, probe = self._probe
        if time.perf_counter() - taken_at > PROBE_FRESH_S:
            probe = spin()
            self._probe = (time.perf_counter(), probe)
        return probe

    @contextmanager
    def span(self, name: str, **counts):
        gc.collect()
        before = self._probe_now()
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "round": self.round,
            "counts": counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            record["speed"] = relative_speed((before, self._probe_now()))

    @staticmethod
    def seconds(span: dict) -> float:
        """The span's duration in reference-host seconds."""
        return (span["end"] - span["start"]) * span["speed"]

    def self_times(self, name: str) -> list:
        """Per span called ``name``: its duration minus the part of that
        interval its child spans cover."""
        covered: dict = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += self.seconds(span)
        return [
            self.seconds(span) - covered[span["id"]]
            for span in self.spans
            if span["name"] == name
        ]

    def median(self, name: str) -> float:
        return statistics.median(self.self_times(name))

    def count(self, name: str, key: str):
        """Median of a count recorded on the spans called ``name``."""
        return statistics.median(
            span["counts"][key] for span in self.spans if span["name"] == name
        )

    def by_round(self, name: str) -> dict:
        """round -> summed duration of the spans called ``name``."""
        totals: dict = defaultdict(float)
        for span in self.spans:
            if span["name"] == name:
                totals[span["round"]] += self.seconds(span)
        return totals


class OpClock:
    """Times each operation of one round; with a span log, as spans.

    ``times`` holds reference-host seconds per operation name, ``wall``
    what the clock said.
    """

    def __init__(self, log: SpanLog | None = None):
        self.log = log
        self.times: dict = defaultdict(list)
        self.wall: dict = defaultdict(list)
        self.completed = 0
        self._probe = None  # the probe that followed the previous op

    def __call__(self, name: str, fn, *args):
        if self.log is not None:
            with self.log.span(f"core.{name}"):
                result = fn(*args)
            span = self.log.spans[-1]
            wall, speed = span["end"] - span["start"], span["speed"]
        else:
            gc.collect()
            before = self._probe if self._probe is not None else spin()
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
            self._probe = spin()
            speed = relative_speed((before, self._probe))
        self.wall[name].append(wall)
        self.times[name].append(wall * speed)
        self.completed += 1
        return result
