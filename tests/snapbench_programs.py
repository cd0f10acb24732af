"""The four snapbench workloads for tests: topology, program and edits,
built by the benchmark's own ``scenarios.build`` at full size but with an
empty trace (generating the traces is most of the benchmark's set-up).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks" / "snapbench"))
import scenarios  # noqa: E402
import traffic  # noqa: E402
from run import store_digest  # noqa: E402,F401  (the digest a round is judged by)

WORKLOADS = tuple(scenarios.SIZES)


def _no_traffic(subnets, count, seed):
    return traffic.Traffic((), {})


@lru_cache(maxsize=None)
def workload(name: str):
    """``scenarios.build(name)`` at full size, traceless; built once."""
    saved = traffic.mixed, traffic.background_only
    traffic.mixed = traffic.background_only = _no_traffic
    try:
        return scenarios.build(name, seed=0)
    finally:
        traffic.mixed, traffic.background_only = saved
