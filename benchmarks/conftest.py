"""Benchmark configuration for the paper-evaluation scripts.

Compilations are long-running, deterministic computations; the scripts
measure one round each (pytest-benchmark pedantic mode) and print the
paper-style tables alongside the timing stats.  They import
``workloads`` from this directory, which the line below puts on the
path.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
