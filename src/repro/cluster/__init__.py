"""Cluster runtime: cross-host data-plane lanes on worker daemons.

The scaling step past :class:`~repro.dataplane.engine.ProcessPoolEngine`:
the shard spec/state wire format is pure data, so proven-disjoint state
shards can run on *worker daemons* — subprocesses on this machine or
``python -m repro.cluster.worker`` daemons on other hosts — behind the
same engine interface as every other backend.  Importing this package
registers ``engine="cluster"``; the engine registry also knows the name
lazily, so ``CompilerOptions(engine="cluster")`` works without importing
anything.

Modules:

* :mod:`~repro.cluster.protocol` — the length-prefixed, versioned wire
  format and its error taxonomy;
* :mod:`~repro.cluster.worker` — the standalone daemon (spec caches +
  the compiled execution lane);
* :mod:`~repro.cluster.coordinator` — discovery, handshake, spec
  shipping, least-loaded dispatch, heartbeats, requeue-on-loss;
* :mod:`~repro.cluster.engine` — :class:`ClusterEngine`.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    Job,
    WorkerHandle,
    spawn_worker_process,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ClusterError,
    ProtocolError,
    TransportError,
)

__all__ = [
    "ClusterCoordinator", "ClusterEngine", "ClusterError", "Job",
    "PROTOCOL_VERSION", "ProtocolError", "TransportError", "WorkerHandle",
    "spawn_worker_process",
]
