"""Cluster execution engines: disjoint-state shards on worker daemons.

:class:`ClusterEngine` is the cross-host member of the data-plane engine
family (``engine="cluster"``): the same proven-disjoint shard plan the
thread and process engines execute, but each shard's batch travels over
TCP to a :mod:`repro.cluster.worker` daemon — a local subprocess or a
daemon on another machine — and the results merge back in deterministic
global arrival order, regardless of which worker answered first.  What a
run ships is minimal by construction:

* the *program* spec (lowered switch programs) moves once per worker per
  policy — a TE ``rewire`` keeps the program token, so rewiring a warm
  cluster ships **zero** program bytes;
* the *network* spec (routing tables, port map, placement) moves once
  per worker per rewire;
* each job carries only the shard's batch plus the
  footprint-restricted state slice its packets can actually touch
  (:func:`repro.dataplane.engine.batch_footprint`).

The engine honors the PR 4 lane-failure contract end to end: a daemon
that dies mid-run has its shard requeued onto a surviving worker
(byte-identical results — state ships per run, so a re-run has no
leftover effects), and only when no capacity remains do the completed
lanes merge and a named :class:`~repro.lang.errors.DataPlaneError`
surface.  After a total-loss failure the coordinator is discarded so the
next run starts a fresh set of daemons — mirroring the process engine's
``BrokenProcessPool`` recovery.
"""

from __future__ import annotations

import pickle

from repro.cluster import protocol as wire
from repro.cluster.coordinator import ClusterCoordinator, Job
from repro.cluster.protocol import ClusterError
from repro.dataplane.engine import (
    ShardedEngine,
    _merge_lane_outcomes,
    _raise_lane_failure,
    _split_batches,
    batch_footprint,
    plan_for,
    refresh_exec_keys,
    register_engine,
)
from repro.dataplane.network import (
    Network,
    exec_network_spec,
    exec_program_spec,
)
from repro.obs import postcards
from repro.obs.runstats import publish_run
from repro.obs.tracing import TRACER


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class ClusterEngine:
    """Per-shard parallel execution on socket-connected worker daemons.

    ``workers`` local daemons are spawned lazily on the first run that
    has more than one shard (one shard gains nothing from the wire — it
    runs inline, exactly like the process engine's fallback), and/or
    pre-started daemons are attached via ``addresses``
    (``["host:port", ...]``).  The daemon set survives across runs and
    TE rewires; :meth:`restart` (the controller calls it on policy
    rebuilds) and :meth:`close` tear it down — spawned daemons are
    terminated and reaped, attached daemons are merely disconnected.

    :attr:`last_run_stats` describes the previous run: live worker
    count, lanes, and the bytes that actually moved (program / network
    spec bytes, per-job payload bytes) — the benchmark records these.
    """

    name = "cluster"

    def __init__(self, workers: int = 2, addresses=()):
        self.workers = workers
        self.addresses = tuple(addresses)
        self._coordinator: ClusterCoordinator | None = None
        self._program_cache: tuple | None = None  # (program_key, bytes)
        self._network_cache: tuple | None = None  # (network_key, bytes)
        self.last_run_stats: dict = {}

    # -- execution ---------------------------------------------------------

    def run(self, network: Network, arrivals) -> list:
        arrivals = list(arrivals)
        with TRACER.span(
            "engine.run", engine=self.name, packets=len(arrivals)
        ) as run_span:
            return self._run(network, arrivals, run_span)

    def _run(self, network: Network, arrivals: list, run_span) -> list:
        plan = plan_for(network)
        batches = _split_batches(plan, arrivals)
        if len(batches) <= 1:
            # Zero or one lane: the wire buys no parallelism — run
            # inline with identical semantics, spawn nothing.
            self.last_run_stats = {
                "workers": 0, "lanes": len(batches), "program_bytes": 0,
                "network_bytes": 0, "payload_bytes": 0, "requeues": 0,
            }
            return ShardedEngine(max_workers=1).run(network, arrivals)
        refresh_exec_keys(network)
        program_key = network._exec_program_key
        network_key = network._exec_network_key
        program_bytes = self._spec_bytes(
            "_program_cache", program_key, lambda: exec_program_spec(network)
        )
        network_bytes = self._spec_bytes(
            "_network_cache", network_key, lambda: exec_network_spec(network)
        )
        coordinator = self._ensure_coordinator()
        coordinator.heartbeat()
        stats_before = dict(coordinator.stats)

        def ensure(handle, force: bool = False) -> None:
            """Ship the spec halves this worker is missing."""
            if force:
                handle.programs.discard(program_key)
                handle.networks.discard(network_key)
            if network_key in handle.networks:
                return
            if program_key not in handle.programs:
                self._load_program(
                    coordinator, handle, program_key, program_bytes
                )
            # Spec shipping is bounded like job dispatch: a wedged host
            # must surface as worker loss, never block the run.
            reply_type, payload = handle.request(wire.LOAD_NETWORK, {
                "key": network_key,
                "program_key": program_key,
                "blob": network_bytes,
            }, timeout=coordinator.run_timeout)
            if reply_type == wire.ERROR and payload.get("missing") == "program":
                # The worker evicted the program spec after we shipped
                # it: re-ship both halves.
                handle.programs.discard(program_key)
                self._load_program(
                    coordinator, handle, program_key, program_bytes
                )
                reply_type, payload = handle.request(wire.LOAD_NETWORK, {
                    "key": network_key,
                    "program_key": program_key,
                    "blob": network_bytes,
                }, timeout=coordinator.run_timeout)
            if reply_type != wire.OK:
                raise ClusterError(
                    f"worker {handle.address} rejected the network spec: "
                    f"{(payload or {}).get('message', reply_type)}"
                )
            handle.networks.add(network_key)
            coordinator.add_stat("network_bytes", len(network_bytes))

        run_span.set_attr("lanes", len(batches))
        sampler = postcards.active_sampler()
        telemetry = None
        if TRACER.enabled or sampler is not None:
            # v3 wire field: the daemon parents its shard span under this
            # context and ships its spans/postcards back in the RESULT.
            telemetry = {
                "trace": run_span.context(),
                "postcard_every": sampler.every if sampler else 0,
            }
        jobs = []
        for shard_index, batch in batches:
            variables = batch_footprint(plan, batch)
            payload = {
                "network_key": network_key,
                "variables": tuple(sorted(variables)),
                "state": network.extract_shard_state(variables),
                "batch": batch,
                "telemetry": telemetry,
            }
            jobs.append(Job(shard_index, wire.RUN_SHARD, payload))
        results, errors = coordinator.run_jobs(jobs, ensure=ensure)

        outcomes = []
        for shard_index in sorted(results):
            payload = results[shard_index]
            network.merge_shard_state(payload["state"])
            if telemetry is not None:
                TRACER.adopt(payload.get("spans"))
                postcards.adopt(payload.get("postcards"))
            outcomes.append((payload["records"], payload["links"]))
        merged = _merge_lane_outcomes(
            network, outcomes, len(arrivals), complete=not errors
        )
        delta = {
            key: coordinator.stats[key] - stats_before.get(key, 0)
            for key in coordinator.stats
        }
        stats = {
            "workers": coordinator.worker_count(),
            "lanes": len(batches),
            "program_bytes": delta["program_bytes"],
            "network_bytes": delta["network_bytes"],
            "payload_bytes": delta["payload_bytes"],
            "requeues": delta["requeues"],
        }
        self.last_run_stats = stats
        publish_run(self.name, stats, packets=len(arrivals))
        run_span.set_attr("payload_bytes", delta["payload_bytes"])
        run_span.set_attr("requeues", delta["requeues"])
        if errors:
            if not coordinator.alive_workers():
                # Total capacity loss: discard the dead cluster so the
                # next run starts fresh daemons (the BrokenProcessPool
                # recovery, worn cluster-shaped).
                self.close()
            _raise_lane_failure(plan, min(errors), errors[min(errors)])
        return merged

    def plan_for(self, network: Network):
        """The network's shard plan (cached, mutation-invalidated)."""
        return plan_for(network)

    # -- spec and lifecycle ------------------------------------------------

    @staticmethod
    def _load_program(coordinator, handle, program_key, program_bytes):
        reply_type, payload = handle.request(wire.LOAD_PROGRAM, {
            "key": program_key, "blob": program_bytes,
        }, timeout=coordinator.run_timeout)
        if reply_type != wire.OK:
            raise ClusterError(
                f"worker {handle.address} rejected the program spec: "
                f"{(payload or {}).get('message', reply_type)}"
            )
        handle.programs.add(program_key)
        coordinator.add_stat("program_bytes", len(program_bytes))

    def _spec_bytes(self, slot: str, key, build) -> bytes:
        cached = getattr(self, slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        blob = _dumps(build())
        setattr(self, slot, (key, blob))
        return blob

    def _ensure_coordinator(self) -> ClusterCoordinator:
        if self._coordinator is None:
            self._coordinator = ClusterCoordinator(
                local_workers=self.workers, addresses=self.addresses
            )
        return self._coordinator.start()

    @property
    def coordinator(self) -> ClusterCoordinator | None:
        """The live coordinator, or None before the first clustered run."""
        return self._coordinator

    def restart(self) -> None:
        """Tear the daemons down; the next run starts a fresh cluster.

        Fresh daemons mean fresh spec caches — the controller calls this
        on policy rebuilds, where the old compiled programs can never be
        reused.  TE rewires do *not* restart the cluster.
        """
        self.close()

    def close(self) -> None:
        """Shut down spawned daemons and drop connections (idempotent)."""
        coordinator, self._coordinator = self._coordinator, None
        self._program_cache = None
        self._network_cache = None
        if coordinator is not None:
            coordinator.close()

    def __repr__(self):
        state = (
            f"{self._coordinator.worker_count()} workers"
            if self._coordinator is not None
            else "idle"
        )
        return (
            f"ClusterEngine(workers={self.workers}, "
            f"addresses={list(self.addresses)}, {state})"
        )


# Self-registration: importing repro.cluster plugs the engine into the
# name registry (the registry also pre-registers it lazily, so the name
# works without importing this module first — either path lands here).
register_engine("cluster", ClusterEngine, stateful=True)
