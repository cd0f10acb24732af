"""Sharded parallel data-plane execution (§7.3, Appendix C, made runnable).

SNAP observes that ``s[inport]``-indexed state can be partitioned into
per-port shards "without worrying about synchronization, as the shards
store disjoint parts of s".  This module turns that observation into an
execution engine:

1. **Prove disjointness.**  The xFDD's feasible root-to-leaf paths
   (:func:`repro.xfdd.paths.feasible_paths`, the walk S_uv reads too)
   yield, for every OBS ingress port, the set of
   state variables a packet entering there can read or write — its
   *ingress state footprint*.
2. **Plan shards.**  Ports sharing any state variable are unioned into
   one shard; the result is a partition of the ingress ports such that
   packets of different shards touch provably disjoint state.  A
   variable every port can touch (an unsharded global counter) simply
   collapses all its ports into a single shard — that shard is the
   "single owner lane" everything unshardable serializes through.
3. **Execute.**  A workload is split into per-shard batches (per-shard
   arrival order preserved) and each batch runs on its own lane — a
   thread-pool worker over the shard's independent ``SwitchProgram``
   state partition.  Safe by construction: lanes share no state
   variables, forwarding state is read-only, and per-lane link counters
   are merged afterwards.
4. **Merge deterministically.**  Per-packet delivery records are
   reassembled in global arrival order, so the sharded engine is
   *delivery-equivalent* to the sequential engine (and therefore to the
   OBS ``eval`` semantics) — the property tests assert exactly that.

Each lane is the one scalar packet walker
(:class:`repro.dataplane.network.Walker`) over its shard's batch — the
same class the sequential engine runs inline over all ports: what a
copy does after a switch's program is memoized in per-``(switch,
inport)`` *continuation cells* (one dict hit and one counter bump per
outcome instead of per-hop queue churn), and the xFDD's leading
``inport``-only branches are pre-resolved per ingress port
(:meth:`SwitchProgram.resolve_inport_entry`).  Both are exact: cells
are built from :meth:`Network.pause_egress` and :meth:`Network.next_hop`,
entry resolution evaluates the program's own ``inport`` tests.

Thread lanes share one interpreter, so CPU-bound packet processing still
serializes on the GIL.  The :class:`ProcessPoolEngine` lifts that limit:
each lane's batch ships to a *worker process* together with the shard's
private state (:meth:`Network.extract_shard_state`), runs there against a
rehydrated copy of the compiled data plane (see
:class:`repro.dataplane.netasm.LoweredProgram` — the generated executor
does not pickle, the lowered pure-data form does), and the parent merges
delivery records, link counters, and state-store deltas back
deterministically (:meth:`Network.merge_shard_state`).  Workers cache the
rehydrated programs per ``(program_key, generation)`` token, so a
long-lived pool pays the deserialization cost once per program, not per
batch — and a TE ``rewire`` (same programs, new routing) reuses them.

Every engine honors one *lane failure contract*: if a lane raises, what
the lanes that completed leave behind is still merged into the network —
their link counters and (in place for thread lanes, as deltas from the
process engine's workers) their state writes — before the error is
re-raised wrapped in a :class:`DataPlaneError` naming the failing shard.
No network keeps a per-packet log, so the records of a failed run are
gone with it; the network is still never silently half-updated: what
ran is counted, and the exception says what did not.

Engines are *pluggable*: :func:`register_engine` adds a named engine to
the registry :func:`get_engine` and ``CompilerOptions`` validation
consult, so new execution backends (the cluster daemons of
:mod:`repro.cluster`, future accelerators) plug in without touching this
module.  Select one with ``CompilerOptions(engine="sharded"|"process"|
"cluster")`` (threaded through :meth:`SnapController.network`) or pass
``engine=`` to :func:`repro.workloads.replay`.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.dataplane.netasm import revive_programs
from repro.dataplane.network import (
    _EXEC_KEYS,
    Network,
    Walker,
    exec_network_spec,
    exec_program_spec,
    worker_network,
)
from repro.lang.errors import DataPlaneError
from repro.obs import postcards
from repro.obs.runstats import publish_run
from repro.obs.tracing import TRACER
from repro.util.registry import EngineRegistry
from repro.xfdd.paths import feasible_paths


# -- shard analysis -----------------------------------------------------------


def ingress_state_footprint(xfdd, inports) -> dict:
    """State variables reachable per ingress port: ``{port: frozenset}``.

    A variable is in port ``u``'s footprint iff some reachable
    root-to-leaf path compatible with ``inport = u`` reads or writes it.
    Conservative in the same way the packet-state mapping is — over-
    approximating a footprint can only merge shards, never split state
    that actually races.
    """
    footprint: dict = {port: set() for port in inports}
    for sources, reads, leaf in feasible_paths(xfdd, inports):
        for port in sources:
            footprint[port] |= reads | leaf.written_state_vars()
    return {port: frozenset(states) for port, states in footprint.items()}


@dataclass(frozen=True)
class Shard:
    """One execution lane: the ports it serves and the state it owns."""

    ports: tuple
    variables: frozenset

    def __repr__(self):
        return f"Shard(ports={list(self.ports)}, vars={sorted(self.variables)})"


class ShardPlan:
    """A proven-disjoint partition of the ingress ports.

    ``shards`` is ordered by lowest member port; ``shard_of`` maps every
    ingress port to its shard index.  ``parallelism`` is the number of
    lanes that can run concurrently; 1 means the program's state fully
    serializes (every stateful port shares a variable).
    """

    def __init__(self, shards, footprint, collapse_reasons=None):
        self.shards = tuple(shards)
        self.footprint = dict(footprint)
        self.shard_of = {
            port: index
            for index, shard in enumerate(self.shards)
            for port in shard.ports
        }
        #: ``{var: reason}`` for every variable that merged two or more
        #: ingress ports into one lane (see :func:`collapse_reasons`).
        self.collapse_reasons = dict(collapse_reasons or {})

    @property
    def parallelism(self) -> int:
        return len(self.shards)

    def summary(self) -> dict:
        """Reporting: lane count and the size of each lane."""
        return {
            "shards": len(self.shards),
            "ports_per_shard": [len(s.ports) for s in self.shards],
            "sharded_vars": sum(len(s.variables) for s in self.shards),
            "collapse_reasons": dict(self.collapse_reasons),
        }

    def __repr__(self):
        return f"ShardPlan({len(self.shards)} shards: {list(self.shards)})"


def group_ports_by_footprint(footprint: dict, ports) -> list:
    """Union-find partition of ``ports`` into disjoint-state groups.

    Every state variable merges all ports whose footprint contains it.
    Ports with empty footprints (pure stateless traffic) become singleton
    groups — they can run on any lane.  Returns
    ``[(ports_tuple, variables_frozenset)]`` ordered by lowest member
    port.
    """
    ports = list(ports)
    parent = {port: port for port in ports}

    def find(port):
        root = port
        while parent[root] != root:
            root = parent[root]
        while parent[port] != root:  # path compression
            parent[port], port = root, parent[port]
        return root

    var_ports: dict = {}
    for port, states in footprint.items():
        for var in states:
            var_ports.setdefault(var, []).append(port)
    for members in var_ports.values():
        anchor = find(members[0])
        for port in members[1:]:
            parent[find(port)] = anchor

    groups: dict = {}
    for port in ports:
        groups.setdefault(find(port), []).append(port)
    return [
        (
            tuple(members),
            frozenset().union(*(footprint[p] for p in members)),
        )
        for members in sorted(groups.values())
    ]


def collapse_reasons(footprint: dict, shards, root) -> dict:
    """Why multi-port shards collapsed: ``{var: human-readable reason}``.

    A variable reachable from two or more ingress ports forces those
    ports onto one serialized owner lane.  Each reason names the
    variable, its effect kind (from the compiled diagram) and the ports.
    """
    from repro.analysis.effects import xfdd_effects

    var_ports: dict = {}
    for port, variables in footprint.items():
        for var in variables:
            var_ports.setdefault(var, []).append(port)
    kinds = xfdd_effects(root) if root is not None else {}
    reasons: dict = {}
    for shard in shards:
        if len(shard.ports) <= 1:
            continue
        for var in sorted(shard.variables):
            ports = sorted(var_ports.get(var, ()))
            if len(ports) <= 1:
                continue
            kind = kinds.get(var)
            kind_name = kind.value if kind is not None else "READ_ONLY"
            reasons[var] = (
                f"SNAP-W104: state variable '{var}' ({kind_name}) is "
                f"reachable from ingress ports {ports}, collapsing them "
                "into one lane"
            )
    return reasons


def plan_shards(network: Network) -> ShardPlan:
    """Partition the network's ingress ports into disjoint-state shards."""
    ports = sorted(network.topology.ports)
    root = network.index.root
    footprint = ingress_state_footprint(root, ports)
    shards = [
        Shard(members, variables)
        for members, variables in group_ports_by_footprint(footprint, ports)
    ]
    return ShardPlan(
        shards, footprint, collapse_reasons(footprint, shards, root)
    )


# -- shard-plan caching -------------------------------------------------------


def _plan_cache_key(network: Network) -> tuple:
    """What the shard plan actually depends on.

    The plan is a function of the xFDD (state footprints walk its paths)
    and the topology's ingress ports.  ``rewire`` builds a fresh object,
    so it never sees a stale cache; but ``adopt_state`` and direct
    ``index``/``switches``/port mutation reuse the object — keying the
    cache on the root diagram and a port fingerprint makes it
    self-invalidating on every such path.  The key holds the root
    *object* (not its ``id``): the cache entry keeps it alive, so a
    recycled address can never masquerade as an unchanged diagram, and
    comparisons use identity (see :func:`_same_key`).
    """
    return (
        network.index.root if network.index is not None else None,
        tuple(sorted(network.topology.ports.items())),
    )


def _same_key(a: tuple, b: tuple) -> bool:
    """Key equality: root diagram by *identity*, ports by value."""
    return a[0] is b[0] and a[1] == b[1]


#: Module-level plan reuse across TE rewires.  ``rewire`` builds a fresh
#: Network object (empty per-object cache) sharing the parent's program
#: token and xFDD; keying a second cache level on that token lets the
#: rewired network's first run revalidate the existing plan against the
#: root-identity/port fingerprint and reuse it instead of re-deriving
#: the footprints from scratch.  Bounded: a long-lived controller sees a
#: new token per policy rebuild.
_SHARD_PLANS: dict = {}
_SHARD_PLAN_LIMIT = 16


def plan_for(network: Network) -> ShardPlan:
    """The network's shard plan, cached on the network *and* on its
    program token, keyed by :func:`_plan_cache_key` so topology/xFDD
    mutation invalidates it while TE rewires reuse it."""
    network.require_live()  # every sharded run plans first
    key = _plan_cache_key(network)
    cached = getattr(network, "_shard_plan", None)
    if cached is not None and _same_key(cached[0], key):
        return cached[1]
    token = getattr(network, "_exec_program_key", None)
    entry = _SHARD_PLANS.get(token)
    if entry is not None and _same_key(entry[0], key):
        network._shard_plan = entry
        return entry[1]
    plan = plan_shards(network)
    entry = (key, plan)
    network._shard_plan = entry
    if token is not None:
        _SHARD_PLANS[token] = entry
        while len(_SHARD_PLANS) > _SHARD_PLAN_LIMIT:
            _SHARD_PLANS.pop(next(iter(_SHARD_PLANS)))
    return plan


def refresh_exec_keys(network: Network) -> None:
    """Mint fresh worker-cache tokens after in-place mutation.

    The exec tokens normally change only through ``__init__`` /
    ``rewire``; grafting a different program onto an existing network
    object (the same mutation path the shard-plan cache self-invalidates
    on) would otherwise hit warm worker caches — in worker processes or
    on cluster daemons — built for the *old* program.  The fingerprint
    matches the plan cache's: the xFDD root by identity plus the port
    map.
    """
    fingerprint = _plan_cache_key(network)
    observed = getattr(network, "_exec_fingerprint", None)
    if observed is None:
        network._exec_fingerprint = fingerprint
    elif not _same_key(observed, fingerprint):
        network._exec_fingerprint = fingerprint
        network._exec_program_key = next(_EXEC_KEYS)
        network._exec_network_key = next(_EXEC_KEYS)


# -- engines ------------------------------------------------------------------


def _split_batches(plan: ShardPlan, arrivals) -> list:
    """Arrival list -> ``[(shard_index, [(global_index, packet, port)])]``,
    ordered by shard index, per-shard arrival order preserved."""
    shard_of = plan.shard_of
    batches: dict = {}
    for index, (packet, port) in enumerate(arrivals):
        shard = shard_of.get(port)
        if shard is None:
            raise DataPlaneError(f"no OBS port {port} in the topology")
        batches.setdefault(shard, []).append((index, packet, port))
    return sorted(batches.items())


def batch_footprint(plan: ShardPlan, batch) -> frozenset:
    """The state variables one batch can actually touch.

    The union of the batch's ingress ports' footprints — a subset of the
    shard's variables (a shard owns the footprints of *all* its ports,
    but a given batch may only enter through some of them).  Shipping
    only this slice to a remote lane is sound for the same reason the
    shards are: packets entering elsewhere provably never read or write
    the rest.
    """
    ports = {port for _, _, port in batch}
    footprint = plan.footprint
    return frozenset().union(
        *(footprint.get(port, frozenset()) for port in ports)
    ) if ports else frozenset()


def _merge_lane_outcomes(network: Network, lane_results, total: int,
                         complete: bool):
    """Deterministic merge: records in global arrival order, link counters
    summed.  With ``complete=False`` (a lane failed) the completed lanes'
    counters are still merged — the failure contract — and ``None`` is
    returned instead of a result list."""
    by_index: dict = {}
    link_packets = network.link_packets
    for records_by_index, links in lane_results:
        by_index.update(records_by_index)
        for link, count in links.items():
            link_packets[link] = link_packets.get(link, 0) + count
    if complete:
        return [by_index[index] for index in range(total)]
    return None


def _raise_lane_failure(plan: ShardPlan, shard_index: int, exc: Exception):
    shard = plan.shards[shard_index]
    detail = ""
    reasons = [
        plan.collapse_reasons[var]
        for var in sorted(shard.variables)
        if var in plan.collapse_reasons
    ]
    if reasons:
        detail = " [lane collapse: " + "; ".join(reasons) + "]"
    raise DataPlaneError(
        f"execution lane for shard {shard_index} "
        f"(ports {list(shard.ports)}) failed: {exc}{detail}"
    ) from exc


def _lane_span_runner(runner, parent, shard_index: int, batch_size: int):
    """Wrap a lane runner in an ``engine.lane`` span.

    Lane runners execute on pool threads where the tracer's thread-local
    stack is empty, so the engine's run span is passed as the explicit
    parent — spans from every lane stitch into one trace.
    """
    def run():
        with TRACER.span(
            "engine.lane", parent=parent, shard=shard_index,
            batch=batch_size,
        ):
            return runner()
    return run


class SequentialEngine:
    """Run-to-completion in arrival order: one :class:`Walker` over all
    ingress ports, inline (:meth:`Network.stream`; ``replay()`` on it
    runs :meth:`Walker.fold`)."""

    name = "sequential"

    def run(self, network: Network, arrivals) -> list:
        """One record list per injected packet, in arrival order."""
        return network.inject_many(arrivals)

    def __repr__(self):
        return "SequentialEngine()"


class ShardedEngine:
    """Per-shard parallel execution with deterministic merge.

    ``max_workers=None`` sizes the thread pool to the machine
    (``os.cpu_count()``); lanes never exceed the plan's parallelism.
    With one worker (or one shard) the lanes run inline on the calling
    thread — same code path, no pool.  Every lane runs on the parent
    network's own state stores: shards are disjoint, so no lane can see
    another's writes.
    """

    name = "sharded"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        #: What the previous :meth:`run` planned: lane count and the
        #: per-variable owner-lane collapse reasons (the bench-level
        #: explanation for parallelism flatlines).
        self.last_run_stats: dict = {}

    def run(self, network: Network, arrivals) -> list:
        arrivals = list(arrivals)
        plan = plan_for(network)
        batches = _split_batches(plan, arrivals)
        stats = {
            "lanes": len(batches),
            "parallelism": plan.parallelism,
            "collapse_reasons": dict(plan.collapse_reasons),
        }
        self.last_run_stats = stats
        with TRACER.span(
            "engine.run", engine=self.name, lanes=len(batches),
            parallelism=plan.parallelism, packets=len(arrivals),
        ) as run_span:
            lanes = []
            for shard_index, batch in batches:
                shard = plan.shards[shard_index]
                runner = self._lane(network, shard, batch).run
                if TRACER.enabled:
                    # Lanes run on pool threads, which cannot inherit the
                    # thread-local parent: pass the run span explicitly.
                    runner = _lane_span_runner(
                        runner, run_span, shard_index, len(batch)
                    )
                lanes.append((shard_index, runner))
            workers = self.max_workers or os.cpu_count() or 1
            workers = min(workers, len(lanes))
            outcomes: list = []
            failure = None
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        (shard_index, pool.submit(runner))
                        for shard_index, runner in lanes
                    ]
                    for shard_index, future in futures:
                        try:
                            outcomes.append(future.result())
                        except Exception as exc:
                            if failure is None:
                                failure = (shard_index, exc)
            else:
                # Inline: lanes run serially in shard order; a failure stops
                # the later lanes from ever starting.
                for shard_index, runner in lanes:
                    try:
                        outcomes.append(runner())
                    except Exception as exc:
                        failure = (shard_index, exc)
                        break
            results = _merge_lane_outcomes(
                network, outcomes, len(arrivals), complete=failure is None
            )
            publish_run(self.name, stats, packets=len(arrivals))
            if failure is not None:
                run_span.set_attr("failed_shard", failure[0])
                _raise_lane_failure(plan, *failure)
        return results

    def plan_for(self, network: Network) -> ShardPlan:
        """The network's shard plan (cached, mutation-invalidated)."""
        return plan_for(network)

    def _lane(self, network: Network, shard, batch):
        """The execution lane for one shard's batch.

        Subclasses (the vector engines) override this to swap the
        per-packet interpreter lane for the columnar tier while reusing
        the same planning, batching, merge, and failure contract.
        """
        return Walker(network, batch)

    def __repr__(self):
        return f"ShardedEngine(max_workers={self.max_workers})"


class ProcessPoolEngine:
    """Per-shard parallel execution on a pool of worker *processes*.

    Each disjoint-state shard's batch ships to a worker along with the
    *footprint-restricted* slice of the shard's private state — only the
    variables the batch's ingress ports can actually touch — and the
    worker runs the same compiled lane the thread engine uses, against a
    network rehydrated from the pure-data
    :class:`~repro.dataplane.netasm.LoweredProgram` form, sending back
    ``(records, link counters, state deltas)``, which the parent merges
    in deterministic global arrival order.  Workers cache rehydrated
    programs and networks in per-process tables keyed by the network's
    execution tokens, so after the first batch the *rehydration* cost is
    gone; each task still carries the (parent-side cached) spec bytes —
    a worker cannot be targeted, so the parent cannot know which workers
    are warm — but warm workers never deserialize them.
    :attr:`last_run_stats` records what the previous :meth:`run` shipped
    (lanes, state bytes, spec bytes) for the benchmarks.

    The pool is created lazily on first :meth:`run` and survives across
    calls (and across TE ``rewire`` hot swaps — the program token is
    unchanged, so worker caches stay warm).  :meth:`restart` shuts it
    down so the next run starts fresh — the controller calls this on
    policy rebuilds.  With one worker (or on a single-CPU host) lanes run
    inline on the calling thread with identical semantics.

    Lane failures follow the engine failure contract (see module
    docstring): completed lanes' counters *and state deltas* are merged
    before the wrapped :class:`DataPlaneError` is raised.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool = None
        self._spec_cache: tuple | None = None  # (network_key, bytes)
        #: What the previous run shipped: ``{"lanes", "state_bytes",
        #: "spec_bytes"}`` (zeros for inline fallbacks).
        self.last_run_stats: dict = {}

    def run(self, network: Network, arrivals) -> list:
        arrivals = list(arrivals)
        plan = plan_for(network)
        batches = _split_batches(plan, arrivals)
        workers = self.max_workers or os.cpu_count() or 1
        if workers <= 1 or len(batches) <= 1:
            # One worker or one shard: shipping everything to a single
            # process buys no parallelism — run inline with identical
            # semantics (state mutated in place, exactly like a
            # completed worker merge).
            self.last_run_stats = {
                "lanes": len(batches), "state_bytes": 0, "spec_bytes": 0,
                "collapse_reasons": dict(plan.collapse_reasons),
            }
            return ShardedEngine(max_workers=1).run(network, arrivals)
        refresh_exec_keys(network)
        program_key = network._exec_program_key
        network_key = network._exec_network_key
        spec_bytes = self._spec_bytes(network, network_key)
        pool = self._ensure_pool(workers)
        with TRACER.span(
            "engine.run", engine=self.name, lanes=len(batches),
            packets=len(arrivals),
        ) as run_span:
            sampler = postcards.active_sampler()
            telemetry = None
            if TRACER.enabled or sampler is not None:
                telemetry = {
                    "trace": run_span.context(),
                    "postcard_every": sampler.every if sampler else 0,
                }
            futures = []
            state_bytes = 0
            try:
                for shard_index, batch in batches:
                    variables = batch_footprint(plan, batch)
                    # Pre-pickled once: the worker unpickles this blob, so
                    # the byte accounting below is free instead of a second
                    # serialization of the same tables.
                    state_blob = pickle.dumps(
                        network.extract_shard_state(variables),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    state_bytes += len(state_blob)
                    payload = (
                        program_key,
                        network_key,
                        spec_bytes,
                        tuple(sorted(variables)),
                        state_blob,
                        batch,
                        telemetry,
                    )
                    futures.append(
                        (shard_index, pool.submit(_process_lane, payload))
                    )
            except BrokenProcessPool as exc:
                # The pool died between runs (a worker was killed): discard
                # it so the next run starts fresh, then surface the error.
                self.close()
                raise DataPlaneError(
                    f"process-pool engine lost its workers: {exc}"
                ) from exc
            stats = {
                "lanes": len(batches),
                "state_bytes": state_bytes,
                # A worker cannot be targeted, so every task carries the spec.
                "spec_bytes": len(spec_bytes) * len(batches),
                "collapse_reasons": dict(plan.collapse_reasons),
            }
            self.last_run_stats = stats
            outcomes: list = []
            failure = None
            for shard_index, future in futures:
                try:
                    records, links, state, lane_obs = future.result()
                except Exception as exc:
                    if failure is None:
                        failure = (shard_index, exc)
                    continue
                # Safe to merge while later lanes still run: every lane's
                # state slice was pickled before the first merge.
                network.merge_shard_state(state)
                if lane_obs is not None:
                    TRACER.adopt(lane_obs.get("spans"))
                    postcards.adopt(lane_obs.get("postcards"))
                outcomes.append((records, links))
            if failure is not None and isinstance(failure[1], BrokenProcessPool):
                # A worker crashed mid-batch: the executor is permanently
                # broken — release it so the next run recreates the pool.
                self.close()
            results = _merge_lane_outcomes(
                network, outcomes, len(arrivals), complete=failure is None
            )
            publish_run(self.name, stats, packets=len(arrivals))
            if failure is not None:
                run_span.set_attr("failed_shard", failure[0])
                _raise_lane_failure(plan, *failure)
        return results

    def plan_for(self, network: Network) -> ShardPlan:
        """The network's shard plan (cached, mutation-invalidated)."""
        return plan_for(network)

    # -- pool and spec lifecycle ------------------------------------------

    def _spec_bytes(self, network: Network, network_key) -> bytes:
        cached = self._spec_cache
        if cached is not None and cached[0] == network_key:
            return cached[1]
        spec_bytes = _network_spec_bytes(network)
        self._spec_cache = (network_key, spec_bytes)
        return spec_bytes

    def _ensure_pool(self, workers: int):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
            _LIVE_POOLS.append(self._pool)
        return self._pool

    def restart(self) -> None:
        """Shut the worker pool down; the next run starts a fresh one.

        Fresh workers mean fresh rehydration caches — the controller
        calls this on policy rebuilds, where the old compiled programs
        can never be reused.  TE rewires do *not* restart the pool.
        """
        self.close()

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        pool, self._pool = self._pool, None
        self._spec_cache = None
        if pool is not None:
            if pool in _LIVE_POOLS:
                _LIVE_POOLS.remove(pool)
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self):
        state = "live" if self._pool is not None else "idle"
        return f"ProcessPoolEngine(max_workers={self.max_workers}, {state})"


#: Pools not yet closed explicitly; drained at interpreter exit so stray
#: worker processes never outlive the parent.
_LIVE_POOLS: list = []


@atexit.register
def _shutdown_live_pools() -> None:  # pragma: no cover - exit path
    while _LIVE_POOLS:
        _LIVE_POOLS.pop().shutdown(wait=False, cancel_futures=True)


# -- the engine registry ------------------------------------------------------
#
# Engines plug in by name: an entry maps a name to a factory (a callable
# returning a fresh engine, or a lazy "module:attr" string resolved on
# first use, so registering a name does not import its implementation).
# *Stateful* engines own OS resources (worker pools, daemons); their
# *name* resolves to one shared instance so ad-hoc ``replay(...,
# engine="process")`` calls reuse one pool instead of leaking a pool per
# call, while sessions get a private instance via make_session_engine.

_ENGINE_REGISTRY = EngineRegistry("data-plane engine")


def register_engine(name: str, factory, *, stateful: bool = False) -> None:
    """Register (or replace) a named data-plane engine.

    ``factory`` is a zero-argument callable returning an engine, or a
    ``"module:attr"`` string resolved lazily on first use.  ``stateful``
    engines are shared per name by :func:`get_engine` and instantiated
    privately per session by :func:`make_session_engine`.
    """
    _ENGINE_REGISTRY.register(name, factory, stateful=stateful)


def engine_names() -> tuple:
    """The registered engine names ``CompilerOptions`` accepts."""
    return _ENGINE_REGISTRY.names()


def get_engine(engine):
    """Resolve an engine name (or pass an engine instance through)."""
    return _ENGINE_REGISTRY.resolve(engine)


def make_session_engine(engine):
    """A *private* instance for a session, or None to use the name as-is.

    Stateful engine names (``"process"``, ``"cluster"``) get one
    instance per controller session, so the session lifecycle (pool
    survives TE rewires, restarts on policy rebuilds, ``close()`` tears
    it down) never touches a pool other sessions or ad-hoc replays are
    using.  Stateless names and engine instances return None — the
    caller passes them through unchanged.
    """
    return _ENGINE_REGISTRY.session_instance(engine)


register_engine("sequential", SequentialEngine)
register_engine("sharded", ShardedEngine)
register_engine("process", ProcessPoolEngine, stateful=True)
# Lazy: resolving the name imports repro.cluster only when first used.
register_engine("cluster", "repro.cluster.engine:ClusterEngine", stateful=True)
# Lazy: the vector tier imports numpy only when first used.  Stateless —
# kernel caches are module-global, keyed by execution-program tokens.
register_engine("vector", "repro.dataplane.vector:VectorEngine")
register_engine("vector-jit", "repro.dataplane.vector:VectorJitEngine")


# -- process-pool worker side -------------------------------------------------
#
# A worker never sees the parent's Network: it receives a *spec* — a
# pickled dict of pure data (see network.exec_network_spec /
# exec_program_spec) — and rehydrates a lane-capable Network from it.
# Rehydration happens once per process per network token; the per-program
# half (the revived programs and, once run, their generated executors)
# is cached separately so TE rewires reuse it.


def _network_spec_bytes(network: Network) -> bytes:
    """Serialize everything a worker lane needs, as pure data."""
    spec = exec_network_spec(network)
    spec["programs"] = exec_program_spec(network)
    return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)


#: Per-process rehydration caches (worker globals).  Bounded: a worker
#: serving a long-lived session sees a new network token per hot swap,
#: and old entries must not accumulate.
_WORKER_PROGRAMS: dict = {}
_WORKER_NETWORKS: dict = {}
_WORKER_CACHE_LIMIT = 4


def _trim_cache(cache: dict) -> None:
    while len(cache) > _WORKER_CACHE_LIMIT:
        cache.pop(next(iter(cache)))


def _worker_network(program_key, network_key, spec_bytes: bytes) -> Network:
    network = _WORKER_NETWORKS.get(network_key)
    if network is not None:
        return network
    spec = pickle.loads(spec_bytes)
    programs = _WORKER_PROGRAMS.get(program_key)
    if programs is None:
        programs = revive_programs(spec["programs"])
        _WORKER_PROGRAMS[program_key] = programs
        _trim_cache(_WORKER_PROGRAMS)
    network = worker_network(spec, programs, program_key, network_key)
    _WORKER_NETWORKS[network_key] = network
    _trim_cache(_WORKER_NETWORKS)
    return network


def _process_lane(payload: tuple):
    """One shard's batch, executed in a worker process.

    Returns ``(records_by_index, link_counts, shard_state, lane_obs)`` —
    the same lane output the thread engine produces, plus the shard's
    post-run state for the parent to merge and (when the run shipped
    telemetry) the spans and postcards recorded while the lane ran, for
    the parent to adopt.
    """
    (program_key, network_key, spec_bytes,
     variables, state_blob, batch, telemetry) = payload
    network = _worker_network(program_key, network_key, spec_bytes)
    network.install_shard_state(pickle.loads(state_blob))
    lane = Walker(network, batch)
    if telemetry is None:
        records, links = lane.run()
        lane_obs = None
    else:
        # Workers serve one lane at a time, so the capture windows slice
        # out exactly this job's spans and postcards for the reply.
        with TRACER.capture() as spans, postcards.capture() as cards, \
                postcards.sampling(telemetry.get("postcard_every", 0)):
            with TRACER.span(
                "engine.lane", parent=telemetry.get("trace"),
                batch=len(batch), worker=os.getpid(),
            ):
                records, links = lane.run()
        lane_obs = {"spans": spans, "postcards": cards}
    return records, links, network.extract_shard_state(variables), lane_obs
