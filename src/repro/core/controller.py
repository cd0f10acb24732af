"""The long-lived compilation session (Figure 5 run as a service).

SNAP's Table 4 scenarios — cold start, policy change, topology/TM change
— are events arriving at a controller that outlives any one compilation.
:class:`SnapController` models exactly that: one session owns the base
topology, the current program, the traffic matrix, the routing
certificates, and the live data plane; every event method returns a new
immutable :class:`~repro.core.result.Snapshot` and never mutates a
previously returned one.

Event → phase-set mapping (Table 4):

=================  =====================  ===================================
event method       Table 4 scenario       phases run
=================  =====================  ===================================
``submit``         cold start             P1 P2 P3 P4 P5(ST, walk or MILP) P6
``update_policy``  policy change          P1 P2 P3 P4 P5(ST, walk or MILP) P6 [#]_
``update_topology``  topology/TM change   P5(TE, walk or LP) P6 [#r]_
``fail_link``      topology/TM change     P5(TE, reuse, walk or LP) P6
``restore_link``   topology/TM change     P5(TE, reuse, walk or LP) P6
``set_demands``    topology/TM change     P5(TE, walk or LP) P6
=================  =====================  ===================================

.. [#] The paper updates the standing MILP incrementally; we rebuild it
   and report the rebuild separately as P4 so scenario totals can follow
   Table 4's phase sets (``Snapshot.scenario_time``).

.. [#r] When the pinned placement has no route on the new graph, the
   event re-places the state as a cold start on that graph (event
   ``topology_replace``: P1-P6, P1-P3 from the session memos).

An ST event first searches the placement whose cheapest walks cost
least with capacities and the visit-once rule dropped (a lower bound on
the MILP) and certifies those walks
(:class:`~repro.milp.st_walk.WalkSearch`); only when that fails
(``model_stats["st_route"]`` names why, else it is ``"walk"``) does it
build and solve the Table 2 MILP.

A TE event first routes every flow by its cheapest walk through its
owner switches (:func:`~repro.milp.te.shortest_walk_routing`); walks that
are simple, fit every capacity and take the cheapest waypoint order are
optimal, and nothing is built or solved (``model_stats["te_route"]`` is
``"walk"``).  Otherwise (``te_route`` names why) it builds Table 2 on the
effective topology with the placement pinned (an LP,
:func:`~repro.milp.te.build_te_model`) and solves it, as an ST event
falls back to the MILP.  No solver state outlives the event.

A link event solves only when it must.  A routing optimal for failure set
F0 stays optimal for any F ⊇ F0 whose links it does not use, so every
optimal (status 0) ST solve, certified walk or TE solve leaves a
certificate, and a link event
reuses the newest one that covers the new failure set (P6 re-validates
it on the degraded graph; ``model_stats["solve_reused"]``).  An ST
certificate from the MILP fallback is optimal only to ``mip_rel_gap``
(a walk-placed one exactly).  Certificates die with
the placement they route, and with any demand change.

:meth:`network` returns the session's live data plane.  When a later
event produces a new snapshot, the live network is *hot-swapped*: a new
data plane is compiled and the old one's state-store contents (every
``count``/``seen``/``blacklist`` entry) are carried over, so a policy
update does not forget what the network has learned — the OpenState /
Open Packet Processor notion of reconfiguring a stateful data plane
without losing its state.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from repro.analysis.dependency import analyze_dependencies
from repro.analysis.packet_state import packet_state_mapping
from repro.core.options import CompilerOptions
from repro.core.program import Program
from repro.core.result import EVENT_SCENARIOS, Snapshot
from repro.dataplane.engine import make_session_engine
from repro.dataplane.network import Network
from repro.dataplane.rules import build_rule_tables
from repro.lang.errors import PlacementError, SnapError, TopologyError
from repro.milp.backends import MilpBackend
from repro.milp.results import extract_paths, validate_solution
from repro.topology.graph import Topology
from repro.topology.traffic import gravity_traffic_matrix
from repro.obs.metrics import counter, gauge
from repro.obs.tracing import TRACER
from repro.util.timer import PhaseTimer
from repro.xfdd.incremental import CompileSession

#: Bound on the content-keyed ST-solve memo: each entry pins a solution
#: and routing (small), and real event streams alternate among a handful
#: of placements (A/B policy flips, threshold sweeps).
SOLVE_MEMO_CAP = 32

#: How many snapshots ``history()`` retains (oldest evicted first;
#: ``current`` is always kept).  Each snapshot pins its xFDD and
#: hash-consing factory, so an unbounded history would grow a long-lived
#: session's memory linearly with event count.
HISTORY_LIMIT = 16

_CONTROLLER_EVENTS = counter(
    "snap_controller_events_total",
    "Controller events processed, by event kind",
)
_GENERATION = gauge(
    "snap_controller_generation", "Generation of the latest snapshot"
)


def _norm_link(a, b=None):
    """Canonical undirected link key."""
    if b is None:
        a, b = a
    return tuple(sorted((a, b)))


@dataclass
class _Certificate:
    """A routing proven optimal with the links ``failed`` down."""

    failed: frozenset
    solution: object
    routing: object
    rules: object
    stats: dict

    @cached_property
    def used(self) -> frozenset:
        """Links in the LP support or on an installed path, undirected."""
        links = {hop for fractions in self.solution.routing.values() for hop in fractions}
        for path in self.routing.paths.values():
            links.update(zip(path, path[1:]))
        return frozenset(map(_norm_link, links))


class AnalysisResult(NamedTuple):
    """What P1-P3 produce for one compilation."""

    dependencies: object
    xfdd: object
    mapping: object
    stats: dict
    factory: object
    reused: int
    recompiled: int


class SnapController:
    """One compilation session: events in, immutable snapshots out."""

    def __init__(
        self,
        topology: Topology,
        program: Program | None = None,
        demands: dict | None = None,
        options: CompilerOptions | None = None,
        **overrides,
    ):
        if options is None:
            options = CompilerOptions(**overrides)
        elif overrides:
            options = replace(options, **overrides)
        self._options = options
        self._backend = MilpBackend()
        self._topology = topology
        self._program = program
        ports = sorted(topology.ports)
        self._demands = (
            dict(demands)
            if demands is not None
            else gravity_traffic_matrix(ports, total_demand=1000.0, seed=0)
        )
        #: Currently failed links (canonical undirected keys).
        self._failed: frozenset = frozenset()
        self._generation = -1
        self._current: Snapshot | None = None
        self._history: deque = deque(maxlen=HISTORY_LIMIT)
        self._network: Network | None = None
        # Resolved engine for the live data plane.  Engines that own OS
        # resources (the process pool) must be one instance per session,
        # not one per replay call — created lazily in network().
        self._engine_runner = None
        self._certificates: deque = deque(maxlen=SOLVE_MEMO_CAP)
        # Every compilation runs on one persistent CompileSession: it
        # carries the hash-consing factory, apply-cache, sub-xFDD memo,
        # dependency slicer, and S_uv root memo across generations; the
        # solve memo reuses whole ST solutions when nothing the MILP
        # sees changed.
        self._session = CompileSession()
        self._solve_memo: OrderedDict = OrderedDict()
        self._last_solve_key = None

    # -- introspection -----------------------------------------------------

    @property
    def options(self) -> CompilerOptions:
        return self._options

    @property
    def backend(self):
        """The MILP/LP solver, whose ``calls`` counters count its work."""
        return self._backend

    @property
    def topology(self) -> Topology:
        """The base topology (failed links *not* removed)."""
        return self._topology

    @property
    def program(self) -> Program | None:
        return self._program

    @property
    def demands(self):
        """Read-only view of the current traffic matrix."""
        return MappingProxyType(self._demands)

    @property
    def failed_links(self) -> frozenset:
        return self._failed

    @property
    def current(self) -> Snapshot | None:
        """The latest snapshot, or None before the first ``submit``."""
        return self._current

    @property
    def generation(self) -> int:
        """Generation of the latest snapshot (-1 before ``submit``)."""
        return self._generation

    def history(self) -> tuple:
        """Recent snapshots, oldest first (the newest
        :data:`HISTORY_LIMIT` of them)."""
        return tuple(self._history)

    def effective_topology(self) -> Topology:
        """The base topology with currently failed links removed."""
        topology = self._topology
        for a, b in sorted(self._failed):
            topology = topology.without_link(a, b)
        return topology

    # -- ST events (placement re-decided) ----------------------------------

    def submit(self, program: Program | None = None) -> Snapshot:
        """Cold start: compile ``program`` from scratch (all phases, ST).

        Resets session event state (failed links, certificates) and
        every incremental cache — a resubmit is a genuine cold start.
        """
        with self._event_transaction():
            if program is not None:
                self._program = program
            if self._program is None:
                raise SnapError("no program: pass one to submit() or __init__")
            self._failed = frozenset()
            self._session.reset()
            self._solve_memo.clear()
            self._last_solve_key = None
            return self._compile_st("cold_start")

    def update_policy(self, program: Program | None = None) -> Snapshot:
        """Policy change: recompile (placement re-decided, ST).

        Failed links stay failed — the new placement is solved against
        the current effective topology.  The session's caches carry over,
        so unchanged sub-policies are reused; the snapshot equals what a
        fresh session's ``submit()`` of the same program compiles.
        """
        self._require_current("update_policy")
        with self._event_transaction():
            if program is not None:
                self._program = program
            return self._compile_st("policy_change")

    # -- TE events (placement fixed, routing re-optimized) -----------------

    def update_topology(
        self, topology: Topology, demands: dict | None = None
    ) -> Snapshot:
        """Replace the base topology and re-route.

        The failure set and the certificates are discarded — they
        describe the old graph.  When the placement has no route on the
        new graph (the pinned TE LP raises), the event re-places the
        state instead: an ST compile of the current program on the new
        graph (event ``topology_replace``), whose hot swap moves the
        state tables to their new owners.
        """
        self._require_current("update_topology")
        with self._event_transaction():
            self._topology = topology
            self._failed = frozenset()
            self._certificates.clear()
            if demands is not None:
                self._demands = dict(demands)
            try:
                return self._reoptimize("topology_change")
            except PlacementError:
                return self._compile_st("topology_replace")

    def fail_link(self, a, b) -> Snapshot:
        """A link went down: keep a routing that avoids it, or re-route."""
        self._require_current("fail_link")
        link = self._base_link(a, b)
        with self._event_transaction():
            self._failed = self._failed | {link}
            return self._reoptimize("link_failure")

    def restore_link(self, a, b) -> Snapshot:
        """A failed link came back: reuse a certified routing, or re-route."""
        self._require_current("restore_link")
        link = self._base_link(a, b)
        with self._event_transaction():
            self._failed = self._failed - {link}
            return self._reoptimize("link_restore")

    def set_demands(self, demands: dict) -> Snapshot:
        """Traffic-matrix change: rewrite demand coefficients, re-route.

        The current failure set stays in force.
        """
        self._require_current("set_demands")
        with self._event_transaction():
            self._demands = dict(demands)
            return self._reoptimize("demand_change", demands_changed=True)

    def reroute(
        self,
        failed_links=None,
        demands: dict | None = None,
        event: str = "topology_change",
    ) -> Snapshot:
        """General TE event: replace the whole failure set and/or the
        traffic matrix in one re-optimization.

        ``failed_links=None`` keeps the current set; ``[]`` restores
        everything.  This is the bulk form of ``fail_link`` /
        ``restore_link`` / ``set_demands``.  ``event`` labels the
        snapshot's provenance and must map to the topology/TM-change
        scenario.
        """
        self._require_current("reroute")
        if EVENT_SCENARIOS.get(event) != "topology_change":
            known = sorted(
                e for e, s in EVENT_SCENARIOS.items() if s == "topology_change"
            )
            raise SnapError(
                f"reroute event must be one of {known}, got {event!r}"
            )
        if failed_links is not None:
            failed_links = frozenset(
                self._base_link(*link) for link in failed_links
            )
        with self._event_transaction():
            demands_changed = False
            if demands is not None:
                self._demands = dict(demands)
                demands_changed = True
            if failed_links is not None:
                self._failed = failed_links
            return self._reoptimize(event, demands_changed=demands_changed)

    # -- the live data plane -----------------------------------------------

    def network(self) -> Network:
        """The session's live data plane for the current snapshot.

        Built on first call; after each subsequent event the controller
        hot-swaps it — the new snapshot's data plane is instantiated and
        the old one's state tables are *moved* into it, so state like
        ``count``/``seen`` survives live reconfiguration.  The swapped-out
        network is retired (its drivers raise ``RetiredNetworkError``):
        fetch this after every event rather than holding a reference.
        """
        self._require_current("network")
        if self._network is None:
            self._network = self._current.build_network()
            self._network.default_engine = self._session_engine()
        return self._network

    def close(self) -> None:
        """Release session resources — the process-engine worker pool or
        the cluster engine's worker daemons (no orphan children survive).

        Safe to call repeatedly; a closed session can keep issuing events
        — the engine recreates its pool on the next replay.
        """
        runner = self._engine_runner
        if runner is not None and hasattr(runner, "close"):
            runner.close()

    def _session_engine(self):
        """``options.engine``, resolved once per session when stateful.

        Stateful engine names (``"process"``, ``"cluster"``, anything
        registered stateful) resolve to one session-owned instance —
        a *private* one, not :func:`get_engine`'s shared one, because the
        hot-swap restart on policy rebuilds must not tear down a pool
        other sessions or ad-hoc replays are using — so worker pools,
        daemons, and their rehydration caches survive across replays and
        TE hot swaps.  Stateless engine names pass through by name.
        """
        engine = self._options.engine
        if self._engine_runner is None:
            self._engine_runner = make_session_engine(engine)
        if self._engine_runner is not None:
            return self._engine_runner
        return engine

    # -- internals ---------------------------------------------------------

    def _require_current(self, what: str) -> None:
        if self._current is None:
            raise RuntimeError(f"run submit() before {what}()")

    def _base_link(self, a, b) -> tuple:
        """The canonical key of link ``a``-``b`` of the base topology.

        Raises :class:`TopologyError` for any other pair: a link that
        does not exist cannot fail or come back, and a phantom entry in
        the failure set would rename the effective topology.
        """
        graph = self._topology.graph
        if not (graph.has_edge(a, b) or graph.has_edge(b, a)):
            raise TopologyError(
                f"no link {a}-{b} in topology {self._topology.name!r}"
            )
        return _norm_link(a, b)

    @contextmanager
    def _event_transaction(self):
        """Roll session inputs back if an event fails mid-flight.

        Event methods set ``_program``/``_topology``/``_demands``/
        ``_failed`` before compiling; if the solve then raises (bad
        program, infeasible model), those inputs are restored so the
        session still describes ``current`` — the caller can catch the
        error and keep issuing events.  The certificates are dropped on
        failure.
        """
        saved = (self._program, self._topology, self._demands, self._failed)
        try:
            yield
        except Exception:
            self._program, self._topology, self._demands, self._failed = saved
            self._certificates.clear()
            raise

    def _certify(self, snapshot: Snapshot, solution, stats: dict) -> None:
        """Keep ``snapshot``'s routing if its solve proved optimality."""
        if solution.solver.get("status") == 0 and all(
            c.solution is not solution for c in self._certificates
        ):
            self._certificates.append(_Certificate(
                self._failed, solution, snapshot.routing, snapshot.rules, stats
            ))

    def _analysis(
        self, program: Program, topology: Topology, timer: PhaseTimer
    ) -> AnalysisResult:
        """Phases P1-P3 against an explicit topology (never ``self``'s).

        P1-P3 run the session's delta paths: the dependency slicer, the
        fingerprint-memoized sub-xFDD build, and the S_uv memo of
        finished mappings by root all reuse prior-generation work, and the
        reported xfdd counters are *per-compile deltas* of the session's
        cumulative counters, so they describe this compilation.
        """
        session = self._session
        full = program.full_policy()
        with timer.phase("P1"):
            dependencies = analyze_dependencies(full, slicer=session.dep_slicer)
        with timer.phase("P2"):
            composer = session.begin_compile(
                program.registry, dependencies.state_rank
            )
            pre = composer.cache_stats()
            memo_pre = session.stats()
            xfdd = session.build(full)
        with timer.phase("P3"):
            ports = sorted(topology.ports)
            mapping = packet_state_mapping(
                xfdd, ports, ports, memo=session.mapping_memo
            )
        stats = dict(composer.cache_stats())
        counters = (
            "cache_hits", "cache_misses",
            "leaf_hits", "leaf_misses",
            "branch_hits", "branch_misses",
        )
        for name in counters:
            if name in pre:
                stats[name] = stats[name] - pre[name]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        stats["cache_hit_rate"] = (
            stats["cache_hits"] / lookups if lookups else 0.0
        )
        memo_post = session.stats()
        stats["session_memo_hits"] = (
            memo_post["session_memo_hits"] - memo_pre["session_memo_hits"]
        )
        stats["session_memo_misses"] = (
            memo_post["session_memo_misses"] - memo_pre["session_memo_misses"]
        )
        stats["session_memo_entries"] = memo_post["session_memo_entries"]
        stats["session_compile_no"] = memo_post["session_compile_no"]
        xfdd_stats = {f"xfdd_{name}": value for name, value in stats.items()}
        return AnalysisResult(
            dependencies, xfdd, mapping, xfdd_stats, session.factory,
            *session.unit_reuse(full),
        )

    def _solve_key(self, topology: Topology, mapping, dependencies) -> tuple:
        """Content key over everything the ST solve reads.

        Two compilations with equal keys get byte-identical solutions
        (the MILP backend is deterministic given identical inputs), so
        the solve memo and certificate retention are sound exactly
        when this key captures every solve input: the effective graph,
        the traffic matrix, S_uv, the dependency constraints, and the
        solver options.
        """
        return (
            topology.name,
            tuple(topology.switches()),
            tuple(sorted(topology.ports.items())),
            tuple(sorted(topology.links())),
            tuple(sorted(self._demands.items())),
            tuple(
                sorted(
                    (pair, tuple(sorted(vars_)))
                    for pair, vars_ in mapping.items()
                )
            ),
            tuple(sorted(map(tuple, map(sorted, dependencies.tied)))),
            tuple(sorted(dependencies.dep)),
            tuple(sorted(dependencies.state_rank.items())),
            self._options.stateful_switches,
            self._options.solver_time_limit,
            self._options.mip_rel_gap,
        )

    def _compile_st(self, event: str) -> Snapshot:
        """Full recompilation: P1-P3, ST solve (or memo hit), finish."""
        with TRACER.span(f"controller.{event}", event=event) as span:
            snapshot = self._compile_st_traced(event)
            stats = snapshot.model_stats
            span.set_attr("generation", snapshot.generation)
            span.set_attr(
                "incremental_reused", stats.get("incremental_reused")
            )
            span.set_attr(
                "incremental_recompiled", stats.get("incremental_recompiled")
            )
            span.set_attr("solve_reused", stats.get("solve_reused"))
            span.set_attr("st_route", stats.get("st_route"))
            return snapshot

    def _compile_st_traced(self, event: str) -> Snapshot:
        timer = PhaseTimer()
        topology = self.effective_topology()
        analysis = self._analysis(self._program, topology, timer)
        solve_key = self._solve_key(
            topology, analysis.mapping, analysis.dependencies
        )
        cached = self._solve_memo.get(solve_key)
        if cached is not None:
            # Nothing the MILP sees changed: reuse the recorded solution
            # (deterministic solver — recompute would be byte-identical).
            # P4/P5 are entered so the snapshot's phase set still follows
            # Table 4; they record ~0, which is the honest cost.
            # Every input of P6's extraction, validation and rule tables
            # is in the key too, so those are the memo's, not redone.
            solution, routing, solve_stats, rules = cached
            with timer.phase("P4"):
                pass
            with timer.phase("P5"):
                pass
            self._solve_memo.move_to_end(solve_key)
        else:
            rules = None
            solution, routing, solve_stats = self._backend.solve_st(
                topology,
                self._demands,
                analysis.mapping,
                analysis.dependencies,
                self._options.stateful_switches,
                timer,
                time_limit=self._options.solver_time_limit,
                mip_rel_gap=self._options.mip_rel_gap,
            )
        # Certificates route a placement; they survive this recompilation
        # only when the solve inputs (hence the placement) are provably
        # unchanged.
        if solve_key != self._last_solve_key:
            self._certificates.clear()
        self._last_solve_key = solve_key
        stats = {
            **solve_stats,
            **analysis.stats,
            "incremental_reused": analysis.reused,
            "incremental_recompiled": analysis.recompiled,
            "solve_reused": cached is not None,
        }
        snapshot = self._finish(
            topology, self._program, analysis.dependencies, analysis.xfdd,
            analysis.mapping, solution, routing, timer, event, stats,
            analysis.factory, rules=rules,
        )
        self._certify(snapshot, solution, solve_stats)
        if cached is None:
            self._solve_memo[solve_key] = (
                solution, snapshot.routing, dict(solve_stats), snapshot.rules
            )
            while len(self._solve_memo) > SOLVE_MEMO_CAP:
                self._solve_memo.popitem(last=False)
        return snapshot

    def _reoptimize(self, event: str, demands_changed: bool = False) -> Snapshot:
        """TE event: a certified routing, or a re-solve."""
        with TRACER.span(f"controller.{event}", event=event) as span:
            snapshot = self._reoptimize_traced(event, demands_changed)
            span.set_attr("generation", snapshot.generation)
            span.set_attr("solve_reused", snapshot.model_stats["solve_reused"])
            span.set_attr("te_route", snapshot.model_stats.get("te_route"))
            return snapshot

    def _reoptimize_traced(self, event: str, demands_changed: bool) -> Snapshot:
        """TE solve, or the newest certificate that covers ``_failed``."""
        previous = self._current
        timer = PhaseTimer()
        topology = self.effective_topology()
        if demands_changed:
            self._certificates.clear()
        with timer.phase("P5"):
            reused = next((
                c for c in reversed(self._certificates)
                if c.failed <= self._failed and c.used.isdisjoint(self._failed)
            ), None)
            rules = None
            if reused is None:
                solution, routing, stats = self._solve_te(previous, topology)
            else:
                solution, routing, rules, stats = (
                    reused.solution, reused.routing, reused.rules, reused.stats
                )
        snapshot = self._finish(
            topology, previous.program, previous.dependencies,
            previous.xfdd, previous.mapping, solution, routing, timer, event,
            {**stats, "solve_reused": reused is not None},
            previous.diagram_factory, rules=rules, revalidate=True,
        )
        if reused is None:
            self._certify(snapshot, solution, stats)
        return snapshot

    def _solve_te(self, previous: Snapshot, topology: Topology) -> tuple:
        """``(solution, routing, stats)`` of a TE event on ``topology``.

        Certified shortest walks come with their routing; only when they
        fail is the pinned LP built on ``topology`` and solved, and P6
        extracts its paths."""
        inputs = (
            topology, self._demands, previous.mapping, previous.dependencies,
            dict(previous.placement), self._options.stateful_switches,
        )
        walk = self._backend.route_te(*inputs)
        if not isinstance(walk, str):
            return (*walk, {"te_route": "walk"})
        solution, stats = self._backend.solve_te(
            *inputs, time_limit=self._options.solver_time_limit
        )
        return solution, None, {**stats, "te_route": walk}

    def _finish(
        self, topology, program, dependencies, xfdd, mapping, solution,
        routing, timer, event, stats, diagram_factory, rules=None,
        revalidate=False,
    ) -> Snapshot:
        """P6 + snapshot construction + live-network hot swap.

        ``topology`` is the effective topology this solve ran against,
        threaded explicitly — the session's base topology is never
        temporarily mutated to smuggle it in.  ``rules`` come with a
        routing that was validated when they were built (a solve-memo
        hit) — on this topology unless ``revalidate`` (a certificate
        reused on a degraded graph); a routing without them (certified
        walks) is validated and built; with neither, P6 extracts,
        validates and builds.
        """
        with timer.phase("P6"):
            if routing is None:
                routing = extract_paths(solution, topology, mapping, dependencies)
            if rules is None or revalidate:
                validate_solution(routing, topology, mapping, dependencies)
            if rules is None:
                rules = build_rule_tables(routing)
        # What the solver said about its answer (status 1 is a
        # time-limited incumbent, not an optimum).
        stats = {**stats, "solver": dict(solution.solver)}
        snapshot = Snapshot(
            generation=self._generation + 1,
            event=event,
            scenario=EVENT_SCENARIOS[event],
            program=program,
            topology=topology,
            demands=self._demands,
            xfdd=xfdd,
            dependencies=dependencies,
            mapping=mapping,
            placement=solution.placement,
            routing=routing,
            objective=solution.objective,
            timer=timer,
            rules=rules,
            model_stats=stats,
            diagram_factory=diagram_factory,
        )
        # Build the successor network first, publish second, move state
        # last: a build that raises leaves the session as it was.
        live, successor = self._network, None
        if live is not None:
            successor = self._successor_network(live, snapshot)
        self._generation = snapshot.generation
        _CONTROLLER_EVENTS.labels(event=event).inc()
        _GENERATION.set(self._generation)
        self._current = snapshot
        self._history.append(snapshot)
        if successor is not None:
            self._swap_network(live, successor, snapshot)
        return snapshot

    def _successor_network(self, live: Network, snapshot: Snapshot) -> Network:
        """The data plane ``snapshot`` needs, ``live`` left untouched.

        * TE events (same xFDD, same placement) — ``rewire``: the
          compiled switch programs and their state stores are shared,
          only routing-derived structure is rebuilt;
        * cold start and policy changes — a full rebuild, stores empty.
        """
        if (
            snapshot.event != "cold_start"
            and snapshot.xfdd is live.index.root
            and dict(snapshot.placement) == live.placement
            # rewire keeps the stores, and a store keeps its defaults.
            and dict(snapshot.program.state_defaults) == live.state_defaults
            # The compiled switch set is only reusable if the new graph
            # has the same switches and the same port attachments (link
            # failures qualify; a replacement topology may not).
            and set(snapshot.topology.switches()) == set(live.topology.switches())
            and snapshot.topology.ports == live.topology.ports
        ):
            return live.rewire(
                snapshot.topology, snapshot.routing, dict(snapshot.demands),
                rules=snapshot.rules,
            )
        fresh = snapshot.build_network()
        fresh.default_engine = live.default_engine
        return fresh

    def _swap_network(self, live: Network, successor: Network, snapshot) -> None:
        """Make ``successor`` the live data plane; nothing here can fail.

        One rule: *a network whose state has a successor is retired*.  A
        rewired successor already shares ``live``'s stores; a rebuilt
        one has ``live``'s state tables moved into its placement.
        Either way ``live`` stops owning state and says which generation
        replaced it.  A cold start shares nothing and retires nothing.
        """
        self._network = successor
        rebuilt = successor.switches is not live.switches
        if snapshot.event != "cold_start":
            if rebuilt:
                successor.adopt_state(live)
            live.retired_by = f"generation {snapshot.generation}"
        if (
            rebuilt
            and successor.default_engine is self._engine_runner
            and self._engine_runner is not None
        ):
            # The old compiled programs are gone (a rewire keeps them,
            # and the workers' caches warm).  Restart only the pool this
            # session owns: a shared or user-supplied engine instance
            # may be serving other sessions, whose runs must not be
            # cancelled under them (worker caches key on exec tokens:
            # the restart is memory hygiene, not correctness).
            self._engine_runner.restart()

    def __repr__(self):
        name = self._program.name if self._program is not None else None
        return (
            f"SnapController({name!r} on {self._topology.name!r}, "
            f"generation={self._generation})"
        )
