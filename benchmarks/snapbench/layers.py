"""The traced run: spans around calls into each layer's public functions.

Spans are recorded from here, the benchmark's side of each boundary —
nothing in ``src/`` is instrumented for this.  The controller does not
expose its phases as calls, so :func:`stepwise` re-executes the pipeline
beside it, one public call per phase, exactly the calls
``SnapController._analysis`` / ``_compile_st_traced`` / ``_reoptimize``
/ ``_finish`` / ``_swap_network`` make for the same inputs; what the
controller call costs beyond the sum of those spans is the ``core`` row.
"""

from __future__ import annotations

import statistics

from repro import obs
from repro.analysis.dependency import analyze_dependencies
from repro.analysis.effects import analyze_effects
from repro.analysis.packet_state import packet_state_mapping
from repro.dataplane.engine import (
    ProcessPoolEngine,
    SequentialEngine,
    ShardedEngine,
    plan_shards,
)
from repro.dataplane.network import Network
from repro.dataplane.rules import build_rule_tables
from repro.dataplane.vector import (
    VectorEngine,
    VectorJitEngine,
    kernel_cache_stats,
    reset_kernel_stats,
)
from repro.cluster.engine import ClusterEngine
from repro.lang import ast, parse
from repro.milp.placement import PlacementInputs, PlacementModel
from repro.milp.results import extract_paths, validate_solution
from repro.milp.te import build_te_model
from repro.workloads import replay, replay_obs
from repro.xfdd.diagram import size as xfdd_size
from repro.xfdd.incremental import CompileSession

#: Packets of the trace each engine row runs (per-packet costs need no
#: more), and how many the OBS mirror is timed on (``eval`` is slow).
ENGINE_PACKETS = 50_000
OBS_MIRROR_PACKETS = 500


def ast_nodes(node) -> int:
    """Policy and expression nodes under ``node``."""
    children = (
        getattr(node, slot, None)
        for cls in type(node).__mro__
        for slot in getattr(cls, "__slots__", ())
        if not slot.startswith("_")
    )
    return 1 + sum(
        ast_nodes(child)
        for value in children
        for child in (value if isinstance(value, tuple) else (value,))
        if isinstance(child, (ast.Policy, ast.Expr))
    )


#: Stepwise span names whose sum is what the controller call should cost.
COLD_SPANS = (
    "lang.parse", "analysis.dependency", "xfdd.compose",
    "analysis.packet_state", "analysis.effects", "milp.st_build",
    "milp.st_solve", "milp.extract_paths", "milp.validate",
    "dataplane.rules", "dataplane.build_network",
)
TE_SPANS = (
    "milp.te_build", "milp.te_solve", "te.finish", "dataplane.rewire",
)
UPDATE_SPANS = (
    "update.dependency", "xfdd.incremental", "update.packet_state",
    "update.finish", "update.build_network", "dataplane.adopt_state",
)


def stepwise(workload, demands: dict, log) -> None:
    """One pass over cold start, TE event and policy update, a span per
    layer call.  ``demands`` is the controller's traffic matrix."""
    topology = workload.topology
    ports = sorted(topology.ports)

    # -- cold start: what submit() + network() do ---------------------------
    with log.span("lang.parse") as counts:
        policy = parse(workload.text)
        counts["nodes"] = ast_nodes(policy)
    program = workload.program()
    full = program.full_policy()
    session = CompileSession()
    with log.span("analysis.dependency"):
        dependencies = analyze_dependencies(full, slicer=session.dep_slicer)
    with log.span("xfdd.compose") as counts:
        composer = session.begin_compile(
            program.registry, dependencies.state_rank
        )
        xfdd = session.build(full)
        counts["nodes"] = xfdd_size(xfdd)
        counts["cache_hit_rate"] = composer.cache_stats()["cache_hit_rate"]
    with log.span("analysis.packet_state") as counts:
        mapping = packet_state_mapping(
            xfdd, ports, ports, memo=session.mapping_memo
        )
        counts["pairs"] = len(list(mapping.items()))
    with log.span("analysis.effects"):
        analyze_effects(program.policy)
    with log.span("milp.st_build") as counts:
        model = PlacementModel(
            PlacementInputs(topology, demands, mapping, dependencies, None)
        )
        counts["vars"] = model.model.num_vars
        counts["constraints"] = model.model.num_constraints
    with log.span("milp.st_solve"):
        solution = model.solve()
    # The backend's model dies when solve_st() returns; keeping 86 k
    # variables alive here would slow every later collection.
    del model
    with log.span("milp.extract_paths"):
        routing = extract_paths(solution, topology, mapping, dependencies)
    with log.span("milp.validate"):
        validate_solution(routing, topology, mapping, dependencies)
    with log.span("dataplane.rules") as counts:
        rules = build_rule_tables(routing)
        counts["count"] = rules.total_rules()
    placement = dict(solution.placement)
    with log.span("dataplane.build_network") as counts:
        network = Network(
            topology, xfdd, placement, routing, mapping, demands,
            program.state_defaults, rules=rules,
        )
        counts["instrs"] = sum(network.instruction_counts().values())
    with log.span("dataplane.plan_shards") as counts:
        counts["shards"] = plan_shards(network).parallelism

    # adopt_state below should move a populated store, as it does live.
    replay(list(workload.trace)[:ENGINE_PACKETS], network)

    # -- TE event: what fail_link() does ------------------------------------
    with log.span("milp.te_build"):
        te_model = build_te_model(
            topology, demands, mapping, dependencies, placement, None
        )
    te_model.fail_link(*workload.link)
    with log.span("milp.te_solve"):
        te_solution = te_model.solve()
    degraded = topology.without_link(*workload.link)
    with log.span("te.finish"):
        te_routing = extract_paths(te_solution, degraded, mapping, dependencies)
        validate_solution(te_routing, degraded, mapping, dependencies)
        te_rules = build_rule_tables(te_routing)
    with log.span("dataplane.rewire"):
        network.rewire(degraded, te_routing, demands, rules=te_rules)

    # -- policy update: what a warm update_policy() does --------------------
    # The solve memo hits on every edit, so no MILP call belongs here.
    edited = workload.edits[0]
    edited_full = edited.full_policy()
    with log.span("update.dependency"):
        dependencies = analyze_dependencies(
            edited_full, slicer=session.dep_slicer
        )
    before = session.stats()
    with log.span("xfdd.incremental") as counts:
        session.begin_compile(edited.registry, dependencies.state_rank)
        xfdd = session.build(edited_full)
        after = session.stats()
        hits = after["session_memo_hits"] - before["session_memo_hits"]
        misses = after["session_memo_misses"] - before["session_memo_misses"]
        counts["reuse_ratio"] = hits / (hits + misses)
    with log.span("update.packet_state"):
        mapping = packet_state_mapping(
            xfdd, ports, ports, memo=session.mapping_memo
        )
    with log.span("update.finish"):
        routing = extract_paths(solution, topology, mapping, dependencies)
        validate_solution(routing, topology, mapping, dependencies)
        rules = build_rule_tables(routing)
    with log.span("update.build_network"):
        fresh = Network(
            topology, xfdd, placement, routing, mapping, demands,
            edited.state_defaults, rules=rules,
        )
    with log.span("dataplane.adopt_state"):
        fresh.adopt_state(network)


def _summary(results) -> tuple:
    """(delivered copies, dropped copies, hops) of an engine's output."""
    delivered = dropped = hops = 0
    for records in results:
        for record in records:
            if record.egress is None:
                dropped += 1
            else:
                delivered += 1
                hops += record.hops
    return delivered, dropped, hops


def packet_side(workload, snapshot, log) -> tuple:
    """Every engine's ``run(network, trace)`` on a warm network built
    from ``snapshot``, plus the replay/telemetry/mirror rows.  Returns
    how many engines were compared with the sequential one and how many
    of them disagreed with it."""
    arrivals = list(workload.trace)[:ENGINE_PACKETS]
    warm_up = arrivals[: max(1, len(arrivals) // 10)]
    packets = len(arrivals)
    engines = (
        ("sequential", SequentialEngine()),
        ("sharded", ShardedEngine()),
        ("process", ProcessPoolEngine()),
        ("vector", VectorEngine()),
        ("vector-jit", VectorJitEngine()),
        ("cluster", ClusterEngine(workers=2)),
    )
    expected = None
    mismatches = 0
    for name, engine in engines:
        network = snapshot.build_network()
        try:
            engine.run(network, warm_up)
            # The first run ships the compiled programs; later ones of
            # the same network find them cached on the workers.
            shipped = getattr(engine, "last_run_stats", {})
            reset_kernel_stats()
            with log.span(f"engine.{name}", packets=packets) as counts:
                results = engine.run(network, arrivals)
            stats = getattr(engine, "last_run_stats", {})
            counts["kernel_calls"] = kernel_cache_stats()["kernel_calls"]
            counts["lanes"] = stats.get("lanes", 1)
            counts["replica_log_bytes"] = stats.get("replica_log_bytes", 0)
            counts["payload_bytes"] = stats.get("payload_bytes", 0)
            counts["spec_bytes"] = (
                shipped.get("program_bytes", 0) + shipped.get("network_bytes", 0)
            )
        finally:
            if hasattr(engine, "close"):
                engine.close()
        summary = _summary(results), network.global_store()
        if expected is None:
            expected = summary
            store = summary[1]
            counts["state_entries"] = sum(
                len(store.variable(var)) for var in store.names()
            )
            # replay() on the same warm network: what ReplayStats
            # materialisation adds to the engine's own run.
            with log.span("workloads.replay", packets=packets):
                replay(arrivals, network)
        elif summary != expected:
            mismatches += 1

    # Telemetry: the same sequential replay with the registry and tracer
    # off, process-wide, between two replays with the environment's
    # default (on) so that drift in machine speed cancels.
    network = snapshot.build_network()
    replay(warm_up, network)
    for config, name in (
        (None, "replay.telemetry_on"),
        ("off", "replay.telemetry_off"),
        (None, "replay.telemetry_on"),
    ):
        obs.configure(config)
        try:
            with log.span(name, packets=packets):
                replay(arrivals, network)
        finally:
            obs.configure(None)

    mirror = arrivals[:OBS_MIRROR_PACKETS]
    with log.span("workloads.obs_mirror", packets=len(mirror)):
        replay_obs(mirror, snapshot.program.full_policy())
    return len(engines) - 1, mismatches


def metrics(log, workload, solver_calls: list, overhead_pct: float) -> dict:
    """Every per-layer metric, by the names BENCHMARK.json lists."""

    def ns_per_pkt(name: str) -> float:
        return 1e9 * log.median(name) / log.count(name, "packets")

    def core_self(call: str, parts: tuple, per: int = 1) -> float:
        """Controller call minus the stepwise spans of the same round."""
        calls = log.by_round(call)
        covered = [log.by_round(part) for part in parts]
        return statistics.median(
            wall / per - sum(part.get(round_, 0.0) for part in covered)
            for round_, wall in calls.items()
        )

    packets = log.count("engine.sequential", "packets")
    return {
        "lang.parse.s": log.median("lang.parse"),
        "lang.parse.nodes": log.count("lang.parse", "nodes"),
        "analysis.dependency.s": log.median("analysis.dependency"),
        "analysis.packet_state.s": log.median("analysis.packet_state"),
        "analysis.packet_state.pairs": log.count("analysis.packet_state", "pairs"),
        "analysis.effects.s": log.median("analysis.effects"),
        "xfdd.compose.s": log.median("xfdd.compose"),
        "xfdd.nodes": log.count("xfdd.compose", "nodes"),
        "xfdd.cache_hit_rate": log.count("xfdd.compose", "cache_hit_rate"),
        "xfdd.incremental.s": log.median("xfdd.incremental"),
        "xfdd.incremental.reuse_ratio": log.count("xfdd.incremental", "reuse_ratio"),
        "milp.st_build.s": log.median("milp.st_build"),
        "milp.st_solve.s": log.median("milp.st_solve"),
        "milp.st_vars": log.count("milp.st_build", "vars"),
        "milp.st_constraints": log.count("milp.st_build", "constraints"),
        "milp.te_build.s": log.median("milp.te_build"),
        "milp.te_solve.s": log.median("milp.te_solve"),
        "milp.extract_paths.s": log.median("milp.extract_paths"),
        "milp.validate.s": log.median("milp.validate"),
        "milp.solver_calls": statistics.median(solver_calls),
        "dataplane.rules.s": log.median("dataplane.rules"),
        "dataplane.rules.count": log.count("dataplane.rules", "count"),
        "dataplane.build_network.s": log.median("dataplane.build_network"),
        "dataplane.netasm.instrs": log.count("dataplane.build_network", "instrs"),
        "dataplane.rewire.s": log.median("dataplane.rewire"),
        "dataplane.adopt_state.s": log.median("dataplane.adopt_state"),
        "dataplane.plan_shards.s": log.median("dataplane.plan_shards"),
        "dataplane.shards": log.count("dataplane.plan_shards", "shards"),
        "dataplane.engine.sequential.ns_per_pkt": ns_per_pkt("engine.sequential"),
        "dataplane.engine.sharded.ns_per_pkt": ns_per_pkt("engine.sharded"),
        "dataplane.engine.process.ns_per_pkt": ns_per_pkt("engine.process"),
        "dataplane.vector.ns_per_pkt": ns_per_pkt("engine.vector"),
        "dataplane.vector-jit.ns_per_pkt": ns_per_pkt("engine.vector-jit"),
        "dataplane.vector.kernel_calls": log.count("engine.vector", "kernel_calls"),
        "dataplane.replication.lanes": log.count("engine.sharded", "lanes"),
        "dataplane.replication.log_bytes_per_pkt": (
            log.count("engine.sharded", "replica_log_bytes") / packets
        ),
        "dataplane.state_entries": log.count("engine.sequential", "state_entries"),
        "cluster.run.ns_per_pkt": ns_per_pkt("engine.cluster"),
        "cluster.payload_bytes_per_pkt": (
            log.count("engine.cluster", "payload_bytes") / packets
        ),
        "cluster.spec_bytes": log.count("engine.cluster", "spec_bytes"),
        "workloads.replay.overhead_ns_per_pkt": (
            ns_per_pkt("workloads.replay") - ns_per_pkt("engine.sequential")
        ),
        "workloads.obs_mirror.pps": (
            log.count("workloads.obs_mirror", "packets")
            / log.median("workloads.obs_mirror")
        ),
        "workloads.tracegen.s": workload.tracegen_s,
        "core.submit.self_s": core_self("core.cold_start", COLD_SPANS),
        "core.fail_link.self_s": core_self("core.fail_link", TE_SPANS),
        "core.update_policy.self_s": core_self(
            "core.update_policy", UPDATE_SPANS, per=len(workload.edits)
        ),
        "obs.telemetry.ns_per_pkt": (
            ns_per_pkt("replay.telemetry_on") - ns_per_pkt("replay.telemetry_off")
        ),
        "bench.trace_overhead_pct": overhead_pct,
    }
