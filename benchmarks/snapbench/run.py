"""snapbench — the operator-scenario benchmark of this SNAP reproduction.

    python3 benchmarks/snapbench/run.py [--workload W] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
    python3 benchmarks/snapbench/run.py compare A.json B.json

One closed loop, one caller, one process per workload, default
``CompilerOptions()``.  Set-up (untimed, reported as ``setup_s``) builds
the workload and takes it through a whole round on a trace prefix,
checked against the OBS oracle; then every timed round is

    policy text -> SnapController -> submit() -> network()   cold_start_s
    replay(trace)                                            replay_pps
    fail_link(L)                                             te_event_s
    restore_link(L)
    E single-arm update_policy() edits                       policy_update_s
    replay(trace)                                            replay_pps
    close()

``--trace 0`` (default) prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run, bare ``--trace`` both.  The last line
of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from clock import OpClock, SpanLog, relative_speed, spin

PROCESS_START = time.perf_counter()

REPO = Path(__file__).resolve().parents[2]

#: ``--seconds`` the round counts in scenarios.SIZES are sized for.
RUN_SECONDS = 15
#: Fewest timed rounds a run may take, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Packets from the head of the trace the set-up oracle check replays,
#: and how many from its tail it replays while the link is down.
ORACLE_PACKETS = 500
ORACLE_DEGRADED_PACKETS = 100

# -- the tables BENCHMARK.json mirrors ---------------------------------------

WORKLOADS = (
    ("campus-ops",
     "every layer runs: six stateful apps on the campus network, half "
     "the packets drive state; the scalar walker is most of the round"),
    ("isp-compile",
     "120-switch ISP: MILP build and solve are >=95% of cold start and "
     "TE events; a dataplane change must not move it"),
    ("policy-churn",
     "12-app composite, 60 warm single-arm edits: the incremental path "
     "(P1, xFDD splice, P3, NetASM lowering) with the MILP memoized"),
    ("monitor-replay",
     "100k packets through the sharded monitor: delta-only writes, no "
     "state tests, six disjoint shards; compile is <2% of the round"),
)

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("cold_start_s", "s", "lower", 0.25),
    ("te_event_s", "s", "lower", 0.25),
    ("policy_update_s", "s", "lower", 0.25),
    ("replay_pps", "pkt/s", "higher", 0.25),
    ("scenario_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("routing_cost", "objective", "lower", 0.01),
    ("netasm_instrs", "count", "lower", 0.02),
    ("mean_hops", "hops", "lower", 0.03),
)

#: Reported beside the end-to-end metrics and gated by ``compare`` at
#: zero; not in BENCHMARK.json, whose bounds are shares of a median and
#: this one's median is 0 — the result's ``attempted``/``failed`` carry it.
FAILED_OPS_SHARE = ("failed_ops_share", "ratio", "lower", 0.0)

PER_LAYER = (
    ("lang.parse.s", "s", "lower"),
    ("lang.parse.nodes", "count", "lower"),
    ("analysis.dependency.s", "s", "lower"),
    ("analysis.packet_state.s", "s", "lower"),
    ("analysis.packet_state.pairs", "count", "lower"),
    ("analysis.effects.s", "s", "lower"),
    ("xfdd.compose.s", "s", "lower"),
    ("xfdd.nodes", "count", "lower"),
    ("xfdd.cache_hit_rate", "ratio", "higher"),
    ("xfdd.incremental.s", "s", "lower"),
    ("xfdd.incremental.reuse_ratio", "ratio", "higher"),
    ("milp.st_build.s", "s", "lower"),
    ("milp.st_solve.s", "s", "lower"),
    ("milp.st_vars", "count", "lower"),
    ("milp.st_constraints", "count", "lower"),
    ("milp.te_build.s", "s", "lower"),
    ("milp.te_solve.s", "s", "lower"),
    ("milp.extract_paths.s", "s", "lower"),
    ("milp.validate.s", "s", "lower"),
    ("milp.solver_calls", "count", "lower"),
    ("dataplane.rules.s", "s", "lower"),
    ("dataplane.rules.count", "count", "lower"),
    ("dataplane.build_network.s", "s", "lower"),
    ("dataplane.netasm.instrs", "count", "lower"),
    ("dataplane.rewire.s", "s", "lower"),
    ("dataplane.adopt_state.s", "s", "lower"),
    ("dataplane.plan_shards.s", "s", "lower"),
    ("dataplane.shards", "count", "higher"),
    ("dataplane.engine.sequential.ns_per_pkt", "ns/pkt", "lower"),
    ("dataplane.engine.sharded.ns_per_pkt", "ns/pkt", "lower"),
    ("dataplane.engine.process.ns_per_pkt", "ns/pkt", "lower"),
    ("dataplane.vector.ns_per_pkt", "ns/pkt", "lower"),
    ("dataplane.vector-jit.ns_per_pkt", "ns/pkt", "lower"),
    ("dataplane.vector.kernel_calls", "count", "lower"),
    ("dataplane.replication.lanes", "count", "higher"),
    ("dataplane.replication.log_bytes_per_pkt", "B/pkt", "lower"),
    ("dataplane.state_entries", "count", "lower"),
    ("cluster.run.ns_per_pkt", "ns/pkt", "lower"),
    ("cluster.payload_bytes_per_pkt", "B/pkt", "lower"),
    ("cluster.spec_bytes", "B", "lower"),
    ("workloads.replay.overhead_ns_per_pkt", "ns/pkt", "lower"),
    ("workloads.obs_mirror.pps", "pkt/s", "higher"),
    ("workloads.tracegen.s", "s", "lower"),
    ("core.submit.self_s", "s", "lower"),
    ("core.fail_link.self_s", "s", "lower"),
    ("core.update_policy.self_s", "s", "lower"),
    ("obs.telemetry.ns_per_pkt", "ns/pkt", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
)


# -- statistics --------------------------------------------------------------


def quartiles(values) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values):
    """The highest whole percentile with at least ten samples beyond it,
    as ``{"percentile", "value"}``, or None below twenty samples."""
    values = sorted(values)
    if len(values) < 20:
        return None
    return {
        "percentile": int(100 * (1 - 10 / len(values))),
        "value": values[len(values) - 11],
    }


def summarize(values) -> dict:
    """What a result records of one metric's samples."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    summary = {"value": median, "q1": q1, "q3": q3, "n": len(values),
               "samples": values}
    high = tail(values)
    if high is not None:
        summary["tail"] = high
    return summary


# -- run hygiene -------------------------------------------------------------


def scrub_environment() -> list:
    """Drop every ``SNAP_*`` variable: the numbers must be what a user
    with a clean environment gets.  Returns the names dropped."""
    dropped = sorted(name for name in os.environ if name.startswith("SNAP_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def environment_stamp() -> dict:
    import networkx
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout (the pipeline's copy is not)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": commit,
    }


# -- one round ---------------------------------------------------------------


def store_digest(hasher, store) -> None:
    for name in sorted(store.names()):
        variable = store.variable(name)
        entries = sorted(map(repr, variable.items()))
        hasher.update(repr((name, variable.default, entries)).encode())


def run_round(workload, clock: OpClock) -> dict:
    """One whole round; returns its observable outcome."""
    from repro.core.controller import SnapController
    from repro.workloads import replay

    def cold_start():
        controller = SnapController(workload.topology, workload.program())
        snapshot = controller.submit()
        controller.network()
        return controller, snapshot

    controller, snapshot = clock("cold_start", cold_start)
    try:
        instrs = sum(controller.network().instruction_counts().values())
        first = clock("replay", replay, workload.trace, controller.network())
        clock("fail_link", controller.fail_link, *workload.link)
        clock("restore_link", controller.restore_link, *workload.link)
        for edit in workload.edits:
            clock("update_policy", controller.update_policy, edit)
        second = clock("replay", replay, workload.trace, controller.network())
    finally:
        clock("close", controller.close)
    hasher = hashlib.blake2b(digest_size=16)
    for stats in (first, second):
        hasher.update(
            repr((stats.delivered, stats.dropped, stats.total_hops)).encode()
        )
    store_digest(hasher, controller.network().global_store())
    return {
        "digest": hasher.hexdigest(),
        "routing_cost": snapshot.objective,
        "netasm_instrs": instrs,
        "mean_hops": first.mean_hops,
        "solver_calls": sum(controller.backend.calls.values()),
        "snapshot": snapshot,
        "demands": dict(controller.demands),
    }


def ops_per_round(workload) -> int:
    return 6 + len(workload.edits)


# -- the oracle --------------------------------------------------------------


def oracle_check(workload, probes: list) -> tuple:
    """A whole round on a trace prefix against the OBS reference.

    Returns ``(checked, mismatched)``: per-packet delivered sets of every
    replay, plus the final store as one more check, compared with
    ``replay_obs`` (``eval_policy``) on the same sequence, the store
    carried across the edit.  Nothing is compared with another engine of
    the compiler under test.  A :func:`spin` goes onto ``probes`` after
    each step, for the calibration of ``setup_s``.
    """
    from repro.core.controller import SnapController
    from repro.dataplane.engine import get_engine
    from repro.lang.state import Store
    from repro.workloads import replay_obs

    arrivals = list(workload.trace)
    prefix = arrivals[:ORACLE_PACKETS]
    degraded = arrivals[-ORACLE_DEGRADED_PACKETS:]
    program = workload.program()
    edited = workload.edits[0]
    controller = SnapController(workload.topology, program)
    controller.submit()

    store = Store(program.state_defaults)
    checked = mismatched = 0

    def replay_both(batch, policy):
        nonlocal store, checked, mismatched
        network = controller.network()
        # The call replay() makes, keeping the per-packet records.
        results = get_engine(network.default_engine).run(network, batch)
        store, outputs = replay_obs(batch, policy, store)
        for records, expected in zip(results, outputs):
            delivered = frozenset(
                r.packet.without("inport") for r in records
                if r.egress is not None
            )
            checked += 1
            if delivered != frozenset(p.without("inport") for p in expected):
                mismatched += 1
        probes.append(spin())

    try:
        replay_both(prefix, program.full_policy())
        controller.fail_link(*workload.link)
        replay_both(degraded, program.full_policy())
        controller.restore_link(*workload.link)
        controller.update_policy(edited)
        replay_both(prefix, edited.full_policy())
        checked += 1
        if controller.network().global_store() != store:
            mismatched += 1
    finally:
        controller.close()
    return checked, mismatched


# -- one workload ------------------------------------------------------------


def round_timings(times: dict, packets: int) -> dict:
    """The five timing metrics of one round from its op times."""
    return {
        "cold_start_s": times["cold_start"][0],
        "te_event_s": times["fail_link"][0],
        # Per-arm cost is bimodal by design: a per-round mean here, the
        # median across rounds later.
        "policy_update_s": statistics.fmean(times["update_policy"]),
        "replay_pps": 2 * packets / sum(times["replay"]),
        "scenario_s": sum(map(sum, times.values())),
    }


def measure(name: str, seed: int, seconds: float, trace: str,
            smoke: bool) -> dict:
    """Run one workload in this process; returns the full result."""
    dropped = scrub_environment()
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"snapbench: no src/repro under {REPO}; run it "
                         "from a checkout of the whole repository")
    sys.path.insert(0, str(REPO / "src"))
    setup_spins = [spin()]
    import scenarios

    workload = scenarios.build(name, seed, smoke)
    setup_spins.append(spin())
    rounds = workload.rounds
    if not smoke:
        rounds = max(MIN_ROUNDS, round(rounds * seconds / RUN_SECONDS))
    packets = len(workload.trace)

    checked, mismatched = oracle_check(workload, setup_spins)
    attempted, failed = checked, mismatched
    # The trace and the edits are the harness's data, not the program's:
    # keep them out of every later collection, or the collect before
    # each timed op costs more than the ops of a small workload.
    gc.collect()
    gc.freeze()
    setup_wall = time.perf_counter() - PROCESS_START
    setup_s = setup_wall * relative_speed(setup_spins)

    reference = None  # the first round's digest; every round must match

    def timed_rounds(count: int, log=None) -> tuple:
        """``count`` rounds: their clocks and their outcomes."""
        nonlocal attempted, failed, reference
        clocks, outcomes = [], []
        for number in range(count):
            clock = OpClock(log)
            attempted += ops_per_round(workload) + 1
            if log is not None:
                log.round = number
            try:
                with log.span("round") if log is not None else nullcontext():
                    outcome = run_round(workload, clock)
            except Exception as error:  # an op raised: the round is lost
                failed += ops_per_round(workload) - clock.completed + 1
                print(f"round {number} failed: {error!r}", file=sys.stderr)
                continue
            if reference is None:
                reference = outcome["digest"]
            elif outcome["digest"] != reference:
                failed += 1
            clocks.append(clock)
            outcomes.append(outcome)
        if not outcomes:
            raise RuntimeError(f"{name}: no round completed")
        return clocks, outcomes

    def scenario_median(clocks) -> float:
        return statistics.median(
            round_timings(clock.times, packets)["scenario_s"] for clock in clocks
        )

    result = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "rounds": rounds,
        "traffic": workload.traffic_properties,
        "env": {**environment_stamp(), "scrubbed": dropped,
                "hashseed": os.environ.get("PYTHONHASHSEED")},
        "end_to_end": {},
        "per_layer": {},
        "spans": [],
    }

    if trace in ("0", "both"):
        clocks, outcomes = timed_rounds(rounds)
        calibrated = [round_timings(clock.times, packets) for clock in clocks]
        wall = [round_timings(clock.wall, packets) for clock in clocks]
        e2e = {
            metric: {
                **summarize(row[metric] for row in calibrated),
                "wall": statistics.median(row[metric] for row in wall),
            }
            for metric in calibrated[0]
        }
        per_edit = tail(
            [t for clock in clocks for t in clock.times["update_policy"]]
        )
        if per_edit is not None:
            e2e["policy_update_s"]["tail"] = per_edit
        first = outcomes[0]
        e2e["setup_s"] = {**summarize([setup_s]), "wall": setup_wall}
        e2e["peak_rss_mb"] = summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        )
        for metric in ("routing_cost", "netasm_instrs", "mean_hops"):
            e2e[metric] = summarize([first[metric]])
        e2e["failed_ops_share"] = summarize([failed / attempted])
        result["end_to_end"] = e2e

    if trace in ("1", "both"):
        import layers

        log = SpanLog(name)
        traced = workload.traced_rounds
        plain_clocks, _ = timed_rounds(traced)
        traced_clocks, outcomes = timed_rounds(traced, log)
        overhead_pct = 100 * (
            scenario_median(traced_clocks) / scenario_median(plain_clocks) - 1
        )
        last = outcomes[-1]
        for number in range(traced):
            log.round = number
            with log.span("stepwise"):
                layers.stepwise(workload, last["demands"], log)
        log.round = 0
        with log.span("packet_side"):
            compared, wrong = layers.packet_side(
                workload, last["snapshot"], log
            )
        attempted += compared
        failed += wrong
        result["per_layer"] = {
            metric: {"value": value}
            for metric, value in layers.metrics(
                log, workload, [o["solver_calls"] for o in outcomes],
                overhead_pct,
            ).items()
        }
        result["spans"] = log.spans

    result["attempted"] = attempted
    result["failed"] = failed
    return result


# -- output ------------------------------------------------------------------


def print_result(result: dict) -> None:
    tag = " (smoke)" if result["smoke"] else ""
    traffic = result["traffic"]
    print(f"\n== {result['workload']}{tag}  seed {result['seed']}  "
          f"{result['rounds']} rounds  {traffic['packets']} packets, "
          f"{traffic['stateful_share']:.0%} stateful, "
          f"{traffic['distinct_clients']} clients ==")
    if result["end_to_end"]:
        print(f"{'end-to-end metric':<24}{'unit':<11}{'median':>14}"
              f"{'q1':>14}{'q3':>14}{'n':>4}{'wall median':>14}  tail")
        for name, unit, _better, _bound in END_TO_END + (FAILED_OPS_SHARE,):
            row = result["end_to_end"][name]
            high = row.get("tail")
            note = f"p{high['percentile']}={high['value']:.6g}" if high else ""
            wall = f"{row['wall']:.6g}" if "wall" in row else ""
            print(f"{name:<24}{unit:<11}{row['value']:>14.6g}"
                  f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}"
                  f"{wall:>14}  {note}")
    if result["per_layer"]:
        print(f"{'per-layer metric':<44}{'unit':<9}{'value':>14}")
        for name, unit, _better in PER_LAYER:
            print(f"{name:<44}{unit:<9}"
                  f"{result['per_layer'][name]['value']:>14.6g}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")


def contract_line(result: dict, trace: str) -> str:
    """The one JSON object the pipeline reads from the last line."""
    if trace == "1":
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = result["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name]["value"], "unit": unit}
            for name, unit in units.items()
        },
    })


def append_result(path: Path, result: dict) -> None:
    """Append the run to a result set; spans go beside it, per workload.

    A set is all-smoke or all-full: mixed rows are how BENCH_xfdd.json
    ended up with smoke numbers checked in as the trajectory.
    """
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    if any(run["smoke"] != result["smoke"] for run in runs):
        raise SystemExit(
            f"{path} holds {'full' if result['smoke'] else 'smoke'} runs; "
            f"refusing to mix a {'smoke' if result['smoke'] else 'full'} run in"
        )
    spans = result.pop("spans")
    if spans:
        trace_path = path.parent / f"trace-{result['workload']}.json"
        trace_path.write_text(json.dumps(spans, indent=1) + "\n")
    runs.append(result)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


# -- compare -----------------------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (end-to-end metric, workload); 1 if any regressed."""
    sets = []
    for path in (path_a, path_b):
        runs = json.loads(path.read_text())["runs"]
        if any(run["smoke"] for run in runs):
            raise SystemExit(f"{path} holds smoke runs; compare full runs")
        grouped: dict = defaultdict(lambda: defaultdict(list))
        for run in runs:
            for metric, row in run["end_to_end"].items():
                grouped[run["workload"]][metric].append(row["value"])
        sets.append(grouped)
    before, after = sets
    print(f"{'workload':<16}{'metric':<18}{'A median':>12}{'A q1..q3':>24}"
          f"{'B median':>12}{'B q1..q3':>24}{'worse':>8}{'spread':>8}"
          f"{'bound':>7}  verdict")
    regressed = 0
    for workload, _why in WORKLOADS:
        for metric, _unit, better, bound in END_TO_END + (FAILED_OPS_SHARE,):
            a = before[workload][metric]
            b = after[workload][metric]
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            sign = 1 if better == "lower" else -1
            # How much worse B's median is, as a share of A's (absolute
            # for a metric whose baseline is 0).
            worse = sign * (b_med - a_med) / (a_med or 1)
            # The wider set's interquartile range, as a share of A's median.
            spread = max(a_q3 - a_q1, b_q3 - b_q1) / (abs(a_med) or 1)
            apart = (
                min(b) > max(a) or max(b) < min(a)
            )  # every run of one side beyond every run of the other
            if spread > bound and not apart:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{workload:<16}{metric:<18}{a_med:>12.5g}"
                  f"{f'{a_q1:.5g}..{a_q3:.5g}':>24}{b_med:>12.5g}"
                  f"{f'{b_q1:.5g}..{b_q3:.5g}':>24}{worse:>8.1%}{spread:>8.1%}"
                  f"{bound:>7.0%}  {verdict}")
    return 1 if regressed else 0


# -- command line ------------------------------------------------------------


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already there.

    Set iteration order decides which of several equally cheap
    placements the MILP returns (same ``routing_cost``, different
    ``netasm_instrs``, hops and replay speed); an unpinned seed makes
    every exact metric, and the timings that follow placement, differ
    from one process to the next.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main() -> int:
    pin_hash_seed()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    names = [name for name, _why in WORKLOADS]
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all four, a process each)")
    parser.add_argument("--seed", type=int, default=7,
                        help="trace generator seed (topology seeds are fixed)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed rounds should take")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end; 1: per-layer (traced run); "
                             "no value: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; the output is marked smoke")
    parser.add_argument("--out", type=Path,
                        help="result-set JSON to append the run to")
    commands = parser.add_subparsers(dest="command")
    comparing = commands.add_parser("compare", help="compare two result sets")
    comparing.add_argument("a", type=Path)
    comparing.add_argument("b", type=Path)
    args = parser.parse_args()

    if args.command == "compare":
        return compare(args.a, args.b)

    if args.workload is None:
        # One process per workload, so set-up time and peak memory are
        # each workload's own.
        status = 0
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, *sys.argv[1:]]
            status |= subprocess.run(command).returncode
        return status

    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke)
    print_result(result)
    if args.out is not None:
        append_result(args.out, result)
    print(contract_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
