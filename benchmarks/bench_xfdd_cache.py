"""xFDD apply-cache micro-benchmark (Table 3 applications).

For every Table 3 application (composed with assign-egress, as deployed),
measures xFDD composition time with the operation cache on vs. off and
reports the hit rate and intern-table size.  Writes a machine-readable
``BENCH_xfdd.json`` next to this file so future PRs can track the
trajectory of the composition engine.
"""

import time

import pytest

from repro.analysis.dependency import analyze_dependencies
from repro.apps import ALL_APPS, assign_egress, default_subnets, port_assumption
from repro.core.program import Program
from repro.lang import ast
from repro.xfdd.build import to_xfdd
from repro.xfdd.compose import Composer
from repro.xfdd.diagram import DiagramFactory, size
from repro.xfdd.order import TestOrder

from conftest import merge_bench_results
from workloads import print_table

_RESULTS = []
_ROUNDS = 3


def _deployed_program(app) -> Program:
    subnets = default_subnets(6)
    return Program(
        ast.Seq(app.policy, assign_egress(subnets)),
        assumption=port_assumption(subnets),
        state_defaults=app.state_defaults,
        registry=app.registry,
        name=app.name,
    )


def _compose_time(policy, registry, state_rank, use_cache: bool):
    """Best-of-N wall time of a full fresh-session composition."""
    best, composer = float("inf"), None
    for _ in range(_ROUNDS):
        order = TestOrder(registry, state_rank)
        composer = Composer(order, factory=DiagramFactory(), use_cache=use_cache)
        t0 = time.perf_counter()
        xfdd = to_xfdd(policy, composer)
        best = min(best, time.perf_counter() - t0)
    return best, composer, xfdd


@pytest.mark.parametrize("app_name", list(ALL_APPS))
def test_compose_cache(benchmark, app_name):
    app = ALL_APPS[app_name]()
    program = _deployed_program(app)
    policy = program.full_policy()
    state_rank = analyze_dependencies(policy).state_rank

    def run():
        return _compose_time(policy, program.registry, state_rank, True)

    cached_s, composer, xfdd = benchmark.pedantic(run, iterations=1, rounds=1)
    uncached_s, _, _ = _compose_time(policy, program.registry, state_rank, False)
    stats = composer.cache_stats()
    speedup = uncached_s / cached_s if cached_s else float("inf")
    _RESULTS.append({
        "app": app_name,
        "xfdd_size": size(xfdd),
        "cached_ms": round(cached_s * 1000, 3),
        "uncached_ms": round(uncached_s * 1000, 3),
        "speedup": round(speedup, 2),
        "hit_rate": round(stats["cache_hit_rate"], 4),
        "cache_entries": stats["cache_entries"],
        "intern_size": stats["intern_size"],
    })


def test_cache_key_mode_study(benchmark):
    """Apply-cache key study: ``id`` operand keys vs structural keys.

    Two candidate keys for the ``(op, operands, ctx)`` apply-cache entry:
    the production ``id()`` key (injective per factory thanks to
    interning; one C call to compute) and the content ``structural_key``
    (a cached blake2b digest of the sub-diagram; identity-insensitive,
    so equal diagrams from different sessions would share entries).
    Within one factory the two are *logically equivalent* — interning
    makes equal diagrams the same object — so hit rates must match and
    the only difference is key-construction cost.  The study pins that
    reasoning with numbers; the conclusion (keep ``id``) is recorded in
    ``docs/performance.md``.
    """
    rows = []
    for app_name in ALL_APPS:
        app = ALL_APPS[app_name]()
        program = _deployed_program(app)
        policy = program.full_policy()
        state_rank = analyze_dependencies(policy).state_rank
        per_mode = {}
        for mode in ("id", "structural"):
            best, composer = float("inf"), None
            for _ in range(_ROUNDS):
                order = TestOrder(program.registry, state_rank)
                composer = Composer(
                    order, factory=DiagramFactory(), key_mode=mode
                )
                t0 = time.perf_counter()
                to_xfdd(policy, composer)
                best = min(best, time.perf_counter() - t0)
            stats = composer.cache_stats()
            per_mode[mode] = {
                "ms": round(best * 1000, 3),
                "hit_rate": round(stats["cache_hit_rate"], 4),
                "hits": stats["cache_hits"],
            }
        rows.append({
            "app": app_name,
            "id": per_mode["id"],
            "structural": per_mode["structural"],
            "overhead": round(
                per_mode["structural"]["ms"] / per_mode["id"]["ms"], 2
            ) if per_mode["id"]["ms"] else 1.0,
        })
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    print_table(
        "apply-cache key study: id vs structural operand keys",
        ("application", "id", "structural", "id hit%", "struct hit%",
         "struct/id"),
        [
            (
                row["app"],
                f"{row['id']['ms']:.1f}ms",
                f"{row['structural']['ms']:.1f}ms",
                f"{row['id']['hit_rate'] * 100:.0f}%",
                f"{row['structural']['hit_rate'] * 100:.0f}%",
                f"{row['overhead']:.2f}x",
            )
            for row in rows
        ],
    )
    # Interning makes the keys equivalent within a factory: identical
    # hit *counts*, not merely similar rates.  A divergence here means
    # structural_key collides or interning broke — both are bugs.
    for row in rows:
        assert row["id"]["hits"] == row["structural"]["hits"], row["app"]
    merge_bench_results("cache_key_study", rows)


def test_zz_report(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert len(_RESULTS) == len(ALL_APPS)
    print_table(
        "xFDD composition: apply-cache on vs off (Table 3 apps + egress)",
        ("application", "xFDD size", "cached", "uncached", "speedup",
         "hit rate", "intern"),
        [
            (
                row["app"],
                row["xfdd_size"],
                f"{row['cached_ms']:.1f}ms",
                f"{row['uncached_ms']:.1f}ms",
                f"{row['speedup']:.2f}x",
                f"{row['hit_rate'] * 100:.0f}%",
                row["intern_size"],
            )
            for row in _RESULTS
        ],
    )
    # Merge: other benches (e.g. bench_controller_events) own other keys.
    merge_bench_results("apps", _RESULTS)
    # The engine must be caching *something* on every app.
    assert all(row["hit_rate"] > 0 for row in _RESULTS)
    # cached/uncached is reported, not gated: a cold compile pays for
    # entries (~0.6-0.75x of the uncached time on most apps) that the
    # next generation's compile of an edited program hits — what the
    # cache is for is snapbench's `policy_update_s`, which is gated.
