"""Policy / xFDD lint: diagnostics over what the compiler proves.

Run as a CLI::

    python -m repro.analysis.lint stateful-firewall dns-tunnel-detect
    python -m repro.analysis.lint --all --format=json
    python -m repro.analysis.lint examples/quickstart.py

Targets are Table-3 application names (``repro.apps.ALL_APPS``), example
module paths, or bare example names resolved against ``examples/``.
Example modules must expose a zero-argument ``programs()`` returning the
:class:`~repro.core.program.Program` objects to lint.

Diagnostic code catalogue (stable; see ``docs/analysis.md``):

========== ======= ====================================================
code       level   meaning
========== ======= ====================================================
SNAP-E001  error   order-dependent ``Parallel`` write/write race
SNAP-E002  error   policy fails xFDD composition
SNAP-W101  warning benign commutative ``Parallel`` write/write overlap
SNAP-W102  warning ``Parallel`` read/write overlap (reads see pre-state)
SNAP-W103  warning non-atomic multi-variable update chain (transaction
                   hazard under concurrent in-flight packets)
SNAP-W104  warning state variable forces single-owner-lane collapse
                   (emitted by the shard planner, not this CLI)
SNAP-W201  warning unreachable xFDD branch arm (test determined by
                   ancestors on the same field)
SNAP-W301  warning state variable written but never tested
SNAP-W302  warning state variable tested but never written
SNAP-I401  info    ``Parallel`` arms with mutually unsatisfiable
                   assumptions (at most one arm ever applies)
========== ======= ====================================================

Exit status: 1 if any error-level finding was emitted (suppressed by
``--warn-only``), else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.analysis.effects import analyze_effects
from repro.lang import ast
from repro.lang.errors import CompileError, RaceConditionError
from repro.lang.values import values_disjoint
from repro.xfdd.paths import feasible_paths


@dataclass(frozen=True)
class LintFinding:
    code: str
    level: str  #: ``"error"`` | ``"warning"`` | ``"info"``
    message: str
    variable: str | None = None

    def to_dict(self) -> dict:
        out = {"code": self.code, "level": self.level, "message": self.message}
        if self.variable is not None:
            out["variable"] = self.variable
        return out


_LEVELS = {"E": "error", "W": "warning", "I": "info"}


def _finding(code: str, message: str, variable: str | None = None):
    return LintFinding(
        code=code, level=_LEVELS[code[5]], message=message, variable=variable
    )


# -- AST-level checks ---------------------------------------------------------


def _effect_findings(report) -> list:
    findings = []
    for race in report.races + report.hazards:
        findings.append(_finding(
            race.code,
            f"{race.message} [{race.site_a} | {race.site_b}]",
            variable=race.variable,
        ))
    for var, effect in sorted(report.variables.items()):
        if effect.sites and not effect.read_sites:
            findings.append(_finding(
                "SNAP-W301",
                f"state variable '{var}' is written but never tested "
                f"({effect.kind.value}); it only feeds external observers",
                variable=var,
            ))
        elif effect.read_sites and not effect.sites:
            findings.append(_finding(
                "SNAP-W302",
                f"state variable '{var}' is tested but never written; "
                "every test sees its initial value",
                variable=var,
            ))
    return findings


def _conjuncts(pred) -> list:
    """``(field, value, polarity)`` facts a predicate certainly implies."""
    if isinstance(pred, ast.Test):
        return [(pred.field, pred.value, True)]
    if isinstance(pred, ast.Not) and isinstance(pred.pred, ast.Test):
        return [(pred.pred.field, pred.pred.value, False)]
    if isinstance(pred, ast.And):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return []


def _arm_assumption(arm) -> list:
    """The leading predicate facts of one ``Parallel`` arm, if any."""
    if isinstance(arm, ast.Predicate):
        return _conjuncts(arm)
    if isinstance(arm, ast.Seq) and isinstance(arm.left, ast.Predicate):
        return _conjuncts(arm.left)
    if isinstance(arm, ast.If) and isinstance(arm.orelse, ast.Drop):
        return _conjuncts(arm.pred)
    return []


def _mutually_unsat(facts_a: list, facts_b: list) -> bool:
    for field_a, value_a, polarity_a in facts_a:
        for field_b, value_b, polarity_b in facts_b:
            if field_a != field_b:
                continue
            if polarity_a and polarity_b and values_disjoint(value_a, value_b):
                return True
            if polarity_a != polarity_b and value_a == value_b:
                return True
    return False


def _unsat_parallel_findings(policy) -> list:
    findings = []
    for node in ast.walk(policy):
        if not isinstance(node, ast.Parallel):
            continue
        facts_left = _arm_assumption(node.left)
        facts_right = _arm_assumption(node.right)
        if facts_left and facts_right and _mutually_unsat(facts_left, facts_right):
            findings.append(_finding(
                "SNAP-I401",
                "Parallel arms have mutually unsatisfiable assumptions: "
                "at most one arm ever applies per packet, so the "
                "composition is a disjoint union (an if-else would say "
                "the same thing)",
            ))
    return findings


# -- xFDD-level checks --------------------------------------------------------

#: A hash-consed DAG can hold exponentially many paths; lint reads at
#: most this many so it stays cheap on adversarial inputs.
_WALK_BUDGET = 50_000


def _decided_findings(root) -> list:
    """SNAP-W201 for each test a feasible path's facts already decide."""
    findings: dict = {}

    def report(test, forced):
        if (test, forced) not in findings:
            dead = "true" if not forced else "false"
            findings[(test, forced)] = _finding(
                "SNAP-W201",
                f"branch test '{test}' is already {forced} on this "
                f"path; its {dead} arm is unreachable",
            )

    for _ in islice(feasible_paths(root, on_decided=report), _WALK_BUDGET):
        pass
    return list(findings.values())


# -- one program --------------------------------------------------------------


def lint_program(program) -> list:
    """Every lint finding for one :class:`Program`, deterministically
    ordered by (code, message)."""
    policy = program.policy
    report = analyze_effects(policy)
    findings = _effect_findings(report)
    findings.extend(_unsat_parallel_findings(policy))
    try:
        from repro.analysis.dependency import analyze_dependencies
        from repro.xfdd.build import build_xfdd

        deps = analyze_dependencies(program.full_policy())
        xfdd = build_xfdd(
            program.full_policy(),
            registry=program.registry,
            state_rank=deps.state_rank,
        )
    except RaceConditionError as exc:
        findings.append(_finding(
            "SNAP-E001",
            f"xFDD composition found a parallel write/write race: {exc}",
        ))
    except CompileError as exc:
        findings.append(_finding(
            "SNAP-E002", f"policy fails xFDD composition: {exc}"
        ))
    else:
        findings.extend(_decided_findings(xfdd))
    findings.sort(key=lambda f: (f.code, f.message))
    return findings


def lint_diagram(root) -> list:
    """The xFDD-only checks, for callers holding a compiled diagram."""
    return sorted(
        _decided_findings(root), key=lambda f: (f.code, f.message)
    )


# -- CLI ----------------------------------------------------------------------


def _resolve_target(name: str) -> list:
    """A target name -> list of Programs (app, example path, or stem)."""
    from repro.apps import ALL_APPS

    if name in ALL_APPS:
        return [ALL_APPS[name]()]
    path = Path(name)
    if not path.suffix == ".py":
        candidate = Path("examples") / f"{name}.py"
        if candidate.exists():
            path = candidate
    if path.suffix == ".py" and path.exists():
        return _load_example(path)
    raise SystemExit(
        f"unknown lint target {name!r}: not a Table-3 app name "
        f"({', '.join(sorted(ALL_APPS))}) and no such example module"
    )


def _load_example(path: Path) -> list:
    import importlib.util

    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    builder = getattr(module, "programs", None)
    if builder is None:
        raise SystemExit(
            f"example module {path} has no programs() builder to lint"
        )
    return list(builder())


def _all_targets() -> list:
    from repro.apps import ALL_APPS

    targets = list(ALL_APPS)
    examples_dir = Path("examples")
    if examples_dir.is_dir():
        targets.extend(
            str(p) for p in sorted(examples_dir.glob("*.py"))
        )
    return targets


def run_lint(target_names) -> dict:
    """Lint every target; returns ``{target: [LintFinding]}``."""
    results = {}
    for name in target_names:
        findings = []
        for program in _resolve_target(name):
            findings.extend(lint_program(program))
        findings.sort(key=lambda f: (f.code, f.message))
        results[name] = findings
    return results


def _counts(findings) -> dict:
    counts = {"error": 0, "warning": 0, "info": 0}
    for finding in findings:
        counts[finding.level] += 1
    return counts


def render_json(results: dict) -> str:
    payload = {"targets": {}, "totals": {"error": 0, "warning": 0, "info": 0}}
    for name, findings in results.items():
        counts = _counts(findings)
        codes: dict = {}
        for finding in findings:
            codes[finding.code] = codes.get(finding.code, 0) + 1
        payload["targets"][name] = {
            "findings": [f.to_dict() for f in findings],
            "codes": dict(sorted(codes.items())),
            **counts,
        }
        for level, count in counts.items():
            payload["totals"][level] += count
    return json.dumps(payload, indent=2, default=str)


def render_text(results: dict) -> str:
    lines = []
    totals = {"error": 0, "warning": 0, "info": 0}
    for name, findings in results.items():
        if not findings:
            lines.append(f"{name}: clean")
            continue
        lines.append(f"{name}:")
        for finding in findings:
            lines.append(
                f"  {finding.code} {finding.level}: {finding.message}"
            )
            totals[finding.level] += 1
    lines.append(
        f"{totals['error']} error(s), {totals['warning']} warning(s), "
        f"{totals['info']} info"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static state-effect and xFDD lint for SNAP policies.",
    )
    parser.add_argument(
        "targets", nargs="*",
        help="Table-3 app names, example module paths, or example stems",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="lint every Table-3 app and every examples/*.py module",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="always exit 0, even with error-level findings",
    )
    args = parser.parse_args(argv)
    targets = _all_targets() if args.all else args.targets
    if not targets:
        parser.error("no targets given (name apps/examples or pass --all)")
    results = run_lint(targets)
    render = render_json if args.format == "json" else render_text
    print(render(results))
    has_errors = any(
        finding.level == "error"
        for findings in results.values()
        for finding in findings
    )
    return 1 if has_errors and not args.warn_only else 0


if __name__ == "__main__":
    sys.exit(main())
