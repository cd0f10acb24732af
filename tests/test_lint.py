"""Tests for the policy/xFDD lint pass (``repro.analysis.lint``).

The checked-in expectations file (``tests/data/lint_expected.json``) pins
the per-target diagnostic-code counts for every Table-3 app and example
module — CI runs the CLI over the same set, so a lint regression shows
up as a diff against this table.  Counts (not finding order or message
text) are asserted because message rendering may evolve; the codes are
the stable contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintFinding,
    _all_targets,
    lint_diagram,
    lint_program,
    main,
    render_json,
    render_text,
    run_lint,
)
from repro.core.program import Program
from repro.lang import ast
from repro.xfdd.diagram import DROP, IDENTITY, make_branch
from repro.xfdd.tests import FieldValueTest

EXPECTED_PATH = Path(__file__).parent / "data" / "lint_expected.json"


def _code_counts(findings) -> dict:
    counts: dict = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return counts


# -- the checked-in expectations ----------------------------------------------


class TestExpectations:
    @pytest.fixture(scope="class")
    def results(self):
        return run_lint(_all_targets())

    def test_all_targets_match_expectations(self, results):
        expected = json.loads(EXPECTED_PATH.read_text())
        actual = {
            name: _code_counts(findings)
            for name, findings in sorted(results.items())
        }
        assert actual == expected

    def test_no_error_level_findings_anywhere(self, results):
        """Every shipped app and example lints error-free: the CLI's
        exit-1 path never fires on the repo's own programs."""
        errors = [
            (name, f.code)
            for name, findings in results.items()
            for f in findings
            if f.level == "error"
        ]
        assert errors == []

    def test_findings_deterministically_ordered(self, results):
        for findings in results.values():
            keys = [(f.code, f.message) for f in findings]
            assert keys == sorted(keys)


# -- seeded diagnostics -------------------------------------------------------


def _racy_program() -> Program:
    policy = ast.Seq(
        ast.Parallel(
            ast.StateMod("s", ast.Value(0), ast.Value(1)),
            ast.StateMod("s", ast.Value(0), ast.Value(2)),
        ),
        ast.Mod("outport", 2),
    )
    return Program(policy, name="racy")


class TestSeededDiagnostics:
    def test_racy_parallel_is_an_error(self):
        findings = lint_program(_racy_program())
        codes = _code_counts(findings)
        assert codes.get("SNAP-E001", 0) >= 1
        assert all(
            f.level == "error"
            for f in findings
            if f.code == "SNAP-E001"
        )

    def test_unsat_parallel_arms_are_info(self):
        arm = lambda port, var: ast.If(
            ast.Test("srcport", port),
            ast.StateIncr(var, ast.Value(0)),
            ast.Drop(),
        )
        policy = ast.Seq(
            ast.Parallel(arm(1, "x"), arm(2, "y")), ast.Mod("outport", 2)
        )
        findings = lint_program(Program(policy, name="unsat-arms"))
        assert _code_counts(findings).get("SNAP-I401") == 1
        info = [f for f in findings if f.code == "SNAP-I401"]
        assert info[0].level == "info"

    def test_overlapping_arm_assumptions_not_flagged(self):
        arm = lambda port, var: ast.If(
            ast.Test("srcport", port),
            ast.StateIncr(var, ast.Value(0)),
            ast.Drop(),
        )
        policy = ast.Seq(
            ast.Parallel(arm(1, "x"), arm(1, "y")), ast.Mod("outport", 2)
        )
        findings = lint_program(Program(policy, name="sat-arms"))
        assert "SNAP-I401" not in _code_counts(findings)

    def test_unreachable_branch_in_hand_built_diagram(self):
        # fa=1 ? (fa=2 ? id : drop) : drop — inside the hi arm fa is
        # known to be 1, so the fa=2 test is forced false: its true arm
        # is dead.  compose() never builds this shape (restrict prunes
        # it), so the check needs a hand-made diagram.
        inner = make_branch(FieldValueTest("srcport", 2), IDENTITY, DROP)
        root = make_branch(FieldValueTest("srcport", 1), inner, DROP)
        findings = lint_diagram(root)
        assert _code_counts(findings) == {"SNAP-W201": 1}
        assert "unreachable" in findings[0].message

    def test_clean_diagram_has_no_findings(self):
        root = make_branch(FieldValueTest("srcport", 1), IDENTITY, DROP)
        assert lint_diagram(root) == []

    def test_written_never_tested_and_tested_never_written(self):
        policy = ast.Seq(
            ast.StateIncr("w-only", ast.Value(0)),
            ast.If(
                ast.StateTest("r-only", (ast.Value(0),), ast.Value(1)),
                ast.Drop(),
                ast.Mod("outport", 2),
            ),
        )
        codes = _code_counts(lint_program(Program(policy, name="rw")))
        assert codes.get("SNAP-W301") == 1
        assert codes.get("SNAP-W302") == 1


# -- CLI ----------------------------------------------------------------------


def _write_racy_example(tmp_path) -> Path:
    path = tmp_path / "racy_example.py"
    path.write_text(
        "from repro.core.program import Program\n"
        "from repro.lang import ast\n\n\n"
        "def programs():\n"
        "    policy = ast.Seq(\n"
        "        ast.Parallel(\n"
        "            ast.StateMod('s', ast.Value(0), ast.Value(1)),\n"
        "            ast.StateMod('s', ast.Value(0), ast.Value(2)),\n"
        "        ),\n"
        "        ast.Mod('outport', 2),\n"
        "    )\n"
        "    return [Program(policy, name='racy')]\n"
    )
    return path


class TestCli:
    def test_clean_app_exits_zero(self, capsys):
        assert main(["stateful-firewall"]) == 0
        out = capsys.readouterr().out
        assert "stateful-firewall" in out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        path = _write_racy_example(tmp_path)
        assert main([str(path)]) == 1
        assert "SNAP-E001" in capsys.readouterr().out

    def test_warn_only_suppresses_exit_code(self, tmp_path, capsys):
        path = _write_racy_example(tmp_path)
        assert main([str(path), "--warn-only"]) == 0

    def test_json_format_structure(self, capsys):
        assert main(["stateful-firewall", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"targets", "totals"}
        target = payload["targets"]["stateful-firewall"]
        assert set(target) >= {"findings", "codes", "error", "warning", "info"}
        assert target["error"] == 0

    def test_bare_example_stem_resolves(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent.parent)
        assert main(["quickstart"]) == 0
        assert "SNAP-W" in capsys.readouterr().out

    def test_unknown_target_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["no-such-app"])

    def test_no_targets_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_json_output_does_not_depend_on_the_hash_seed(self):
        """Set order must not reach a finding: SNAP-W103 names its
        groups and representative sites the same under every seed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).parent.parent / "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "repro.analysis.lint", "--all",
                 "--format=json"],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                text=True, timeout=120, check=True,
            ).stdout
            for seed in ("0", "2")
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["targets"]


# -- renderers ----------------------------------------------------------------


class TestRenderers:
    def test_text_render_counts(self):
        findings = {
            "t": [
                LintFinding("SNAP-W301", "warning", "w"),
                LintFinding("SNAP-I401", "info", "i"),
            ],
            "clean": [],
        }
        text = render_text(findings)
        assert "clean: clean" in text
        assert "0 error(s), 1 warning(s), 1 info" in text

    def test_json_render_totals(self):
        findings = {"t": [LintFinding("SNAP-E001", "error", "e")]}
        payload = json.loads(render_json(findings))
        assert payload["totals"]["error"] == 1
        assert payload["targets"]["t"]["codes"] == {"SNAP-E001": 1}
