"""Tests for ``repro.lintkit`` — the AST-based invariant checker.

Each rule is exercised with inline fixture snippets, positive (the rule
must fire) and negative (clean or exempt code must stay silent).  The
engine-level behaviours — inline suppressions, parse-error reporting,
one pipeline behind both entry points — and the CLI's exit codes / JSON
output are covered at the bottom.  The final test lints the actual repository
tree, which is the acceptance criterion for the whole subsystem.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lintkit import Finding, all_rules, lint_paths, lint_sources
from repro.lintkit.cli import main
from repro.lintkit.engine import PARSE_ERROR_ID, display_path
from repro.lintkit.rules.api_rules import DeclaredAllRule, StaleAllRule
from repro.lintkit.rules.config_rules import FrozenConfigRule, MutableDefaultRule
from repro.lintkit.rules.control_rules import SilentExceptRule, UnboundedPIDRule
from repro.lintkit.rules.determinism import (
    RandomModuleImportRule,
    RngConstructionRule,
    WallClockRule,
)
from repro.lintkit.rules.robustness_rules import SwallowedExceptionRule
from repro.lintkit.rules.units_rules import MagicUnitLiteralRule
from repro.lintkit.suppress import parse_comment

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_rules(source: str, rules, path: str = "<string>") -> list[Finding]:
    """The findings of ``rules`` on one in-memory module."""
    report = lint_sources({path: source}, rules=rules, analyses=("rules",))
    return list(report.findings)


def run_rule(rule, source: str, path: str = "mod.py") -> list[Finding]:
    """Lint a dedented snippet with exactly one rule."""
    return lint_rules(textwrap.dedent(source), [rule], path=path)


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# DET001 — numpy.random outside rng.py
# ---------------------------------------------------------------------------


class TestRngConstructionRule:
    def test_default_rng_via_alias_fires(self):
        findings = run_rule(
            RngConstructionRule(),
            """
            import numpy as np

            gen = np.random.default_rng(0)
            """,
        )
        assert rule_ids(findings) == ["DET001"]
        assert "repro.rng" in findings[0].message

    def test_legacy_global_seed_fires(self):
        findings = run_rule(
            RngConstructionRule(),
            """
            import numpy

            numpy.random.seed(1234)
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_from_import_alias_resolved(self):
        findings = run_rule(
            RngConstructionRule(),
            """
            from numpy import random as nprand

            gen = nprand.default_rng(7)
            """,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_rng_module_is_exempt(self):
        findings = run_rule(
            RngConstructionRule(),
            """
            import numpy as np

            gen = np.random.default_rng(0)
            """,
            path="src/repro/rng.py",
        )
        assert findings == []

    def test_passed_in_generator_is_clean(self):
        findings = run_rule(
            RngConstructionRule(),
            """
            def draw(rng):
                return rng.normal(0.0, 1.0)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# DET002 — stdlib random banned
# ---------------------------------------------------------------------------


class TestRandomModuleImportRule:
    def test_plain_import_fires(self):
        findings = run_rule(RandomModuleImportRule(), "import random\n")
        assert rule_ids(findings) == ["DET002"]

    def test_from_import_fires(self):
        findings = run_rule(
            RandomModuleImportRule(), "from random import choice\n"
        )
        assert rule_ids(findings) == ["DET002"]

    def test_numpy_random_import_is_not_stdlib_random(self):
        findings = run_rule(RandomModuleImportRule(), "import numpy.random\n")
        assert findings == []

    def test_relative_random_module_is_clean(self):
        # `from .random import x` refers to a local module, not the stdlib.
        findings = run_rule(
            RandomModuleImportRule(), "from .random import draws\n"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# DET003 — wall-clock reads
# ---------------------------------------------------------------------------


class TestWallClockRule:
    def test_time_time_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            stamp = time.time()
            """,
        )
        assert rule_ids(findings) == ["DET003"]

    def test_datetime_now_via_from_import_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            from datetime import datetime

            stamp = datetime.now()
            """,
        )
        assert rule_ids(findings) == ["DET003"]

    def test_perf_counter_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            t0 = time.perf_counter()
            """,
        )
        assert rule_ids(findings) == ["DET003"]

    def test_relative_module_named_time_is_not_the_stdlib(self):
        # Relative imports resolve inside the package: repro.time.time.
        findings = run_rule(
            WallClockRule(),
            """
            from .time import time

            stamp = time()
            """,
            path="src/repro/stamps.py",
        )
        assert findings == []

    def test_time_sleep_is_clean(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            time.sleep(0.1)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# UNIT001 — magic conversion literals
# ---------------------------------------------------------------------------


class TestMagicUnitLiteralRule:
    @pytest.mark.parametrize("literal", ["1e9", "1e-3", "1e-6", "1e-9"])
    def test_scientific_conversion_literal_fires(self, literal):
        findings = run_rule(MagicUnitLiteralRule(), f"x = value * {literal}\n")
        assert rule_ids(findings) == ["UNIT001"]
        assert literal in findings[0].message

    def test_decimal_notation_is_clean(self):
        # 0.001 == 1e-3 but is written as an ordinary number, not a
        # conversion-factor idiom.
        findings = run_rule(MagicUnitLiteralRule(), "x = 0.001\n")
        assert findings == []

    def test_non_magic_exponent_is_clean(self):
        findings = run_rule(MagicUnitLiteralRule(), "x = 2e9\n")
        assert findings == []

    def test_units_module_is_exempt(self):
        findings = run_rule(
            MagicUnitLiteralRule(),
            "GHZ_TO_HZ = 1e9\n",
            path="src/repro/units.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# CFG001 — config dataclasses must be frozen
# ---------------------------------------------------------------------------


class TestFrozenConfigRule:
    def test_unfrozen_dataclass_in_config_module_fires(self):
        findings = run_rule(
            FrozenConfigRule(),
            """
            from dataclasses import dataclass

            @dataclass
            class Anything:
                cores: int = 8
            """,
            path="src/repro/config.py",
        )
        assert rule_ids(findings) == ["CFG001"]

    def test_config_suffixed_class_fires_anywhere(self):
        findings = run_rule(
            FrozenConfigRule(),
            """
            from dataclasses import dataclass

            @dataclass
            class SweepSpec:
                budgets: tuple = ()
            """,
            path="src/repro/analysis/other.py",
        )
        assert rule_ids(findings) == ["CFG001"]

    def test_experiments_package_fires(self):
        findings = run_rule(
            FrozenConfigRule(),
            """
            from dataclasses import dataclass

            @dataclass
            class Holder:
                rows: list
            """,
            path="src/repro/experiments/fig99.py",
        )
        assert rule_ids(findings) == ["CFG001"]

    def test_frozen_dataclass_is_clean(self):
        findings = run_rule(
            FrozenConfigRule(),
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ChipConfig:
                cores: int = 8
            """,
            path="src/repro/config.py",
        )
        assert findings == []

    def test_mutable_state_holder_elsewhere_is_clean(self):
        # Plain-named dataclasses outside config/experiments may be mutable.
        findings = run_rule(
            FrozenConfigRule(),
            """
            from dataclasses import dataclass, field

            @dataclass
            class Telemetry:
                samples: list = field(default_factory=list)
            """,
            path="src/repro/cmpsim/telemetry.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# CFG002 — mutable default arguments
# ---------------------------------------------------------------------------


class TestMutableDefaultRule:
    def test_list_literal_default_fires(self):
        findings = run_rule(MutableDefaultRule(), "def f(x=[]):\n    return x\n")
        assert rule_ids(findings) == ["CFG002"]

    def test_keyword_only_dict_default_fires(self):
        findings = run_rule(
            MutableDefaultRule(), "def f(*, cache={}):\n    return cache\n"
        )
        assert rule_ids(findings) == ["CFG002"]

    def test_mutable_constructor_call_default_fires(self):
        findings = run_rule(
            MutableDefaultRule(), "def f(x=dict()):\n    return x\n"
        )
        assert rule_ids(findings) == ["CFG002"]

    def test_none_and_tuple_defaults_are_clean(self):
        findings = run_rule(
            MutableDefaultRule(),
            "def f(x=None, y=(), z=1.0):\n    return x, y, z\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# CTL001 — PID needs explicit saturation bounds
# ---------------------------------------------------------------------------


class TestUnboundedPIDRule:
    def test_missing_output_limits_fires(self):
        findings = run_rule(UnboundedPIDRule(), "pid = DiscretePID(gains)\n")
        assert rule_ids(findings) == ["CTL001"]
        assert "output_limits" in findings[0].message

    def test_explicit_none_limits_fires(self):
        findings = run_rule(
            UnboundedPIDRule(), "pid = DiscretePID(gains, output_limits=None)\n"
        )
        assert rule_ids(findings) == ["CTL001"]

    def test_keyword_limits_are_clean(self):
        findings = run_rule(
            UnboundedPIDRule(),
            "pid = DiscretePID(gains, output_limits=(-0.4, 0.4))\n",
        )
        assert findings == []

    def test_positional_limits_are_clean(self):
        findings = run_rule(
            UnboundedPIDRule(), "pid = DiscretePID(gains, (-0.4, 0.4))\n"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# CTL002 — bare / silently-swallowed excepts
# ---------------------------------------------------------------------------


class TestSilentExceptRule:
    def test_bare_except_fires(self):
        findings = run_rule(
            SilentExceptRule(),
            """
            try:
                step()
            except:
                recover()
            """,
        )
        assert rule_ids(findings) == ["CTL002"]

    def test_swallowed_broad_except_fires(self):
        findings = run_rule(
            SilentExceptRule(),
            """
            try:
                step()
            except Exception:
                pass
            """,
        )
        assert rule_ids(findings) == ["CTL002"]

    def test_handled_broad_except_is_clean(self):
        findings = run_rule(
            SilentExceptRule(),
            """
            try:
                step()
            except Exception:
                log.warning("step failed")
                raise
            """,
        )
        assert findings == []

    def test_specific_except_with_pass_is_clean(self):
        findings = run_rule(
            SilentExceptRule(),
            """
            try:
                step()
            except ValueError:
                pass
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# ROB001 — broad handlers must surface the exception
# ---------------------------------------------------------------------------


class TestSwallowedExceptionRule:
    def test_broad_handler_discarding_exception_fires(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except Exception:
                value = fallback()
            """,
        )
        assert rule_ids(findings) == ["ROB001"]

    def test_bound_but_unused_exception_fires(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except Exception as exc:
                value = fallback()
            """,
        )
        assert rule_ids(findings) == ["ROB001"]

    def test_broad_tuple_handler_fires(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except (ValueError, Exception):
                value = fallback()
            """,
        )
        assert rule_ids(findings) == ["ROB001"]

    def test_reraise_is_clean(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except Exception:
                cleanup()
                raise
            """,
        )
        assert findings == []

    def test_using_bound_exception_is_clean(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except Exception as exc:
                failures.append(str(exc))
            """,
        )
        assert findings == []

    def test_narrow_handler_is_clean(self):
        findings = run_rule(
            SwallowedExceptionRule(),
            """
            try:
                step()
            except ValueError:
                value = fallback()
            """,
        )
        assert findings == []

    def test_ctl002_cases_not_double_reported(self):
        # Bare excepts and empty broad bodies belong to CTL002.
        for snippet in (
            "try:\n    step()\nexcept:\n    value = 1\n",
            "try:\n    step()\nexcept Exception:\n    pass\n",
        ):
            assert run_rule(SwallowedExceptionRule(), snippet) == []

    def test_inline_suppression_silences(self):
        findings = lint_rules(
            "try:\n"
            "    step()\n"
            "except Exception:  # lint: ignore[ROB001] - deliberate\n"
            "    value = fallback()\n",
            [SwallowedExceptionRule()],
            path="mod.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# API001 / API002 — __all__ hygiene
# ---------------------------------------------------------------------------


class TestDeclaredAllRule:
    def test_public_module_without_all_fires_with_suggestion(self):
        findings = run_rule(
            DeclaredAllRule(),
            """
            def beta():
                return 2

            def alpha():
                return 1
            """,
        )
        assert rule_ids(findings) == ["API001"]
        # Suggestion lists the public names, sorted.
        assert '__all__ = ["alpha", "beta"]' in findings[0].message

    def test_module_with_all_is_clean(self):
        findings = run_rule(
            DeclaredAllRule(),
            """
            __all__ = ["alpha"]

            def alpha():
                return 1
            """,
        )
        assert findings == []

    def test_private_only_module_is_clean(self):
        findings = run_rule(
            DeclaredAllRule(), "def _helper():\n    return 1\n"
        )
        assert findings == []

    def test_dunder_main_is_exempt(self):
        findings = run_rule(
            DeclaredAllRule(),
            "def main():\n    return 0\n",
            path="src/repro/lintkit/__main__.py",
        )
        assert findings == []


class TestStaleAllRule:
    def test_unknown_name_fires(self):
        findings = run_rule(
            StaleAllRule(),
            """
            __all__ = ["gone"]

            def here():
                return 1
            """,
        )
        messages = [f.message for f in findings]
        assert rule_ids(findings) == ["API002", "API002"]
        assert any("gone" in m for m in messages)  # unknown
        assert any("here" in m for m in messages)  # missing

    def test_non_literal_all_fires(self):
        findings = run_rule(
            StaleAllRule(),
            """
            _names = ["a"]
            __all__ = list(_names)
            """,
        )
        assert rule_ids(findings) == ["API002"]
        assert "statically" in findings[0].message

    def test_reexports_required_in_package_init(self):
        findings = run_rule(
            StaleAllRule(),
            """
            from .core import Chip

            __all__ = []
            """,
            path="src/repro/cmpsim/__init__.py",
        )
        assert rule_ids(findings) == ["API002"]
        assert "Chip" in findings[0].message

    def test_imports_in_leaf_module_not_required(self):
        findings = run_rule(
            StaleAllRule(),
            """
            import numpy as np

            __all__ = ["solve"]

            def solve():
                return np.zeros(3)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_matching_rule_id_suppresses(self):
        findings = lint_rules(
            "x = value * 1e9  # lint: ignore[UNIT001] display-only\n",
            [MagicUnitLiteralRule()],
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint_rules(
            "x = value * 1e9  # lint: ignore[DET001]\n",
            [MagicUnitLiteralRule()],
        )
        assert rule_ids(findings) == ["UNIT001"]

    def test_bare_ignore_suppresses_every_rule_on_the_line(self):
        findings = lint_rules(
            "def f(x=[], y=1e9):  # lint: ignore\n    return x, y\n",
            [MutableDefaultRule(), MagicUnitLiteralRule()],
        )
        assert findings == []

    def test_suppression_only_covers_its_own_line(self):
        src = (
            "a = 1e9  # lint: ignore[UNIT001]\n"
            "b = 1e9\n"
        )
        findings = lint_rules(src, [MagicUnitLiteralRule()])
        assert [(f.rule_id, f.line) for f in findings] == [("UNIT001", 2)]

    def test_ignore_text_inside_string_does_not_suppress(self):
        src = 'msg = "# lint: ignore[UNIT001]"\nx = 1e9\n'
        findings = lint_rules(src, [MagicUnitLiteralRule()])
        assert rule_ids(findings) == ["UNIT001"]

    def test_parse_comment_multiple_ids(self):
        assert parse_comment("# lint: ignore[UNIT001, det001]") == {
            "UNIT001",
            "DET001",
        }
        assert parse_comment("# just a comment") is None


# ---------------------------------------------------------------------------
# Engine: files, parse errors
# ---------------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_becomes_e000_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([bad])
        assert rule_ids(report.findings) == [PARSE_ERROR_ID]
        assert not report.ok

    def test_in_memory_and_file_entry_points_agree(self, tmp_path):
        # One suppressed finding per analysis, one live finding and one
        # unparsable file: both entry points run the same pipeline.
        sources = {
            "src/mini/convert.py": textwrap.dedent(
                """
                from repro.unit_types import GigaHz, Watts

                __all__ = ["scale", "total"]

                def total(p: Watts, f: GigaHz) -> float:
                    return p + f  # lint: ignore[DIM001] fixture

                def scale(x):
                    return x * 1e9  # lint: ignore[UNIT001] fixture
                """
            ),
            "src/mini/noise.py": textwrap.dedent(
                """
                import numpy as np

                __all__ = ["make_noise"]

                def make_noise(seed, n):
                    rng = np.random.default_rng(seed)
                    out = []
                    for _ in range(n):
                        out.append(_sample(rng))  # lint: ignore[EFF004] fixture
                    return out

                def _sample(rng):
                    return float(rng.normal())
                """
            ),
            "src/mini/broken.py": "def f(:\n",
        }
        for rel, text in sources.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text)
        from_files = lint_paths([tmp_path / "src"])
        in_memory = lint_sources(
            {display_path(tmp_path / rel): text for rel, text in sources.items()}
        )
        assert from_files.findings == in_memory.findings
        assert from_files.suppressed == in_memory.suppressed == 3
        assert from_files.files_checked == in_memory.files_checked == 3
        assert sorted(rule_ids(in_memory.findings)) == ["DET001", PARSE_ERROR_ID]

    def test_pycache_is_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import random\n")
        (tmp_path / "_scratch.py").write_text("VALUE = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 1
        assert report.ok

    def test_full_catalogue_runs_on_clean_source(self):
        src = textwrap.dedent(
            """
            '''A clean module.'''

            __all__ = ["double"]

            def double(x):
                return 2 * x
            """
        )
        assert lint_rules(src, all_rules()) == []


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON output
# ---------------------------------------------------------------------------


VIOLATION_SRC = (
    "import numpy as np\n"
    "\n"
    "_gen = np.random.default_rng(0)\n"
)
CLEAN_SRC = (
    '__all__ = ["f"]\n'
    "\n"
    "def f():\n"
    "    return 1\n"
)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SRC)
        code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s) in 1 file(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION_SRC)
        code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path / "nowhere")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SRC)
        target = tmp_path / "missing-dir" / "report.txt"
        code = main([str(tmp_path), "--output", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_json_output_shape(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION_SRC)
        code = main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["count"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["line"] == 3
        assert set(finding) == {"path", "line", "col", "rule", "message"}

    def test_list_rules_covers_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out


# ---------------------------------------------------------------------------
# Acceptance: the repository's own tree is clean
# ---------------------------------------------------------------------------


class TestRepositoryTree:
    def test_src_tree_has_no_findings(self):
        report = lint_paths([REPO_ROOT / "src"])
        assert report.files_checked > 50
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"lintkit findings in src/:\n{rendered}"
