"""Tests for ``repro.lintkit.effects`` — the interprocedural effect pass.

Organized bottom-up: each EFF rule on minimal in-memory mini-programs
(:func:`~repro.lintkit.lint_sources`), then the propagation machinery (root
binding, CHA dispatch, re-export chains, chain rendering), then the
engine/CLI integration and the shared parsed-module cache, and finally
the seeded-mutation fixture ``tests/fixtures/effects_mutation/`` whose
``# expect: EFFxxx`` markers must match the analysis output exactly.

The in-memory mini-programs name their modules ``runner.py`` and
``simulator.py`` so the analysis' dotted-suffix roots bind to them the
same way they bind to the real tree.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

from repro.lintkit import lint_paths, lint_sources
from repro.lintkit.cli import main
from repro.lintkit.effects import EFF_RULES, ROOTS
from repro.lintkit.engine import clear_module_cache, _MODULE_CACHE

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = (
    Path(__file__).resolve().parent / "fixtures" / "effects_mutation"
)

#: A minimal clean worker/simulator pair; tests overlay violations on it.
SIM_PATH = "src/mini/simulator.py"
RUN_PATH = "src/mini/runner.py"

CLEAN_SIMULATOR = """
class Simulation:
    def __init__(self, seed):
        self.seed = seed

    def run(self):
        return float(self.seed) * 2.0
"""

CLEAN_RUNNER = """
from .simulator import Simulation

def _execute(request):
    sim = Simulation(request["seed"])
    return sim.run()

def _worker_loop(queue):
    return _execute(queue.get())
"""


def analyze(
    simulator: str = CLEAN_SIMULATOR,
    runner: str = CLEAN_RUNNER,
    extra: dict[str, str] | None = None,
):
    """Run the effects pass over a dedented in-memory mini-program."""
    sources = {
        SIM_PATH: textwrap.dedent(simulator),
        RUN_PATH: textwrap.dedent(runner),
    }
    for path, text in (extra or {}).items():
        sources[path] = textwrap.dedent(text)
    return effect_findings(sources)


def effect_findings(sources: dict[str, str]):
    """The effects pass's findings over in-memory modules."""
    return list(lint_sources(sources, analyses=("effects",)).findings)


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


class TestCleanBaseline:
    def test_clean_mini_program_is_silent(self):
        assert analyze() == []

    def test_rule_catalogue_covers_eff001_to_eff005(self):
        assert [r[0] for r in EFF_RULES] == [
            "EFF001",
            "EFF002",
            "EFF003",
            "EFF004",
            "EFF005",
        ]

    def test_roots_cover_all_three_guarantees(self):
        assert sorted(r.rule_id for r in ROOTS) == [
            "EFF001",
            "EFF002",
            "EFF003",
        ]


# ---------------------------------------------------------------------------
# EFF001 — shared-state mutation reachable from a worker
# ---------------------------------------------------------------------------


class TestEff001ParallelSafety:
    def test_direct_global_statement_write_fires(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _COUNT = 0

            def _execute(request):
                global _COUNT
                _COUNT = _COUNT + 1
                return Simulation(request["seed"]).run()
            """
        )
        assert rule_ids(findings) == ["EFF001"]
        assert "_COUNT" in findings[0].message

    def test_container_mutation_two_calls_deep_fires(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _CACHE = {}

            def _remember(key, value):
                _CACHE[key] = value

            def _execute(request):
                out = Simulation(request["seed"]).run()
                _remember(request["key"], out)
                return out
            """
        )
        assert rule_ids(findings) == ["EFF001"]
        assert "via" in findings[0].message
        assert "_remember" in findings[0].message

    def test_mutating_method_on_module_global_fires(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _LOG = []

            def _execute(request):
                _LOG.append(request["seed"])
                return Simulation(request["seed"]).run()
            """
        )
        assert rule_ids(findings) == ["EFF001"]

    def test_local_mutation_is_silent(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            def _execute(request):
                log = []
                log.append(request["seed"])
                return Simulation(request["seed"]).run()
            """
        )
        assert findings == []

    def test_unreachable_mutation_is_silent(self):
        # The same write outside the worker's call graph does not fire.
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _CACHE = {}

            def summarize_results(key, value):
                _CACHE[key] = value

            def _execute(request):
                return Simulation(request["seed"]).run()
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# EFF002 — cache-key-unsound input on the cached run path
# ---------------------------------------------------------------------------


class TestEff002CacheSoundness:
    def test_env_read_in_init_fires(self):
        findings = analyze(
            simulator="""
            import os

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed
                    self.scale = float(os.getenv("SCALE", "1"))

                def run(self):
                    return self.seed * self.scale
            """
        )
        assert "EFF002" in rule_ids(findings)

    def test_os_environ_subscript_fires(self):
        findings = analyze(
            simulator="""
            import os

            class Simulation:
                def __init__(self, seed):
                    self.mode = os.environ["REPRO_MODE"]

                def run(self):
                    return 1.0
            """
        )
        assert "EFF002" in rule_ids(findings)

    def test_file_read_on_cached_path_fires(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed):
                    self.table = open("tuning.txt").read()

                def run(self):
                    return 1.0
            """
        )
        assert "EFF002" in rule_ids(findings)

    def test_mutated_global_read_fires_but_constant_read_does_not(self):
        # Reading a module binding that somebody mutates is a hidden
        # input; reading a never-written constant is a fixed input.
        mutated = analyze(
            simulator="""
            _TUNING = {"gain": 1.0}

            def retune(gain):
                _TUNING["gain"] = gain

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return _TUNING["gain"] * self.seed
            """
        )
        assert "EFF002" in rule_ids(mutated)
        constant = analyze(
            simulator="""
            _GAINS = {"default": 1.0}

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return _GAINS["default"] * self.seed
            """
        )
        assert "EFF002" not in rule_ids(constant)

    def test_env_read_outside_cached_path_is_silent(self):
        # Mirrors the real runner: reading env to choose the *cache
        # location* is outside Simulation.__init__/run, hence sound.
        findings = analyze(
            runner="""
            import os

            from .simulator import Simulation

            def resolve_cache_dir():
                return os.getenv("CACHE_DIR", ".cache")

            def _execute(request):
                return Simulation(request["seed"]).run()
            """
        )
        assert "EFF002" not in rule_ids(findings)


# ---------------------------------------------------------------------------
# EFF003 — hidden I/O / wall-clock in simulation-reachable code
# ---------------------------------------------------------------------------


class TestEff003SimulationPurity:
    def test_wall_clock_fires(self):
        findings = analyze(
            simulator="""
            import time

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return time.perf_counter()
            """
        )
        assert "EFF003" in rule_ids(findings)

    def test_print_three_calls_deep_fires(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return _interval(self.seed)

            def _interval(seed):
                return _island_power(seed)

            def _island_power(seed):
                print("debug", seed)
                return float(seed)
            """
        )
        eff3 = [f for f in findings if f.rule_id == "EFF003"]
        assert len(eff3) == 1
        assert "_interval" in eff3[0].message
        assert "_island_power" in eff3[0].message

    def test_file_write_via_pathlib_method_fires(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed, trace_path):
                    self.seed = seed
                    self.trace_path = trace_path

                def run(self):
                    self.trace_path.write_text("tick")
                    return 1.0
            """
        )
        assert "EFF003" in rule_ids(findings)

    def test_io_outside_simulation_graph_is_silent(self):
        findings = analyze(
            extra={
                "src/mini/report.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Overlapping rule pairs: each rule catches a case its partner misses
# ---------------------------------------------------------------------------


class TestRuleOverlap:
    """DET003/EFF003 both police the wall clock and DET001/EFF004 both
    police RNG streams; each case here is caught by one rule of a pair
    and missed by the other, which is why both rules stay."""

    @staticmethod
    def fired(
        extra: dict[str, str], simulator: str = CLEAN_SIMULATOR
    ) -> set[str]:
        sources = {
            SIM_PATH: textwrap.dedent(simulator),
            RUN_PATH: textwrap.dedent(CLEAN_RUNNER),
        }
        for path, text in extra.items():
            sources[path] = textwrap.dedent(text)
        report = lint_sources(sources, analyses=("rules", "effects"))
        return set(rule_ids(report.findings))

    def test_det003_only_clock_nothing_reaches(self):
        fired = self.fired(
            {
                "src/mini/report.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        assert "DET003" in fired
        assert "EFF003" not in fired

    def test_eff003_only_clock_in_rng_module(self):
        fired = self.fired(
            {
                "src/mini/rng.py": """
                import time

                def entropy():
                    return time.time()
                """
            },
            simulator="""
            from .rng import entropy

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return float(self.seed) * entropy()
            """,
        )
        assert "EFF003" in fired
        assert "DET003" not in fired

    def test_det001_only_private_generator(self):
        fired = self.fired(
            {
                "src/mini/noise.py": """
                import numpy as np

                def make_noise(seed):
                    rng = np.random.default_rng(seed)
                    return float(rng.normal())
                """
            }
        )
        assert "DET001" in fired
        assert "EFF004" not in fired

    def test_eff004_only_shared_stream_from_repro_rng(self):
        fired = self.fired(
            {
                "src/mini/noise.py": """
                from repro.rng import derive

                def make_noise(seed, n):
                    rng = derive(seed, "noise")
                    out = []
                    for _ in range(n):
                        out.append(_sample(rng))
                    return out

                def _sample(rng):
                    return float(rng.normal())
                """
            }
        )
        assert "EFF004" in fired
        assert "DET001" not in fired


# ---------------------------------------------------------------------------
# EFF004 — RNG stream aliasing (local rule, fires everywhere)
# ---------------------------------------------------------------------------


class TestEff004RngAliasing:
    def test_pass_inside_wider_loop_fires(self):
        findings = analyze(
            extra={
                "src/mini/noise.py": """
                import numpy as np

                def make_noise(seed, n):
                    rng = np.random.default_rng(seed)
                    out = []
                    for _ in range(n):
                        out.append(_sample(rng))
                    return out

                def _sample(rng):
                    return float(rng.normal())
                """
            }
        )
        assert rule_ids(findings) == ["EFF004"]

    def test_closure_capture_after_local_draws_fires(self):
        findings = analyze(
            extra={
                "src/mini/noise.py": """
                import numpy as np

                def build(seed, values):
                    rng = np.random.default_rng(seed)
                    first = float(rng.normal())
                    def jitter(x):
                        return x + float(rng.normal())
                    return first, [jitter(v) for v in values]
                """
            }
        )
        assert rule_ids(findings) == ["EFF004"]

    def test_split_streams_per_consumer_is_silent(self):
        findings = analyze(
            extra={
                "src/mini/noise.py": """
                from repro.rng import split

                def make_noise(rng, values):
                    a, b = split(rng, 2)
                    return [float(a.normal()) for _ in values], float(b.normal())
                """
            }
        )
        assert findings == []

    def test_single_consumer_pass_is_silent(self):
        findings = analyze(
            extra={
                "src/mini/noise.py": """
                import numpy as np

                def make_noise(seed):
                    rng = np.random.default_rng(seed)
                    return _sample(rng)

                def _sample(rng):
                    return float(rng.normal())
                """
            }
        )
        assert findings == []

    def test_rng_module_itself_is_exempt(self):
        findings = analyze(
            extra={
                "src/mini/rng.py": """
                import numpy as np

                def fan_out(seed, sinks):
                    rng = np.random.default_rng(seed)
                    return [sink(rng) for sink in sinks]
                """
            }
        )
        assert findings == []


# ---------------------------------------------------------------------------
# EFF005 — order-sensitive accumulation (reachable code only)
# ---------------------------------------------------------------------------


class TestEff005UnorderedAccumulation:
    def test_set_iteration_accumulation_fires_when_reachable(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed):
                    self.islands = {seed, seed + 1, seed + 2}

                def run(self):
                    total = 0.0
                    for island in {1.0, 2.5, 0.25}:
                        total += island
                    return total
            """
        )
        assert "EFF005" in rule_ids(findings)

    def test_sum_over_set_call_fires(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return sum(set([self.seed, 2.0, 3.0]))
            """
        )
        assert "EFF005" in rule_ids(findings)

    def test_sorted_iteration_is_silent(self):
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    total = 0.0
                    for island in sorted({1.0, 2.5, 0.25}):
                        total += island
                    return total
            """
        )
        assert findings == []

    def test_unreachable_accumulation_is_silent(self):
        findings = analyze(
            extra={
                "src/mini/report.py": """
                def tally(values):
                    total = 0.0
                    for v in set(values):
                        total += v
                    return total
                """
            }
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Propagation machinery
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_cha_sees_through_dynamic_dispatch(self):
        # run() calls self.scheme.on_gpm(...) on an unknown receiver;
        # CHA must still reach the concrete scheme's method.
        findings = analyze(
            simulator="""
            class Simulation:
                def __init__(self, seed, scheme):
                    self.seed = seed
                    self.scheme = scheme

                def run(self):
                    return self.scheme.on_gpm(self.seed)
            """,
            extra={
                "src/mini/scheme.py": """
                import time

                class CPMScheme:
                    def on_gpm(self, seed):
                        return time.monotonic() + seed
                """
            },
        )
        eff3 = [f for f in findings if f.rule_id == "EFF003"]
        assert len(eff3) == 1
        assert eff3[0].path == "src/mini/scheme.py"
        assert "CPMScheme.on_gpm" in eff3[0].message

    def test_reexport_chain_resolves(self):
        # package __init__ re-exports the helper; the worker imports it
        # from the package, and the write must still be traced.
        findings = analyze(
            runner="""
            from .simulator import Simulation
            from .helpers import remember

            def _execute(request):
                out = Simulation(request["seed"]).run()
                remember(request["key"], out)
                return out
            """,
            extra={
                "src/mini/helpers/__init__.py": """
                from .store import remember
                """,
                "src/mini/helpers/store.py": """
                _SEEN = {}

                def remember(key, value):
                    _SEEN[key] = value
                """,
            },
        )
        assert rule_ids(findings) == ["EFF001"]
        assert findings[0].path == "src/mini/helpers/store.py"

    def test_inline_suppression_is_honoured(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _LOG = []

            def _execute(request):
                _LOG.append(request["seed"])  # lint: ignore[EFF001] test fixture
                return Simulation(request["seed"]).run()
            """
        )
        assert findings == []

    def test_finding_message_names_root_and_chain(self):
        findings = analyze(
            runner="""
            from .simulator import Simulation

            _LOG = []

            def _audit(value):
                _LOG.append(value)

            def _execute(request):
                out = Simulation(request["seed"]).run()
                _audit(out)
                return out
            """
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "parallel worker entry" in message
        assert "runner._execute -> runner._audit" in message


# ---------------------------------------------------------------------------
# The EFF002 regression the syntactic rules cannot catch
# ---------------------------------------------------------------------------


class TestCacheUnsoundRegression:
    """A planted env-var read inside the cached run path: invisible to
    every per-module syntactic rule, caught by the effects pass."""

    PLANTED = {
        "src/mini/simulator.py": textwrap.dedent(
            """
            from .tuning import ambient_gain

            class Simulation:
                def __init__(self, seed):
                    self.seed = seed

                def run(self):
                    return float(self.seed) * ambient_gain()
            """
        ),
        "src/mini/tuning.py": textwrap.dedent(
            """
            import os

            def ambient_gain():
                return float(os.getenv("REPRO_GAIN", "1.0"))
            """
        ),
        "src/mini/runner.py": textwrap.dedent(CLEAN_RUNNER),
    }

    def test_syntactic_rules_miss_it(self, tmp_path):
        root = tmp_path / "src" / "mini"
        root.mkdir(parents=True)
        for path, text in self.PLANTED.items():
            (tmp_path / path).write_text(text)
        report = lint_paths([tmp_path / "src"], analyses=("rules",))
        assert not any(
            f.rule_id.startswith(("DET", "EFF")) for f in report.findings
        )

    def test_effects_pass_catches_it(self):
        findings = effect_findings(self.PLANTED)
        eff2 = [f for f in findings if f.rule_id == "EFF002"]
        assert len(eff2) == 1
        assert eff2[0].path == "src/mini/tuning.py"
        assert "os.getenv" in eff2[0].message
        assert "Simulation.run" in eff2[0].message


# ---------------------------------------------------------------------------
# Engine / CLI integration and the shared parsed-module cache
# ---------------------------------------------------------------------------


class TestEngineAndCli:
    def test_cli_exit_one_on_fixture_findings(self):
        assert (
            main([str(FIXTURE_DIR), "--analysis", "effects"])
            == 1
        )

    def test_cli_exit_zero_when_effects_clean(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('"""Clean."""\n\n__all__: list[str] = []\n')
        assert (
            main([str(target), "--analysis", "effects"]) == 0
        )
        capsys.readouterr()

    def test_list_rules_includes_effect_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id, _, _ in EFF_RULES:
            assert rule_id in out

    def test_parsed_module_cache_is_shared_across_runs(self):
        clear_module_cache()
        lint_paths([FIXTURE_DIR], analyses=("rules",))
        populated = len(_MODULE_CACHE)
        assert populated >= 3
        before = {
            key: id(entry[1]) for key, entry in _MODULE_CACHE.items()
        }
        lint_paths([FIXTURE_DIR], analyses=("effects",))
        after = {key: id(entry[1]) for key, entry in _MODULE_CACHE.items()}
        assert before == after, "second run must reuse the cached parses"

    def test_cache_invalidates_on_file_change(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text('"""Doc."""\n\n__all__ = ["X"]\nX = 1\n')
        clear_module_cache()
        first = lint_paths([target], analyses=("rules",))
        assert first.findings == ()
        # Make the file newer *and* different: the signature must miss.
        target.write_text('"""Doc."""\n\n__all__ = ["X"]\nX = 1\nY = 2\n')
        import os as _os

        stat = target.stat()
        _os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10_000_000))
        second = lint_paths([target], analyses=("rules",))
        assert [f.rule_id for f in second.findings] == ["API002"]


# ---------------------------------------------------------------------------
# The seeded-mutation fixture
# ---------------------------------------------------------------------------


class TestMutationFixture:
    def test_expected_findings_exactly(self):
        """The analysis flags every seeded violation and nothing else."""
        expected = []
        for path in sorted(FIXTURE_DIR.glob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                marker = re.search(r"# expect: (EFF\d{3})", line)
                if marker:
                    expected.append((rel, lineno, marker.group(1)))
        assert len(expected) == 7, "fixture must seed exactly seven violations"
        assert {m for _, _, m in expected} == {
            "EFF001",
            "EFF002",
            "EFF003",
            "EFF004",
            "EFF005",
        }
        report = lint_paths([FIXTURE_DIR], analyses=("effects",))
        found = sorted(
            (f.path, f.line, f.rule_id) for f in report.findings
        )
        assert found == sorted(expected)

    def test_fixture_is_otherwise_api_clean(self):
        # Some planted effects are visible to the determinism rules at
        # the *direct call site* (that overlap is inherent — DET003 also
        # dislikes time.perf_counter); everything else in the rule
        # catalogue must accept the fixture, so it cannot rot into
        # testing something other than what it claims.
        report = lint_paths([FIXTURE_DIR], analyses=("rules",))
        assert all(f.rule_id.startswith("DET") for f in report.findings), [
            f.render() for f in report.findings
        ]


# ---------------------------------------------------------------------------
# Acceptance: the repository's own tree is effect-clean
# ---------------------------------------------------------------------------


class TestRepositoryTree:
    def test_src_tree_has_no_effect_findings(self):
        report = lint_paths([REPO_ROOT / "src"], analyses=("effects",))
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"effect findings in src/:\n{rendered}"

    def test_real_roots_bind_and_reach_deep(self):
        # Vacuous cleanliness would be worthless: assert the roots bind
        # to the real tree and the walk reaches a substantial fraction
        # of it, including code only visible through dynamic dispatch.
        from repro.lintkit.effects.propagate import _reach
        from repro.lintkit.effects.summaries import summarize
        from repro.lintkit.engine import iter_python_files, load_module

        modules = [
            load_module(p) for p in iter_python_files([REPO_ROOT / "src"])
        ]
        program = summarize(modules)
        for root in ROOTS:
            for suffix in root.suffixes:
                # Every suffix must bind, not just one per root: a stale
                # entry would otherwise hide behind a live sibling.
                assert _reach(program, (suffix,)), (
                    f"root {root.rule_id} suffix {suffix!r} bound no function"
                )
            reached = _reach(program, root.suffixes)
            assert reached, f"root {root.rule_id} bound no entry point"
            assert len(reached) > 100, (
                f"root {root.rule_id} reached only {len(reached)} functions"
            )
        sim_reach = _reach(program, ("Simulation.run",))
        assert "repro.cmpsim.telemetry.Telemetry.record" in sim_reach
        assert "repro.faults.NoisySensor.apply" in sim_reach
