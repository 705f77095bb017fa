"""Benchmark specs, instances, PARSEC/SPEC catalogues, input sets."""

import numpy as np
import pytest

from repro.workloads.benchmark import (
    BenchmarkInstance,
    BenchmarkSpec,
    CPU_BOUND,
    MEMORY_BOUND,
    MemoryBehavior,
)
from repro.workloads.parsec import PARSEC_BENCHMARKS, SHORT_NAMES, parsec_benchmark
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark


class TestCatalogues:
    def test_eight_parsec_benchmarks(self):
        assert len(PARSEC_BENCHMARKS) == 8
        kinds = [s.kind for s in PARSEC_BENCHMARKS.values()]
        assert kinds.count(CPU_BOUND) == 4
        assert kinds.count(MEMORY_BOUND) == 4

    def test_four_spec_benchmarks_all_cpu_bound(self):
        assert len(SPEC_BENCHMARKS) == 4
        assert all(s.kind == CPU_BOUND for s in SPEC_BENCHMARKS.values())

    def test_short_name_lookup(self):
        assert parsec_benchmark("bschls").name == "blackscholes"
        assert parsec_benchmark("sclust").name == "streamcluster"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            parsec_benchmark("doom")
        with pytest.raises(KeyError):
            spec_benchmark("doom")

    def test_class_structure_in_miss_rates(self):
        """Memory-bound benchmarks have far higher off-chip miss rates."""
        cpu = [s.mean_l2_mpki for s in PARSEC_BENCHMARKS.values() if s.kind == "C"]
        mem = [s.mean_l2_mpki for s in PARSEC_BENCHMARKS.values() if s.kind == "M"]
        assert max(cpu) < min(mem)

    def test_short_names_cover_all(self):
        assert set(SHORT_NAMES) == set(PARSEC_BENCHMARKS)


class TestInputSets:
    def test_paper_default_input_rule(self):
        # CPU-bound -> simlarge, memory-bound -> native.
        assert parsec_benchmark("blackscholes").input_set == "simlarge"
        assert parsec_benchmark("canneal").input_set == "native"

    def test_native_more_memory_intensive(self):
        sim = parsec_benchmark("canneal", input_set="simlarge")
        native = parsec_benchmark("canneal", input_set="native")
        assert native.mean_l2_mpki > sim.mean_l2_mpki
        assert native.memory.footprint_bytes > sim.memory.footprint_bytes

    def test_input_set_roundtrip(self):
        base = PARSEC_BENCHMARKS["vips"]
        roundtrip = base.with_input_set("native").with_input_set("simlarge")
        assert roundtrip.mean_l2_mpki == pytest.approx(base.mean_l2_mpki)

    def test_same_input_set_is_identity(self):
        base = PARSEC_BENCHMARKS["vips"]
        assert base.with_input_set("simlarge") is base

    def test_unknown_input_set(self):
        with pytest.raises(ValueError):
            PARSEC_BENCHMARKS["vips"].with_input_set("huge")


class TestMemoryBehavior:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBehavior(0, 100, 0.1, 0.1)
        with pytest.raises(ValueError):
            MemoryBehavior(200, 100, 0.1, 0.1)  # WS > footprint
        with pytest.raises(ValueError):
            MemoryBehavior(50, 100, 0.8, 0.5)  # fractions > 1


class TestInstances:
    def test_advance_produces_spec_values(self):
        spec = parsec_benchmark("blackscholes")
        inst = BenchmarkInstance(spec, np.random.default_rng(0))
        sample = inst.advance()
        cpi_values = {p.cpi_base for p in spec.phases}
        assert sample.cpi_base in cpi_values
        assert 0.05 <= sample.alpha <= 1.0

    def test_retire_accounting(self):
        inst = BenchmarkInstance(
            parsec_benchmark("x264"), np.random.default_rng(0)
        )
        inst.retire(1e6)
        inst.retire(2e6)
        assert inst.instructions_retired == pytest.approx(3e6)
        with pytest.raises(ValueError):
            inst.retire(-1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(
                name="bad",
                kind="X",
                suite="parsec",
                description="",
                phases=PARSEC_BENCHMARKS["vips"].phases,
                memory=PARSEC_BENCHMARKS["vips"].memory,
            )
        with pytest.raises(ValueError):
            BenchmarkSpec(
                name="bad",
                kind="C",
                suite="parsec",
                description="",
                phases=(),
                memory=PARSEC_BENCHMARKS["vips"].memory,
            )
