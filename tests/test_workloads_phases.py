"""Phase machine: dwell behaviour, noise, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.phases import Phase, PhaseMachine, _ar1_scan

PHASES = (
    Phase(alpha=0.9, cpi_base=0.8, l1_mpki=5.0, l2_mpki=0.5),
    Phase(alpha=0.6, cpi_base=1.2, l1_mpki=30.0, l2_mpki=10.0),
)


def machine(rng=None, **kwargs):
    defaults = dict(
        phases=PHASES,
        mean_dwell_intervals=20.0,
        noise_sigma=0.02,
        noise_rho=0.8,
        rng=rng or np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return PhaseMachine(**defaults)


class TestPhase:
    def test_validation(self):
        with pytest.raises(ValueError):
            Phase(alpha=0.0, cpi_base=1.0, l1_mpki=1.0, l2_mpki=1.0)
        with pytest.raises(ValueError):
            Phase(alpha=0.5, cpi_base=-1.0, l1_mpki=1.0, l2_mpki=1.0)
        with pytest.raises(ValueError):
            Phase(alpha=0.5, cpi_base=1.0, l1_mpki=-1.0, l2_mpki=1.0)


class TestPhaseMachine:
    def test_deterministic_per_seed(self):
        a = machine(np.random.default_rng(7))
        b = machine(np.random.default_rng(7))
        for _ in range(100):
            sa, sb = a.advance(), b.advance()
            assert sa.alpha == sb.alpha
            assert sa.phase == sb.phase

    def test_mean_dwell_approximates_parameter(self):
        m = machine(np.random.default_rng(3), mean_dwell_intervals=25.0)
        transitions = 0
        last = m.current_phase_index
        n = 20000
        for _ in range(n):
            m.advance()
            if m.current_phase_index != last:
                transitions += 1
                last = m.current_phase_index
        observed_dwell = n / max(transitions, 1)
        assert observed_dwell == pytest.approx(25.0, rel=0.15)

    def test_visits_all_phases(self):
        m = machine(np.random.default_rng(11))
        seen = set()
        for _ in range(2000):
            m.advance()
            seen.add(m.current_phase_index)
        assert seen == {0, 1}

    def test_alpha_noise_bounded(self):
        m = machine(np.random.default_rng(13), noise_sigma=0.2)
        alphas = [m.advance().alpha for _ in range(2000)]
        assert min(alphas) >= 0.05
        assert max(alphas) <= 1.0

    def test_noise_autocorrelated(self):
        m = machine(
            np.random.default_rng(17),
            phases=PHASES[:1],
            noise_sigma=0.05,
            noise_rho=0.9,
        )
        alphas = np.array([m.advance().alpha for _ in range(5000)])
        x = alphas - alphas.mean()
        autocorr = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert autocorr > 0.6

    def test_single_phase_never_transitions(self):
        m = machine(np.random.default_rng(19), phases=PHASES[:1])
        for _ in range(100):
            m.advance()
            assert m.current_phase_index == 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PhaseMachine((), 10, 0.01, 0.5, rng)
        with pytest.raises(ValueError):
            PhaseMachine(PHASES, 0.5, 0.01, 0.5, rng)
        with pytest.raises(ValueError):
            PhaseMachine(PHASES, 10, -0.1, 0.5, rng)
        with pytest.raises(ValueError):
            PhaseMachine(PHASES, 10, 0.01, 1.0, rng)


def scalar_ar1(rho, initial, innovations):
    """The per-interval recurrence of ``PhaseMachine.advance``, verbatim."""
    out, value = [], initial
    for e in innovations:
        value = rho * value + float(e)
        out.append(value)
    return out


class TestAR1Scan:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 1000, 6660])
    def test_bit_identical_to_scalar_recurrence(self, rho, n):
        rng = np.random.default_rng(n)
        innovations = rng.normal(0.0, 0.02, size=n)
        initial = float(rng.normal(0.0, 0.05))
        scan = _ar1_scan(rho, initial, innovations)
        assert scan.dtype == innovations.dtype and scan.shape == (n,)
        assert scan.tolist() == scalar_ar1(rho, initial, innovations)

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        initial=st.floats(min_value=-1.0, max_value=1.0),
        innovations=st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=200
        ),
    )
    def test_property_matches_scalar_recurrence(self, rho, initial, innovations):
        scan = _ar1_scan(rho, initial, np.array(innovations))
        assert scan.tolist() == scalar_ar1(rho, initial, innovations)
