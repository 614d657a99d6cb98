"""Property suite: noisy-generator configs are backend-equivalent.

Hypothesis drives the analyzer's amplifier-imperfection knobs and the
execution strategy together: for *any* noisy-generator configuration —
any noise seed, any generator/evaluator noise level, offsets, partial
settling, saturation, any chunk size — the vectorized backend must
reproduce the reference backend's integer signatures **exactly** and
its derived float intervals to a few ulp.  This is the contract that
lets every configuration run on the vectorized backend: there is no
configuration class that needs the reference fallback.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass
from repro.dut.faults import fault_catalog
from repro.engine import BatchRunner
from repro.sc.opamp import OpAmpModel

M = 6
FREQS = (300.0, 1500.0)
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)
DUTS = [GOLDEN] + [
    f.apply(GOLDEN) for f in fault_catalog([-0.3, 0.3])[:2]
]


def assert_equivalent(a, b, n_ulp=4):
    """Signatures exact; every bounded float field within ``n_ulp``."""
    assert a.fwave == b.fwave
    assert a.output.signature == b.output.signature
    for interval_a, interval_b in (
        (a.gain, b.gain),
        (a.phase_rad, b.phase_rad),
        (a.output.amplitude, b.output.amplitude),
        (a.output.phase, b.output.phase),
    ):
        for field in ("value", "lower", "upper"):
            x = getattr(interval_a, field)
            y = getattr(interval_b, field)
            scale = max(abs(x), abs(y), 1.0)
            assert abs(x - y) <= n_ulp * math.ulp(scale), (
                f"{field}: {x!r} vs {y!r} beyond {n_ulp} ulp"
            )


def noisy_configs():
    """Noisy-generator analyzer configs across the imperfection space."""
    opamps = st.builds(
        OpAmpModel,
        offset=st.sampled_from([0.0, 1e-3]),
        settling_error=st.sampled_from([0.0, 1e-4]),
        v_sat=st.sampled_from([float("inf"), 1.4]),
        noise_rms=st.floats(min_value=1e-6, max_value=5e-4),
    )
    # Evaluators: ideal, noise-only, and looped (finite gain, incomplete
    # settling) with noise loud enough to move counts.
    evaluators = st.sampled_from(
        [
            None,
            OpAmpModel(noise_rms=1e-4),
            OpAmpModel(dc_gain=3000.0, settling_error=1e-3, noise_rms=2e-3),
        ]
    )
    return st.builds(
        lambda seed, generator, evaluator, random_state: AnalyzerConfig.ideal(
            m_periods=M,
            generator_opamp=generator,
            evaluator_opamp=evaluator,
            noise_seed=seed,
            random_modulator_state=random_state,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        generator=opamps,
        evaluator=evaluators,
        random_state=st.booleans(),
    )


class TestPropertyEquivalence:
    @given(config=noisy_configs(), chunk=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_fault_trials_equivalent(self, config, chunk):
        reference = BatchRunner().run_fault_trials(
            DUTS, config, FREQS, m_periods=M
        )
        vectorized = BatchRunner(
            backend="vectorized", chunk_size=chunk
        ).run_fault_trials(DUTS, config, FREQS, m_periods=M)
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_equivalent(a, b)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk=st.sampled_from([None, 2]),
    )
    @settings(max_examples=10, deadline=None)
    def test_sweep_equivalent(self, seed, chunk):
        config = AnalyzerConfig.ideal(
            m_periods=M,
            generator_opamp=OpAmpModel(noise_rms=50e-6),
            noise_seed=seed,
        )
        frequencies = [200.0, 700.0, 2000.0, 5000.0]
        reference = BatchRunner().run_sweep(
            GOLDEN, config, frequencies, m_periods=M
        )
        vectorized = BatchRunner(
            backend="vectorized", chunk_size=chunk
        ).run_sweep(GOLDEN, config, frequencies, m_periods=M)
        for a, b in zip(reference, vectorized):
            assert_equivalent(a, b)


class TestWorkerEquivalence:
    """Worker count is the third execution axis the contract spans."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_workers_never_change_noisy_results(self, backend, n_workers):
        config = AnalyzerConfig.ideal(
            m_periods=M,
            generator_opamp=OpAmpModel(noise_rms=50e-6),
            evaluator_opamp=OpAmpModel(noise_rms=1e-4),
            noise_seed=17,
        )
        baseline = BatchRunner().run_fault_trials(
            DUTS, config, FREQS, m_periods=M
        )
        other = BatchRunner(
            n_workers=n_workers, backend=backend, chunk_size=2
        ).run_fault_trials(DUTS, config, FREQS, m_periods=M)
        for trial_a, trial_b in zip(baseline, other):
            for a, b in zip(trial_a, trial_b):
                assert_equivalent(a, b)
