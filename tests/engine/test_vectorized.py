"""Vectorized population backend: result equivalence and the seam.

The contract under test (see :mod:`repro.engine.vectorized`): the
vectorized backend consumes the same derived noise substreams, shares a
bit-identical stimulus render, and produces **exactly** the reference
backend's integer signatures; the derived float intervals may differ
only by last-bit library rounding (NumPy vs :mod:`math` elementwise
functions), bounded here at a few ulp.
"""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.montecarlo import run_yield_analysis
from repro.bist.program import BISTProgram
from repro.core.analyzer import NetworkAnalyzer
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog, full_catalog
from repro.dut.statespace import stack_population
from repro.engine import BatchRunner, PopulationMeasurer
from repro.errors import ConfigError
from repro.evaluator.sigma_delta import FirstOrderSigmaDelta
from repro.faults.campaign import FaultCampaign
from repro.sc.opamp import OpAmpModel
from tests.engine.conftest import BLOCK_AT, SPLIT_AT

TIGHT = dict(rel=1e-12, abs=1e-15)
VECTORIZED = ExecutionPolicy(backend="vectorized")

GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)
FREQS = (300.0, 1000.0, 2000.0)
M = 20

IDEAL = AnalyzerConfig.ideal(m_periods=M)
NOISY = AnalyzerConfig.ideal(
    m_periods=M, evaluator_opamp=OpAmpModel(noise_rms=50e-6), noise_seed=7
)
#: Finite gain and incomplete settling: the device-axis loop in wide
#: slots, the per-device modulator below ``_BATCH_MIN_DEVICES``.  Random
#: power-up states and millivolt noise make the stream draws move counts.
LOOPED = AnalyzerConfig.ideal(
    m_periods=M,
    evaluator_opamp=OpAmpModel(dc_gain=3000.0, settling_error=1e-3, noise_rms=2e-3),
    noise_seed=7,
    random_modulator_state=True,
)
NOISY_RANDOM_STATE = AnalyzerConfig.ideal(
    m_periods=M,
    evaluator_opamp=OpAmpModel(noise_rms=50e-6),
    noise_seed=7,
    random_modulator_state=True,
)

#: Ideal channels with random power-up states, driven hard enough that
#: some lot devices overload the modulator at the lowest program
#: frequency (see ``TestYieldEquivalence``).
BLOCKED = AnalyzerConfig.ideal(
    m_periods=M,
    stimulus_amplitude=0.48,
    noise_seed=7,
    random_modulator_state=True,
)


def small_catalog():
    return [f.apply(GOLDEN) for f in fault_catalog([-0.5, -0.2, 0.2, 0.5])]


def big_catalog():
    """Large enough to engage the batched (not per-device) strategy."""
    deviations = [-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5]
    return [f.apply(GOLDEN) for f in fault_catalog(deviations)]


def assert_measurements_equivalent(a, b):
    """Signatures exact; every bounded float field within a few ulp."""
    assert a.fwave == b.fwave
    assert a.output.signature == b.output.signature
    for interval_a, interval_b in (
        (a.gain, b.gain),
        (a.phase_rad, b.phase_rad),
        (a.output.amplitude, b.output.amplitude),
        (a.output.phase, b.output.phase),
    ):
        for field in ("value", "lower", "upper"):
            assert getattr(interval_a, field) == pytest.approx(
                getattr(interval_b, field), **TIGHT
            )


class TestFaultTrialEquivalence:
    @pytest.mark.parametrize(
        "config",
        [IDEAL, NOISY, NOISY_RANDOM_STATE, LOOPED],
        ids=["ideal", "noisy", "noisy-random-state", "looped"],
    )
    def test_batched_population(self, config):
        duts = [GOLDEN] + big_catalog()
        reference = BatchRunner().run_fault_trials(duts, config, FREQS, m_periods=M)
        vectorized = BatchRunner(backend="vectorized").run_fault_trials(
            duts, config, FREQS, m_periods=M
        )
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_measurements_equivalent(a, b)

    @pytest.mark.parametrize(
        "config", [IDEAL, NOISY, LOOPED], ids=["ideal", "noisy", "looped"]
    )
    def test_small_population(self, config):
        """Below the batching threshold finite-gain channels take the
        per-device strategy; ideal and noise-only ones keep their array
        forms."""
        duts = [GOLDEN] + small_catalog()[:2]
        reference = BatchRunner().run_fault_trials(duts, config, FREQS, m_periods=M)
        vectorized = BatchRunner(backend="vectorized").run_fault_trials(
            duts, config, FREQS, m_periods=M
        )
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_measurements_equivalent(a, b)

    def test_overloading_faults(self):
        """Catastrophic faults can overload the modulator; the reference
        scalar branch must be reproduced for exactly those devices."""
        duts = [GOLDEN] + [f.apply(GOLDEN) for f in full_catalog([-0.5, 0.5])]
        reference = BatchRunner().run_fault_trials(duts, IDEAL, FREQS, m_periods=M)
        vectorized = BatchRunner(backend="vectorized").run_fault_trials(
            duts, IDEAL, FREQS, m_periods=M
        )
        overloads = [
            trial[0].output.signature.overload_count for trial in reference
        ]
        assert any(count > 0 for count in overloads), "fixture lost its overloads"
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_measurements_equivalent(a, b)

    def test_noise_only_overloads_take_the_fallback(self, monkeypatch):
        """Overloading faults fail the noise-only kernel's verification:
        the guard that the scalar fallback runs, and matches, on a real
        population."""
        duts = [GOLDEN] + [f.apply(GOLDEN) for f in full_catalog([-0.5, 0.5])]
        reference = BatchRunner().run_fault_trials(duts, NOISY, FREQS, m_periods=M)
        fallbacks = []
        loop = FirstOrderSigmaDelta.sequential_bits

        def spy(modulator, drive, u):
            fallbacks.append(len(drive))
            return loop(modulator, drive, u)

        monkeypatch.setattr(FirstOrderSigmaDelta, "sequential_bits", spy)
        vectorized = BatchRunner(backend="vectorized").run_fault_trials(
            duts, NOISY, FREQS, m_periods=M
        )
        assert fallbacks, "no window failed verification"
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_measurements_equivalent(a, b)

    def test_start_index_preserves_substreams(self):
        duts = big_catalog()
        reference = BatchRunner().run_fault_trials(
            duts, NOISY, FREQS, m_periods=M, start_index=3
        )
        vectorized = BatchRunner(backend="vectorized").run_fault_trials(
            duts, NOISY, FREQS, m_periods=M, start_index=3
        )
        for trial_a, trial_b in zip(reference, vectorized):
            for a, b in zip(trial_a, trial_b):
                assert_measurements_equivalent(a, b)


#: Ideal, noise-only and finite-gain analyzers, the last two also with
#: the strategy boundary split at ``SPLIT_AT`` (see ``conftest.py``),
#: which moves ``LOOPED`` slots from the per-device to the device-axis
#: modulator (noise-only slots take the same path either way).
CONFIG_CASES = pytest.mark.parametrize(
    ("config", "slot_split"),
    [(IDEAL, None), (NOISY, None), (NOISY, SPLIT_AT), (LOOPED, None), (LOOPED, SPLIT_AT)],
    ids=["ideal", "noisy", "noisy-split", "looped", "looped-split"],
    indirect=["slot_split"],
)


class TestSweepEquivalence:
    @CONFIG_CASES
    def test_run_sweep(self, config, slot_split):
        frequencies = list(np.geomspace(200.0, 5000.0, 12))
        reference = BatchRunner().run_sweep(GOLDEN, config, frequencies, m_periods=M)
        vectorized = BatchRunner(backend="vectorized").run_sweep(
            GOLDEN, config, frequencies, m_periods=M
        )
        for a, b in zip(reference, vectorized):
            assert_measurements_equivalent(a, b)

    def test_sweep_backend_equivalent(self):
        analyzer = NetworkAnalyzer(GOLDEN, IDEAL)
        cal = analyzer.calibrate(1000.0, m_periods=M)
        reference = analyzer.bode([500.0, 1000.0], m_periods=M)
        with Session(GOLDEN, IDEAL, VECTORIZED) as session:
            vectorized = session.sweep(
                [500.0, 1000.0], m_periods=M, calibration=cal
            ).raw
        for a, b in zip(reference, vectorized):
            assert_measurements_equivalent(a, b)


#: ``CONFIG_CASES`` plus ``blocked``: the ``BLOCKED`` analyzer in
#: ``BLOCK_AT``-device blocks (see ``conftest.py``), so each slot ends in
#: a partial block, power-up states are drawn block by block, and
#: overloading devices take the scalar fallback in later blocks.
YIELD_CASES = pytest.mark.parametrize(
    ("config", "slot_split", "slot_block"),
    [
        (IDEAL, None, None),
        (NOISY, None, None),
        (NOISY, SPLIT_AT, None),
        (BLOCKED, None, BLOCK_AT),
        (LOOPED, None, None),
        (LOOPED, SPLIT_AT, None),
    ],
    ids=["ideal", "noisy", "noisy-split", "blocked", "looped", "looped-split"],
    indirect=["slot_split", "slot_block"],
)


class TestYieldEquivalence:
    def setup_method(self):
        self.nominal = design_mfb_lowpass(1000.0)
        frequencies = [300.0, 1000.0, 2000.0]
        self.mask = SpecMask.from_golden(
            ActiveRCLowpass(self.nominal), frequencies, tolerance_db=2.0
        )
        self.program = BISTProgram(self.mask, frequencies, m_periods=M)

    def test_blocked_lot_overloads_in_a_later_block(self):
        """The ``blocked`` case's lot (drawn as ``run_trials`` draws it)
        overloads the modulator beyond the first block."""
        rng = np.random.default_rng(11)
        devices = [
            ActiveRCLowpass(self.nominal.with_tolerance(0.05, rng))
            for _ in range(16)
        ]
        trials = BatchRunner().run_fault_trials(
            devices, BLOCKED, self.program.frequencies, m_periods=M
        )
        overloaded = [
            i
            for i, trial in enumerate(trials)
            if any(m.output.signature.overload_count for m in trial)
        ]
        assert any(i >= BLOCK_AT for i in overloaded), overloaded

    @YIELD_CASES
    def test_trials_identical(self, config, slot_split, slot_block):
        kwargs = dict(
            n_devices=16, component_sigma=0.05, seed=11, config=config
        )
        reference = BatchRunner().run_trials(
            self.nominal, self.mask, self.program, **kwargs
        )
        vectorized = BatchRunner(backend="vectorized").run_trials(
            self.nominal, self.mask, self.program, **kwargs
        )
        assert reference == vectorized

    def test_yield_lot_backend_equivalent(self):
        with Session(config=IDEAL, policy=VECTORIZED) as session:
            report = session.yield_lot(
                self.nominal,
                self.mask,
                self.program,
                n_devices=6,
                component_sigma=0.03,
                seed=3,
            ).raw
        baseline = run_yield_analysis(
            self.nominal,
            self.mask,
            self.program,
            n_devices=6,
            component_sigma=0.03,
            seed=3,
            config=IDEAL,
        )
        assert report.test_yield == baseline.test_yield
        assert report.true_yield == baseline.true_yield


class TestCampaignBackend:
    def test_dictionary_equivalent(self):
        campaign = FaultCampaign(
            GOLDEN, fault_catalog([-0.5, 0.5]), FREQS, config=IDEAL, m_periods=M
        )
        reference = campaign.run()
        with Session(policy=VECTORIZED) as session:
            vectorized = campaign.run(session=session)
        assert reference.labels == vectorized.labels
        for label in reference.labels:
            for a, b in zip(
                reference.entry(label).points, vectorized.entry(label).points
            ):
                assert a.gain_db.value == pytest.approx(b.gain_db.value, **TIGHT)
                assert a.phase_deg.value == pytest.approx(b.phase_deg.value, **TIGHT)
        assert reference.ambiguity_groups() == vectorized.ambiguity_groups()


class TestSeam:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            BatchRunner(backend="gpu")

    def test_stats_record_backend(self):
        runner = BatchRunner(backend="vectorized")
        runner.run_sweep(GOLDEN, IDEAL, [500.0, 1000.0], m_periods=M)
        assert runner.last_stats.backend == "vectorized"
        assert runner.last_stats.n_workers == 1
        reference = BatchRunner()
        reference.run_sweep(GOLDEN, IDEAL, [500.0, 1000.0], m_periods=M)
        assert reference.last_stats.backend == "reference"

    def test_noisy_generator_vectorizes(self):
        """A noisy generator renders as a batched per-device stimulus:
        the vectorized runner stays on the vectorized path and matches
        the reference signatures bit for bit."""
        config = AnalyzerConfig.ideal(
            m_periods=M,
            generator_opamp=OpAmpModel(noise_rms=30e-6),
            noise_seed=5,
        )
        runner = BatchRunner(backend="vectorized")
        results = runner.run_sweep(GOLDEN, config, [500.0, 1000.0], m_periods=M)
        assert runner.last_stats.backend == "vectorized"
        assert runner.fallbacks == 0
        reference = BatchRunner().run_sweep(
            GOLDEN, config, [500.0, 1000.0], m_periods=M
        )
        for a, b in zip(reference, results):
            assert a.output.signature == b.output.signature
            assert a.gain.value == b.gain.value

    def test_typical_die_equivalence(self):
        """The paper's typical() die (noisy generator + evaluator) is
        bit-identical across backends."""
        config = AnalyzerConfig.typical()
        reference = BatchRunner().run_sweep(
            GOLDEN, config, [500.0, 1000.0], m_periods=M
        )
        vectorized = BatchRunner(backend="vectorized").run_sweep(
            GOLDEN, config, [500.0, 1000.0], m_periods=M
        )
        for a, b in zip(reference, vectorized):
            assert_measurements_equivalent(a, b)

    def test_cache_shared_between_backends(self):
        runner = BatchRunner(backend="vectorized")
        runner.run_sweep(GOLDEN, IDEAL, [500.0], m_periods=M)
        assert runner.last_stats.cache_misses == 1
        runner.run_sweep(GOLDEN, IDEAL, [500.0], m_periods=M)
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.cache_misses == 0

    def test_slot_rejects_shared_noise_streams(self):
        """Blocks draw each entry's stream on its own, which is only the
        reference order when no two entries share a stream."""
        calibration = BatchRunner().calibration_for(NOISY, 1000.0, M)
        measurer = PopulationMeasurer(NOISY, M, calibration)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="share a noise stream"):
            measurer.measure(
                stack_population([GOLDEN, GOLDEN], NOISY.dut_settle_tolerance),
                [1000.0, 500.0],
                [rng, rng],
            )
