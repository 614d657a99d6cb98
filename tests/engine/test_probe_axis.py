"""The probe axis: one call over k probes is k one-probe calls, bit for bit.

:meth:`repro.engine.PopulationMeasurer.measure` takes a ``(probes x
devices)`` tone table and returns probe-major rows.  Its blocks run
across probe boundaries, but never hold two rows of one job stream, so
each stream is still drawn probe by probe in the reference order.  The
contract under test: the integer counts, every float array of the
result and every job RNG's end state are exactly those of one call per
probe row, for ideal, noise-only, noisy-generator and looped channels,
mixed-order stacks and rows without a state-space model, and through
``BatchRunner`` at every chunk size.
"""

import numpy as np
import pytest

from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram, lot_verdicts
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.biquads import first_order_lowpass
from repro.dut.faults import fault_catalog
from repro.dut.nonlinear import PolynomialNonlinearity, WienerDUT
from repro.dut.statespace import stack_population
from repro.engine import BatchRunner, PopulationMeasurer
from repro.engine.seeding import derive_seed
from repro.errors import ConfigError
from repro.intervals import BoundedArray
from repro.sc.opamp import OpAmpModel

from tests.engine.conftest import BLOCK_AT, SPLIT_AT

M = 8
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)
FREQS = (300.0, 1000.0, 2000.0)

IDEAL = AnalyzerConfig.ideal(m_periods=M)
#: Evaluator noise only: the noise-only kernel, one stream per job,
#: loud enough that a draw taken out of order moves the counts.
NOISE_ONLY = AnalyzerConfig.ideal(
    m_periods=M, evaluator_opamp=OpAmpModel(noise_rms=5e-3), noise_seed=5
)
#: Per-row stimulus renders and random power-up states: every stream
#: is drawn for the render, the power-up states and both channels.
NOISY_GENERATOR = AnalyzerConfig.ideal(
    m_periods=M,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    evaluator_opamp=OpAmpModel(noise_rms=100e-6),
    noise_seed=5,
    random_modulator_state=True,
)
#: Finite gain and incomplete settling: one block per probe.  Noise
#: this small rarely moves a count, so random power-up states make any
#: slip in a stream's draw order show in the counts.
LOOPED = AnalyzerConfig.ideal(
    m_periods=M,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    evaluator_opamp=OpAmpModel(dc_gain=3000.0, settling_error=1e-3, noise_rms=100e-6),
    noise_seed=5,
    random_modulator_state=True,
)


def catalog():
    return [GOLDEN] + [f.apply(GOLDEN) for f in fault_catalog([-0.4, 0.4])]


def mixed_devices():
    """Second- and first-order stacks plus a row with no state-space
    model (the Wiener device goes through ``batch_response``)."""
    wiener = WienerDUT(GOLDEN, PolynomialNonlinearity([0.0, 1.0, 0.02]))
    return [GOLDEN, first_order_lowpass(800.0), wiener, *catalog()[1:3]]


def tone_table(devices: int) -> np.ndarray:
    """Distinct tones per probe and per device, so rows differ in
    lead-in and coefficients."""
    spread = 1.0 + 0.05 * np.arange(devices)
    return np.array(FREQS)[:, None] * spread[None, :]


def job_streams(config: AnalyzerConfig, devices: int) -> list:
    if config.noise_seed is None:
        return [None] * devices
    return [
        np.random.default_rng(derive_seed(config.noise_seed, "fault", i))
        for i in range(devices)
    ]


def states(rngs) -> list:
    return [None if rng is None else rng.bit_generator.state for rng in rngs]


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def assert_rows_match(joint, singles):
    """``joint`` equals the probe rows ``singles`` concatenated, bit for bit."""
    assert bits(joint.tones) == bits(np.concatenate([s.tones for s in singles]))
    for name in ("i1", "i2", "overload"):
        expected = np.concatenate([getattr(s, name) for s in singles])
        assert np.array_equal(getattr(joint, name), expected), name
    for name in ("amplitude", "phase", "gain", "phase_rad"):
        for field in ("value", "lower", "upper"):
            expected = np.concatenate(
                [getattr(getattr(s, name), field) for s in singles]
            )
            actual = getattr(getattr(joint, name), field)
            assert bits(actual) == bits(expected), f"{name}.{field}"


def measure_both(config, duts):
    """One call over every probe, and one call per probe on fresh
    copies of the same streams; returns both results and end states."""
    calibration = BatchRunner().calibration_for(config, 1000.0, M)
    measurer = PopulationMeasurer(config, M, calibration)
    population = stack_population(duts, config.dut_settle_tolerance)
    tones = tone_table(len(duts))
    measurer.reserve(population, tones.ravel())
    joint_rngs = job_streams(config, len(duts))
    joint = measurer.measure(population, tones, joint_rngs)
    single_rngs = job_streams(config, len(duts))
    singles = [measurer.measure(population, row, single_rngs) for row in tones]
    return joint, singles, states(joint_rngs), states(single_rngs)


CONFIGS = pytest.mark.parametrize(
    "config",
    [IDEAL, NOISE_ONLY, NOISY_GENERATOR],
    ids=["ideal", "noise-only", "noisy-generator"],
)


class TestOneCallIsProbeCalls:
    @CONFIGS
    @pytest.mark.parametrize(
        "slot_block", [None, BLOCK_AT], ids=["block", "small-block"], indirect=True
    )
    def test_catalog(self, config, slot_block):
        """With ``BLOCK_AT``-row blocks, 5 devices per probe put block
        edges inside probes and blocks across probe boundaries."""
        joint, singles, joint_states, single_states = measure_both(
            config, catalog()
        )
        assert len(joint.i1) == len(FREQS) * len(catalog())
        assert_rows_match(joint, singles)
        assert joint_states == single_states

    @pytest.mark.parametrize(
        "slot_split", [None, SPLIT_AT], ids=["per-column", "device-axis"],
        indirect=True,
    )
    def test_looped_channels(self, slot_split):
        joint, singles, joint_states, single_states = measure_both(
            LOOPED, catalog()
        )
        assert_rows_match(joint, singles)
        assert joint_states == single_states

    @pytest.mark.parametrize(
        "config", [IDEAL, NOISY_GENERATOR], ids=["ideal", "noisy-generator"]
    )
    def test_mixed_orders_and_others(self, config):
        joint, singles, joint_states, single_states = measure_both(
            config, mixed_devices()
        )
        assert_rows_match(joint, singles)
        assert joint_states == single_states

    def test_flat_tones_are_one_probe(self):
        calibration = BatchRunner().calibration_for(IDEAL, 1000.0, M)
        measurer = PopulationMeasurer(IDEAL, M, calibration)
        duts = catalog()
        population = stack_population(duts, IDEAL.dut_settle_tolerance)
        measurer.reserve(population, FREQS)
        flat = measurer.measure(population, [1000.0] * len(duts), [None] * len(duts))
        table = measurer.measure(
            population, [[1000.0] * len(duts)], [None] * len(duts)
        )
        assert_rows_match(flat, [table])

    @pytest.mark.parametrize(
        "tones",
        [[], [[]], [[1000.0] * 4], [[[1000.0] * 5]]],
        ids=["empty", "no-devices", "short-row", "three-axes"],
    )
    def test_malformed_tone_tables_rejected(self, tones):
        calibration = BatchRunner().calibration_for(IDEAL, 1000.0, M)
        measurer = PopulationMeasurer(IDEAL, M, calibration)
        population = stack_population(catalog(), IDEAL.dut_settle_tolerance)
        measurer.reserve(population, FREQS)
        with pytest.raises(ConfigError, match="tone table"):
            measurer.measure(population, tones, [None] * 5)


def per_probe_measurements(config, duts, stream):
    """Each device's measurements from one single-probe call per
    frequency over the whole population, on the runner's streams."""
    calibration = BatchRunner().calibration_for(config, FREQS[0], M)
    measurer = PopulationMeasurer(config, M, calibration)
    population = stack_population(duts, config.dut_settle_tolerance)
    measurer.reserve(population, FREQS)
    rngs = [
        None
        if config.noise_seed is None
        else np.random.default_rng(derive_seed(config.noise_seed, stream, i))
        for i in range(len(duts))
    ]
    probes = [
        measurer.box(measurer.measure(population, [f] * len(duts), rngs))
        for f in FREQS
    ]
    return [tuple(probe[i] for probe in probes) for i in range(len(duts))]


class TestRunnerChunks:
    @pytest.mark.parametrize(
        "config",
        [IDEAL, NOISY_GENERATOR, LOOPED],
        ids=["ideal", "noisy-generator", "looped"],
    )
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_fault_trials(self, config, chunk):
        duts = [GOLDEN] + [
            f.apply(GOLDEN) for f in fault_catalog([-0.5, -0.2, 0.2, 0.5])
        ][:8]
        assert len(duts) > 7
        expected = per_probe_measurements(config, duts, "fault")
        trials = BatchRunner(backend="vectorized", chunk_size=chunk).run_fault_trials(
            duts, config, FREQS, m_periods=M
        )
        assert trials == expected

    @pytest.mark.parametrize(
        "config", [IDEAL, NOISY_GENERATOR], ids=["ideal", "noisy-generator"]
    )
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_yield_lot(self, config, chunk):
        nominal = design_mfb_lowpass(1000.0)
        mask = SpecMask.from_golden(ActiveRCLowpass(nominal), FREQS, tolerance_db=0.5)
        program = BISTProgram(mask, FREQS, m_periods=M)
        n_devices, sigma, seed = 11, 0.05, 4
        rng = np.random.default_rng(seed)
        duts = [
            ActiveRCLowpass(nominal.with_tolerance(sigma, rng))
            for _ in range(n_devices)
        ]
        measured = per_probe_measurements(config, duts, "trial")
        expected = lot_verdicts(
            [
                _gains([trial[p] for trial in measured])
                for p in range(len(FREQS))
            ],
            [mask.limits_at(f) for f in FREQS],
        )
        trials = BatchRunner(backend="vectorized", chunk_size=chunk).run_trials(
            nominal, mask, program, n_devices=n_devices,
            component_sigma=sigma, seed=seed, config=config,
        )
        assert [verdict for verdict, _ in trials] == expected


def _gains(measurements):
    return BoundedArray(
        np.array([m.gain.value for m in measurements]),
        np.array([m.gain.lower for m in measurements]),
        np.array([m.gain.upper for m in measurements]),
    )
