"""The wide-lot kernel: one device-axis DF2T pass instead of a ``lfilter``
per row, on the exact channel.

``repro.engine.vectorized._DF2T`` repeats SciPy ``lfilter``'s transposed
direct-form-II operations over a device axis, and ``_wide_sums`` takes
both channels' closed-form prefix sums inside that loop.  The contract
under test: every response sample equals ``lfilter``'s bit for bit, and
every count (overload fallbacks included) equals the per-row path's.

Every test in this module runs with the kernel's row threshold at 1
(``wide_kernel``), so the suites imported at the bottom — the golden
baselines, ``test_chunking.py`` and ``test_probe_axis.py`` — also run
their ideal calls through the kernel.
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.clocking.master import OVERSAMPLING_RATIO
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass
from repro.dut.biquads import first_order_lowpass, lowpass
from repro.dut.faults import fault_catalog
from repro.dut.nonlinear import PolynomialNonlinearity, WienerDUT
from repro.dut.statespace import stack_population
from repro.engine import BatchRunner, PopulationMeasurer, vectorized
from repro.errors import ConfigError
from repro.evaluator.sigma_delta import _prefix_sums
from repro.scenarios import baseline

from tests.engine import test_chunking, test_probe_axis
from tests.scenarios.test_baselines import baseline_params

M = 8
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)
FREQS = (300.0, 1000.0, 2000.0)


@pytest.fixture(autouse=True)
def wide_kernel(monkeypatch):
    """Every call that may take the kernel takes it."""
    monkeypatch.setattr(vectorized, "_WIDE_ROWS", 1)


def bits(array: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns (signed zeros and NaN payloads included)."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


# ----------------------------------------------------------------------
# The recurrence
# ----------------------------------------------------------------------


def random_rows(rng, order: int, rows: int, b0: bool, a0: bool):
    """Stable ``(num, den)`` rows of one order: real poles and
    conjugate pairs of radius below 0.97, ``b[0]`` zero or not, ``a[0]``
    one or not."""
    num = rng.normal(size=(rows, order + 1))
    den = np.empty((rows, order + 1))
    for r in range(rows):
        poles = []
        while len(poles) < order:
            radius = rng.uniform(0.2, 0.97)
            if order - len(poles) >= 2 and rng.random() < 0.5:
                angle = rng.uniform(0.05, np.pi - 0.05)
                pole = radius * np.exp(1j * angle)
                poles += [pole, pole.conjugate()]
            else:
                poles.append(radius * rng.choice([-1.0, 1.0]))
        den[r] = np.poly(poles).real
    if not b0:
        num[:, 0] = 0.0
    if not a0:
        scale = rng.uniform(0.3, 3.0, size=(rows, 1))
        num *= scale
        den *= scale
    return num, den


class TestDF2T:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("b0", [False, True], ids=["b0-zero", "b0"])
    @pytest.mark.parametrize("a0", [True, False], ids=["a0-one", "a0"])
    def test_response_is_lfilter_bit_for_bit(self, order, b0, a0):
        """Each step's outputs are ``lfilter``'s, sign of zero included.

        An ``lfilter`` contracted to fused multiply-adds would round
        differently and fail here first."""
        rng = np.random.default_rng(1000 * order + 10 * b0 + a0)
        num, den = random_rows(rng, order, 12, b0, a0)
        x = np.concatenate([np.zeros(3), rng.normal(size=300), np.zeros(20)])
        filt = vectorized._DF2T(num, den)
        out = np.array([filt.step(sample).copy() for sample in x.tolist()]).T
        for r in range(len(num)):
            expected = lfilter(num[r], den[r], x)
            assert np.array_equal(bits(out[r]), bits(expected)), r

    def test_finished_rows_drop_out(self):
        """Rows before ``lo`` stop; the rest keep ``lfilter``'s values."""
        rng = np.random.default_rng(7)
        num, den = random_rows(rng, 2, 9, True, True)
        x = rng.normal(size=120)
        filt = vectorized._DF2T(num, den)
        expected = np.array([lfilter(num[r], den[r], x) for r in range(9)])
        for k, sample in enumerate(x.tolist()):
            lo = k // 15
            y = filt.step(sample, lo)
            assert np.array_equal(bits(y), bits(expected[lo:, k])), k


# ----------------------------------------------------------------------
# Counts against the per-row path
# ----------------------------------------------------------------------


def catalog():
    return [GOLDEN] + [f.apply(GOLDEN) for f in fault_catalog([-0.4, 0.4])]


def mixed_devices():
    """Second- and first-order stacks and a row without a state-space
    model (the Wiener device stays on the per-row path)."""
    wiener = WienerDUT(GOLDEN, PolynomialNonlinearity([0.0, 1.0, 0.02]))
    return [GOLDEN, first_order_lowpass(800.0), wiener, *catalog()[1:4]]


def peaking_devices():
    """High-Q low-passes: rows at their resonance overload a loud
    stimulus, rows away from it stay in range."""
    return [lowpass(f0, q=6.0) for f0 in (700.0, 950.0, 1000.0, 1300.0, 2100.0)]


def spread_tones(devices: int) -> np.ndarray:
    """Distinct tones per probe and device: lead-ins from one to several
    periods apart, several rows per lead group."""
    spread = 1.0 + 0.13 * np.arange(devices)
    return np.array(FREQS)[:, None] * spread[None, :]


def measurer_for(config, duts):
    """A measurer reserved for ``duts`` at :func:`spread_tones`, the
    population and the tone table."""
    m = config.m_periods
    measurer = PopulationMeasurer(
        config, m, BatchRunner().calibration_for(config, 1000.0, m)
    )
    population = stack_population(duts, config.dut_settle_tolerance)
    tones = spread_tones(len(duts))
    measurer.reserve(population, tones.ravel())
    return measurer, population, tones


def counts(config, duts, threshold, monkeypatch):
    """A call's ``(i1, i2, overload)`` and the rows the kernel counted,
    with the kernel's row threshold at ``threshold``."""
    monkeypatch.setattr(vectorized, "_WIDE_ROWS", threshold)
    measurer, population, tones = measurer_for(config, duts)
    covered = []
    kernel = vectorized._wide_sums

    def spy(*args):
        first, total, in_range = kernel(*args)
        covered.append(int(in_range.sum()))
        return first, total, in_range

    monkeypatch.setattr(vectorized, "_wide_sums", spy)
    result = measurer.measure(population, tones, [None] * len(duts))
    monkeypatch.setattr(vectorized, "_wide_sums", kernel)
    return (result.i1, result.i2, result.overload), covered


def assert_counts_match(config, duts, monkeypatch):
    """The kernel's counts equal the per-row path's; returns the
    kernel's per-stack in-range row counts."""
    wide, covered = counts(config, duts, 1, monkeypatch)
    per_row, none = counts(config, duts, 10**9, monkeypatch)
    assert not none
    for name, a, b in zip(("i1", "i2", "overload"), wide, per_row):
        assert np.array_equal(a, b), name
    return covered, per_row[2]


class TestSums:
    @pytest.mark.parametrize(
        "chopped, m",
        [(True, M), (False, M), (False, 5)],
        ids=["chopped", "plain", "plain-odd"],
    )
    @pytest.mark.parametrize("settle", [1e-6, 0.5], ids=["settled", "unsettled"])
    def test_sums_are_the_closed_forms(self, chopped, m, settle):
        """``first`` and ``total`` are ``_prefix_sums`` of the time-major
        windows ``((q y) / vref + 1) * 0.5`` of ``lfilter``'s responses,
        bit for bit, for every row of every stack.  Unsettled lead-ins
        leave transients in the windows, so the two halves differ."""
        config = AnalyzerConfig.ideal(
            m_periods=m, chopped=chopped, dut_settle_tolerance=settle
        )
        measurer, population, tones = measurer_for(config, mixed_devices())
        plan = measurer._row_plan(population, tones)
        q = np.stack([measurer._q1, measurer._q2])
        n, mn, vref = OVERSAMPLING_RATIO, measurer.mn, config.vref
        stimulus = measurer._stimulus
        for rows, (num, den) in plan.transfers:
            leads = plan.leads[rows]
            first, total, in_range = vectorized._wide_sums(
                num, den, leads, stimulus, q, vref
            )
            assert in_range.all()
            windows = np.array(
                [
                    lfilter(num[r], den[r], stimulus[: (lead + m) * n])[
                        lead * n : lead * n + mn
                    ]
                    for r, lead in enumerate(leads.tolist())
                ]
            ).T
            for c in range(2):
                # C order, as the closed form reads it: NumPy reduces
                # its outer axis row by row.
                t = np.ascontiguousarray(q[c][:, None] * windows)
                t /= vref
                t += 1.0
                t *= 0.5
                expected_first, expected_total = _prefix_sums(t)
                assert np.array_equal(bits(first[c]), bits(expected_first))
                assert np.array_equal(bits(total[c]), bits(expected_total))


class TestCounts:
    @pytest.mark.parametrize(
        "chopped, m_periods",
        [(True, M), (True, 4), (False, M), (False, 4), (False, 5), (False, 7)],
    )
    def test_catalog(self, chopped, m_periods, monkeypatch):
        """Plain windows of odd ``m`` split mid-period, so the second
        half's modulation phase is not the first half's."""
        config = AnalyzerConfig.ideal(m_periods=m_periods, chopped=chopped)
        covered, _ = assert_counts_match(config, catalog(), monkeypatch)
        assert covered == [len(FREQS) * len(catalog())]

    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_mixed_orders_and_others(self, chopped, monkeypatch):
        config = AnalyzerConfig.ideal(m_periods=M, chopped=chopped)
        covered, _ = assert_counts_match(config, mixed_devices(), monkeypatch)
        # One stack per order; the Wiener rows take the per-row path.
        assert sorted(covered) == [len(FREQS), 4 * len(FREQS)]

    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_out_of_range_rows_fall_back(self, chopped, monkeypatch):
        config = AnalyzerConfig.ideal(
            m_periods=M, chopped=chopped, stimulus_amplitude=0.3
        )
        covered, overload = assert_counts_match(
            config, peaking_devices(), monkeypatch
        )
        rows = len(FREQS) * len(peaking_devices())
        assert 0 < covered[0] < rows
        assert rows - covered[0] == np.count_nonzero(overload)

    @pytest.mark.parametrize("vref", [1.0, 0.25])
    def test_power_of_two_vref(self, vref, monkeypatch):
        config = AnalyzerConfig.ideal(
            m_periods=M, vref=vref, stimulus_amplitude=0.6 * vref
        )
        covered, _ = assert_counts_match(config, catalog(), monkeypatch)
        assert covered == [len(FREQS) * len(catalog())]

    def test_other_vref_keeps_the_per_row_path(self, monkeypatch):
        config = AnalyzerConfig.ideal(m_periods=M, vref=0.75, stimulus_amplitude=0.4)
        covered, _ = assert_counts_match(config, catalog(), monkeypatch)
        assert covered == []

    def test_job_streams_keep_the_per_row_path(self, monkeypatch):
        config = AnalyzerConfig.ideal(m_periods=M, noise_seed=3)
        calibration = BatchRunner().calibration_for(config, 1000.0, M)
        measurer = PopulationMeasurer(config, M, calibration)
        population = stack_population(catalog(), config.dut_settle_tolerance)
        tones = spread_tones(len(catalog()))
        measurer.reserve(population, tones.ravel())

        def refuse(*args):
            raise AssertionError("a call with job streams took the kernel")

        monkeypatch.setattr(vectorized, "_wide_sums", refuse)
        rngs = [np.random.default_rng(i) for i in range(len(catalog()))]
        measurer.measure(population, tones, rngs)


def test_short_stimulus_is_refused():
    """A stimulus shorter than the latest row's window is an error, not
    a loop that stops early."""
    num, den = np.array([[0.0, 0.5]]), np.array([[1.0, -0.5]])
    q = np.ones((2, M * OVERSAMPLING_RATIO))
    stimulus = np.zeros((M + 1) * OVERSAMPLING_RATIO - 1)
    with pytest.raises(ConfigError, match="stimulus holds"):
        vectorized._wide_sums(num, den, np.array([1]), stimulus, q, 0.5)


@pytest.mark.parametrize("path", baseline_params())
def test_baseline_replays_through_the_kernel(path):
    report = baseline.check(path, backend="vectorized")
    assert report.ok, report.report()


# The chunking and probe-axis suites again, with the kernel forced on.
TestExactChannelInvariance = test_chunking.TestExactChannelInvariance
TestOneCallIsProbeCalls = test_probe_axis.TestOneCallIsProbeCalls
TestRunnerChunks = test_probe_axis.TestRunnerChunks
