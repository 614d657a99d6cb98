"""Closed-form window sums on the exact channel.

``repro.engine.window_sums.WindowSums`` takes each ideal, stream-free
state-space row's two prefix sums in closed form, with a rigorous bound
on their distance from the per-row path's floating-point sums, and the
measurer counts a row from them only when every floor it reads is
certain.  The contract under test: every count equals the per-row
path's bit for bit, the bound holds against exact rational arithmetic,
and rows whose floors are not certain fall back.

Every test in this module runs with the closed form's row threshold at
1 (``every_stack``), so the suites imported at the bottom — the golden
baselines, ``test_chunking.py`` and ``test_probe_axis.py`` — also count
every stack of their ideal calls in closed form.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.clocking.master import OVERSAMPLING_RATIO
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.biquads import first_order_lowpass, lowpass
from repro.dut.faults import fault_catalog
from repro.dut.nonlinear import PolynomialNonlinearity, WienerDUT
from repro.dut.statespace import stack_population
from repro.engine import BatchRunner, PopulationMeasurer
from repro.engine import vectorized, window_sums
from repro.engine.vectorized import _modulated
from repro.engine.window_sums import WindowSums, floors_agree
from repro.errors import ConfigError
from repro.evaluator.sigma_delta import _prefix_sums
from repro.obs.metrics import MetricRegistry
from repro.scenarios import baseline

from tests.engine import test_chunking, test_probe_axis
from tests.scenarios.test_baselines import baseline_params

N = OVERSAMPLING_RATIO
M = 8
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)
FREQS = (300.0, 1000.0, 2000.0)
# (chopped, m): chopped and plain windows, plain ones of odd m too.
WINDOWS = [(True, 8), (True, 4), (False, 8), (False, 5), (False, 7)]
WINDOW_IDS = ["chopped-8", "chopped-4", "plain-8", "plain-5", "plain-7"]


@pytest.fixture(autouse=True)
def every_stack(monkeypatch):
    """Every stack that may take the closed form takes it."""
    monkeypatch.setattr(vectorized, "_CLOSED_FORM_ROWS", 1)


# ----------------------------------------------------------------------
# Rows and the per-row path
# ----------------------------------------------------------------------


def random_rows(rng, order: int, rows: int, radius=(0.2, 0.97)):
    """Stable ``(num, den)`` rows of one order: real poles and conjugate
    pairs, ``b[0]`` zero in every third row, ``a[0]`` not one in every
    other row."""
    num = rng.normal(size=(rows, order + 1))
    den = np.empty((rows, order + 1))
    for r in range(rows):
        poles = []
        while len(poles) < order:
            size = rng.uniform(*radius)
            if order - len(poles) >= 2 and rng.random() < 0.5:
                pole = size * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
                poles += [pole, pole.conjugate()]
            else:
                poles.append(size * rng.choice([-1.0, 1.0]))
        den[r] = np.poly(poles).real
    num[::3, 0] = 0.0
    scale = rng.uniform(0.3, 3.0, size=(rows, 1))
    scale[::2] = 1.0
    return num * scale, den * scale


def windows_of(num, den, leads, stimulus, mn, n=N):
    """``lfilter``'s responses over each row's window, ``(rows x mn)``."""
    return np.array(
        [
            lfilter(num[r], den[r], stimulus[: lead * n + mn])[lead * n :]
            for r, lead in enumerate(leads.tolist())
        ]
    )


def per_row_sums(windows, q, vref):
    """The per-row path's ``first`` and ``total`` ``(2 x rows)``, its
    arithmetic operation for operation."""
    first, total = [], []
    for signs in q:
        t = np.ascontiguousarray(_modulated(signs, windows))
        t /= vref
        t += 1.0
        t *= 0.5
        a, b = _prefix_sums(t)
        first.append(np.array(a))
        total.append(np.array(b))
    return np.array(first), np.array(total)


def in_range_rows(num, den, leads, stimulus, mn, vref, share=0.5, n=N):
    """Rescale ``num`` so every row's window peaks at ``share * vref``."""
    peaks = np.abs(windows_of(num, den, leads, stimulus, mn, n)).max(axis=1)
    return num * (share * vref / peaks)[:, None]


def ideal_measurer(chopped=True, m=M, vref=1.0, amplitude=None, metrics=None):
    config = AnalyzerConfig.ideal(
        m_periods=m,
        chopped=chopped,
        vref=vref,
        stimulus_amplitude=0.6 * vref if amplitude is None else amplitude,
    )
    calibration = BatchRunner().calibration_for(config, 1000.0, m)
    return PopulationMeasurer(config, m, calibration, metrics=metrics)


def reserved(measurer, duts, tones):
    population = stack_population(duts, measurer.config.dut_settle_tolerance)
    measurer.reserve(population, tones.ravel())
    return population


def random_leads(rng, measurer, size, most=6):
    """Lead-ins of up to ``most`` periods that the reserved stimulus
    covers."""
    room = len(measurer._stimulus) // N - measurer.m_periods
    return rng.integers(0, min(most, room) + 1, size=size)


def per_row_counts(measurer, num, den, leads, u0=None):
    """The per-row path's ``(i1, i2, overload)`` of rows given by their
    coefficients, with power-up states ``u0``."""
    windows = windows_of(num, den, leads, measurer._stimulus, measurer.mn)
    u0 = np.zeros(len(leads)) if u0 is None else u0
    chopped = measurer.config.chopped
    channels = (measurer.evaluator.channel1, measurer.evaluator.channel2)
    counts = [
        channel.signatures(_modulated(q, windows), u0, [None] * len(leads), chopped)
        for channel, q in zip(channels, (measurer._q1, measurer._q2))
    ]
    return counts[0][0], counts[1][0], counts[0][1] + counts[1][1]


def assert_closed_counts_match(measurer, num, den, leads, u0=None):
    """Certified rows count as the per-row path does; returns the mask."""
    u0 = np.zeros(len(leads)) if u0 is None else u0
    counts, certified = measurer._closed_form_counts(num, den, leads, u0)
    i1, i2, overload = per_row_counts(measurer, num, den, leads, u0)
    assert np.array_equal(counts[0], i1[certified])
    assert np.array_equal(counts[1], i2[certified])
    assert not overload[certified].any()
    return certified


# ----------------------------------------------------------------------
# Counts against the per-row path
# ----------------------------------------------------------------------


class TestRandomStacks:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("chopped, m", WINDOWS, ids=WINDOW_IDS)
    @pytest.mark.parametrize("vref", [1.0, 0.75, 2.5])
    def test_counts_are_the_per_row_counts(self, order, chopped, m, vref):
        """Random stable rows of orders 1-4, lead-ins from 0 to 6
        periods (large transients in the windows), ``vref`` a power of
        two or not: bit-identical counts.  The range test bounds each
        window's peak by the triangle inequality, so some rows with
        large transients fall back even at half of ``vref``."""
        measurer = ideal_measurer(chopped, m, vref)
        reserved(measurer, [GOLDEN], np.array([[3000.0]]))
        rng = np.random.default_rng(hash((order, chopped, m, vref)) % 2**32)
        leads = random_leads(rng, measurer, 40)
        num, den = random_rows(rng, order, 40)
        num = in_range_rows(num, den, leads, measurer._stimulus, measurer.mn, vref)
        certified = assert_closed_counts_match(measurer, num, den, leads)
        assert certified.mean() > 0.6


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


def measured(duts, **settings):
    """A call's ``(i1, i2, overload)`` through the closed form, the same
    call on the per-row path only, and the closed form's row counters."""
    metrics = MetricRegistry()
    measurer = ideal_measurer(metrics=metrics, **settings)
    tones = spread_tones(len(duts))
    population = reserved(measurer, duts, tones)
    rngs = [None] * len(duts)
    closed = measurer.measure(population, tones, rngs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_CLOSED_FORM_ROWS", len(duts) * len(FREQS) + 1)
        per_row = measurer.measure(population, tones, rngs)
    for name in ("i1", "i2", "overload"):
        assert np.array_equal(getattr(closed, name), getattr(per_row, name)), name
    return (
        metrics.counter("engine.closed_form.rows").value,
        metrics.counter("engine.closed_form.fallback_rows").value,
        per_row.overload,
    )


class TestMeasure:
    @pytest.mark.parametrize("chopped, m", WINDOWS + [(True, 2)])
    def test_catalog(self, chopped, m):
        """Every row of the fault catalog is certified."""
        rows, fallback, _ = measured(catalog(), chopped=chopped, m=m)
        assert (rows, fallback) == (len(FREQS) * len(catalog()), 0)

    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_mixed_orders_and_others(self, chopped):
        rows, fallback, _ = measured(mixed_devices(), chopped=chopped)
        # Two stacks; the Wiener rows take the per-row path uncounted.
        assert (rows, fallback) == (5 * len(FREQS), 0)

    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_out_of_range_rows_fall_back(self, chopped):
        rows, fallback, overload = measured(
            peaking_devices(), chopped=chopped, amplitude=0.3
        )
        assert rows + fallback == len(FREQS) * len(peaking_devices())
        assert fallback >= np.count_nonzero(overload) > 0
        assert rows > 0

    @pytest.mark.parametrize("vref", [1.0, 0.25, 0.75, 1.3])
    def test_vref(self, vref):
        """No power-of-two condition on ``vref``."""
        rows, fallback, _ = measured(catalog(), vref=vref)
        assert (rows, fallback) == (len(FREQS) * len(catalog()), 0)

    def test_job_streams_keep_the_per_row_path(self, monkeypatch):
        config = AnalyzerConfig.ideal(m_periods=M, noise_seed=3)
        calibration = BatchRunner().calibration_for(config, 1000.0, M)
        measurer = PopulationMeasurer(config, M, calibration)
        tones = spread_tones(len(catalog()))
        population = reserved(measurer, catalog(), tones)

        def refuse(*args):
            raise AssertionError("a call with job streams took the closed form")

        monkeypatch.setattr(WindowSums, "sums", refuse)
        rngs = [np.random.default_rng(i) for i in range(len(catalog()))]
        measurer.measure(population, tones, rngs)

    def test_yield_lot_reports_its_fallback_rows(self):
        """A session reports each lot's uncertified rows (none here) next
        to its certified ones in the metric registry."""
        from repro.api import ExecutionPolicy, Session
        from repro.bist.program import BISTProgram
        from repro.bist.limits import SpecMask

        nominal = design_mfb_lowpass(1000.0)
        mask = SpecMask.from_golden(ActiveRCLowpass(nominal), list(FREQS), tolerance_db=2.0)
        program = BISTProgram(mask, list(FREQS), m_periods=M)
        session = Session(policy=ExecutionPolicy(backend="vectorized"))
        result = session.yield_lot(nominal, mask, program, n_devices=30, seed=4)
        assert result.stats.fallback_rows == 0
        assert session.runner.metrics.counter("engine.closed_form.rows").value == 90


def test_short_stimulus_is_refused():
    """A stimulus shorter than the latest row's window is an error."""
    q = np.ones((2, M * N))
    form = WindowSums(np.ones((M + 1) * N), q, 1.0, N)
    num, den = np.array([[0.0, 0.5]]), np.array([[1.0, -0.5]])
    form.sums(num, den, np.array([1]))
    with pytest.raises(ConfigError, match="stimulus holds"):
        form.sums(num, den, np.array([2]))


# ----------------------------------------------------------------------
# The bound against exact arithmetic
# ----------------------------------------------------------------------

SHORT_N = 8


def exact_response(b, a, x):
    """The exact response of the float filter ``(b, a)`` to ``x``."""
    b = [Fraction(v) for v in b.tolist()]
    a = [Fraction(v) for v in a.tolist()]
    x = [Fraction(v) for v in x.tolist()]
    y = []
    for k in range(len(x)):
        acc = sum(b[i] * x[k - i] for i in range(len(b)) if k >= i)
        acc -= sum(a[i] * y[k - i] for i in range(1, len(a)) if k >= i)
        y.append(acc)
    return y


def short_form(rng, chopped, m, deviation):
    """A short-period form: ``n = 8``, a random periodic stimulus whose
    first two periods deviate by up to ``deviation``, square-wave
    modulations."""
    n = SHORT_N
    period = rng.uniform(-0.5, 0.5, size=n)
    stimulus = np.tile(period, 12)
    stimulus[: 2 * n] += rng.uniform(-deviation, deviation, size=2 * n)
    mn = m * n
    base = np.where(np.arange(mn) % n < n // 2, 1.0, -1.0)
    q = np.stack([base, np.roll(base, n // 4)])
    if chopped:
        q[:, mn // 2 :] *= -1.0
    return WindowSums(stimulus, q, 1.0, n), stimulus, q


class TestBound:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "chopped, m", [(True, 4), (False, 4), (False, 3)], ids=["chopped", "plain", "plain-odd"]
    )
    @pytest.mark.parametrize(
        "deviation, radius",
        [(1e-3, (0.2, 0.8)), (1e-14, (0.5, 0.99))],
        ids=["deviating", "slow-poles"],
    )
    def test_sums_within_bound_of_exact(self, order, chopped, m, deviation, radius):
        """Both the closed-form sums and the per-row path's float sums
        of in-range rows lie within the bound of the exact sums of ``t``
        of the exact response: with a stimulus whose first periods
        deviate (the closed form leaves that out, so only the bound
        covers it), and with poles up to 0.99 that amplify the filter's
        error."""
        rng = np.random.default_rng(100 * order + m + chopped + int(deviation > 1e-6))
        form, stimulus, q = short_form(rng, chopped, m, deviation)
        rows = 6
        leads = rng.integers(0, 4, size=rows)
        num, den = random_rows(rng, order, rows, radius=radius)
        mn = m * SHORT_N
        peaks = np.abs(
            np.array(
                [lfilter(num[r], den[r], stimulus[: 4 * SHORT_N + mn]) for r in range(rows)]
            )
        ).max(axis=1)
        num = num * (0.5 / peaks)[:, None]
        sums = form.sums(num, den, leads)
        assert sums.in_range.sum() >= 3
        a0 = den[:, :1]
        b, a = num / a0, den / a0
        for r in np.flatnonzero(sums.in_range).tolist():
            lead = int(leads[r])
            start = lead * SHORT_N
            y = exact_response(b[r], a[r], stimulus[: start + mn])[start:]
            float_window = lfilter(num[r], den[r], stimulus[: start + mn])[start:]
            float_first, float_total = per_row_sums(float_window[None, :], q, 1.0)
            for c in range(2):
                t = [(Fraction(q[c, i]) * y[i] + 1) / 2 for i in range(mn)]
                for sum_of, exact, bound in (
                    (mn // 2 - 1, sum(t[: mn // 2 - 1]), sums.first_bound[c, r]),
                    (mn - 1, sum(t[: mn - 1]), sums.total_bound[c, r]),
                ):
                    closed = sums.first[c, r] if sum_of < mn - 1 else sums.total[c, r]
                    per_row = float_first[c, 0] if sum_of < mn - 1 else float_total[c, 0]
                    assert abs(Fraction(closed) - exact) <= Fraction(bound)
                    assert abs(Fraction(per_row) - exact) <= Fraction(bound)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_lfilter_error_bound(self, order):
        """``lfilter_error`` bounds ``lfilter``'s error at every sample
        against exact arithmetic, with the true ``||g||_1`` and peak."""
        rng = np.random.default_rng(order)
        num, den = random_rows(rng, order, 4, radius=(0.9, 0.995))
        x = rng.uniform(-1.0, 1.0, size=120)
        for r in range(4):
            a0 = den[r, 0]
            b, a = num[r] / a0, den[r] / a0
            exact = exact_response(b, a, x)
            computed = lfilter(num[r], den[r], x)
            impulse = lfilter([1.0], a, np.r_[1.0, np.zeros(20000)])
            g_l1 = np.abs(impulse).sum() * 1.01
            peak = max(abs(float(v)) for v in exact)
            bound = window_sums.lfilter_error(
                order, g_l1, np.abs(b).sum(), np.abs(a[1:]).sum(), np.abs(x).max(), peak
            )
            worst = max(abs(Fraction(c) - e) for c, e in zip(computed.tolist(), exact))
            assert 0 < worst <= Fraction(float(bound))

    @pytest.mark.parametrize("terms", [3, 47, 959])
    def test_summation_error_bound(self, terms):
        """``summation_error`` bounds the rounding of ``t`` and of the
        sequential sum against the exact sum of the exact terms."""
        rng = np.random.default_rng(terms)
        w = rng.uniform(-1.0, 1.0, size=(terms + 1, 1))
        w[::7] = np.where(w[::7] > 0, 1.0, -1.0)  # terms at the range's ends
        t = np.ascontiguousarray(w.copy())
        t /= 0.75
        t += 1.0
        t *= 0.5
        total = np.add.reduce(t[:terms], axis=0)[0]
        exact = sum((Fraction(v) / Fraction(0.75) + 1) / 2 for v in w[:terms, 0].tolist())
        bound = window_sums.summation_error(terms, 0.0)
        assert abs(Fraction(float(total)) - exact) <= Fraction(float(bound))


# ----------------------------------------------------------------------
# Fallback
# ----------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_near_integer_arguments_fall_back(self, order, chopped):
        """The free power-up state ``u0`` moves each row's floor argument
        to halfway between its closed-form and per-row values, next to an
        integer: the two floors differ there, and the row must fall back
        rather than count the closed form's floor."""
        measurer = ideal_measurer(chopped)
        reserved(measurer, [GOLDEN], np.array([[3000.0]]))
        rng = np.random.default_rng(order + 10 * chopped)
        leads = random_leads(rng, measurer, 30, most=4)
        num, den = random_rows(rng, order, 30)
        num = in_range_rows(num, den, leads, measurer._stimulus, measurer.mn, 1.0)
        before = assert_closed_counts_match(measurer, num, den, leads)
        sums = measurer._closed_form().sums(num, den, leads)
        windows = windows_of(num, den, leads, measurer._stimulus, measurer.mn)
        _, per_row_total = per_row_sums(windows, [measurer._q1], 1.0)
        closed = sums.total[0]
        differ = closed != per_row_total[0]
        assert (differ & before).sum() >= 5
        channel = measurer.evaluator.channel1
        y0 = np.round(closed) - (closed + per_row_total[0]) / 2
        y0 = np.where(differ, y0, 0.25)
        u0 = y0 * (2.0 * channel.gain * channel.vref)
        certified = assert_closed_counts_match(measurer, num, den, leads, u0)
        assert not certified[differ].any()

    def test_close_and_repeated_poles_fall_back(self):
        measurer = ideal_measurer()
        reserved(measurer, [GOLDEN], np.array([[3000.0]]))
        """Repeated poles have no enclosure; poles 1e-13 apart have one
        that may or may not certify, but never a wrong count."""
        den = np.array(
            [np.poly([0.6, 0.6]), np.poly([0.6, 0.6 + 1e-13]), np.poly([0.6, 0.3])]
        )
        num = np.array([[0.0, 0.1, 0.05]] * 3)
        certified = assert_closed_counts_match(measurer, num, den, np.array([1, 1, 1]))
        assert certified[[0, 2]].tolist() == [False, True]

    def test_possible_overload_falls_back(self):
        """A row whose window peaks within the bound of ``vref`` may
        overload on the per-row path: it is not certified."""
        measurer = ideal_measurer()
        reserved(measurer, [GOLDEN], np.array([[3000.0]]))
        num, den = np.array([[0.0, 0.2]]), np.array([[1.0, -0.8]])
        leads = np.array([2])
        for share, expected in ((0.95, True), (1.0 - 1e-12, False), (1.01, False)):
            scaled = in_range_rows(num, den, leads, measurer._stimulus, measurer.mn, 1.0, share)
            certified = assert_closed_counts_match(measurer, scaled, den, leads)
            assert certified.tolist() == [expected]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    def test_early_periods_deviation_is_bounded(self, order, chopped):
        """A stimulus whose first two periods deviate from the period
        (as a generator's start-up does, here by up to 1e-9): rows whose
        windows start there are off by that deviation's response, and
        their floors are still the per-row path's wherever certified."""
        rng = np.random.default_rng(50 + order + 10 * chopped)
        form, stimulus, q = short_form(rng, chopped, 4, 1e-9)
        leads = rng.integers(0, 3, size=60)
        num, den = random_rows(rng, order, 60)
        mn = 4 * SHORT_N
        num = in_range_rows(num, den, leads, stimulus, mn, 1.0, n=SHORT_N)
        sums = form.sums(num, den, leads)
        first, total = per_row_sums(windows_of(num, den, leads, stimulus, mn, SHORT_N), q, 1.0)
        checked = 0
        for c in range(2):
            for closed, per_row, bound in (
                (sums.first[c], first[c], sums.first_bound[c]),
                (sums.total[c], total[c], sums.total_bound[c]),
            ):
                sure = sums.in_range & floors_agree(np.zeros(len(leads)), closed, bound)
                assert np.array_equal(np.floor(closed[sure]), np.floor(per_row[sure]))
                assert np.all(np.abs(closed - per_row)[sure] <= bound[sure])
                checked += sure.sum()
        assert checked > 0.5 * 4 * len(leads)



# ----------------------------------------------------------------------
# The golden baselines and the invariance suites, every stack closed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("path", baseline_params())
def test_baseline_replays_through_the_closed_form(path):
    report = baseline.check(path, backend="vectorized")
    assert report.ok, report.report()


TestExactChannelInvariance = test_chunking.TestExactChannelInvariance
TestOneCallIsProbeCalls = test_probe_axis.TestOneCallIsProbeCalls
TestRunnerChunks = test_probe_axis.TestRunnerChunks
