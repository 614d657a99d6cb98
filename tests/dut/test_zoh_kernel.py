"""The stacked state-space kernel: per-row bits, and accuracy against SciPy.

Both execution backends take their DUT arithmetic from
:mod:`repro.dut.statespace`: the population backend stacks a whole slot
of devices, the reference backend calls the same functions with one
row.  The integer signatures count comparator decisions on the filtered
stimulus, so "close" is not enough between the backends — every stacked
row must equal its one-row call bit for bit, whatever else shares its
stack.  Against SciPy's per-device ``expm`` + ``ss2tf``, which the
kernel replaced, the contract is accuracy: every coefficient lies within
``SCIPY_ULPS`` ulp of the row's largest SciPy coefficient across every
device shape the campaigns build (tolerance-drawn demonstrator filters,
catalog shorts and opens, the generic biquad shapes and first-order
sections, at the sample rates of lot probes and sweep points), and
every entry of ``(Ad, Bd)`` does so against SciPy's ``expm`` over
generated stable models of orders 1 to 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.signal import lfilter, ss2tf

from repro.bist.limits import SpecMask
from repro.bist.montecarlo import _truly_good
from repro.clocking.master import OVERSAMPLING_RATIO
from repro.core.sweep import FrequencySweepPlan
from repro.dut import biquads
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import full_catalog
from repro.dut.statespace import (
    _EXPM_BLOCK,
    StateSpaceDUT,
    _balance,
    _squarings,
    frequency_responses,
    stack_by_order,
    stack_population,
    zoh_discretize,
    zoh_transfer,
)
from repro.errors import ConfigError
from repro.signals.waveform import Waveform

#: The kernel's distance from SciPy, in ulp of the row's largest entry.
#: Most of it is SciPy's: on generated models that need no squaring the
#: kernel stays within 1 ulp of a 40-digit ``mpmath.expm`` where SciPy's
#: differently planned scaling and squaring lands up to ~100 ulp away.
SCIPY_ULPS = 256

NOMINAL = design_mfb_lowpass(1000.0)
GOLDEN = ActiveRCLowpass(NOMINAL)
LOT_PROBES = (300.0, 1000.0, 2000.0)
TONES = LOT_PROBES + tuple(FrequencySweepPlan.paper_fig10(25).frequencies())
FAULTY = [fault.apply(GOLDEN) for fault in full_catalog()]
BIQUADS = [
    biquads.lowpass(1000.0),
    biquads.lowpass(700.0, q=0.3),
    biquads.highpass(1000.0),
    biquads.bandpass(1000.0),
    biquads.notch(1000.0),
    biquads.first_order_lowpass(300.0),
    biquads.first_order_lowpass(5000.0, gain=2.0),
]


def zoh_block(a, b, dt) -> np.ndarray:
    """The augmented matrix whose exponential holds ``(Ad, Bd)``."""
    n = len(b)
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = a * dt
    block[:n, n] = b * dt
    return block


def scipy_transfer(model: StateSpaceDUT, dt: float):
    """The per-device discretization the kernel replaced: expm + ss2tf."""
    n = model.order
    ed = expm(zoh_block(model.a, model.b, dt))
    num, den = ss2tf(
        ed[:n, :n], ed[:n, n].reshape(-1, 1), model.c.reshape(1, -1), [[model.d]]
    )
    return num[0], den


def assert_near_scipy(got, ref) -> None:
    """Every entry of ``got`` within ``SCIPY_ULPS`` ulp of ``max |ref|``."""
    got, ref = np.concatenate(got), np.concatenate(ref)
    error = np.abs(got - ref).max() / np.spacing(np.abs(ref).max())
    assert error <= SCIPY_ULPS, f"{error} ulp from SciPy"


def tolerance_lot(seed: int, n: int, sigma: float = 0.04):
    rng = np.random.default_rng(seed)
    return [ActiveRCLowpass(NOMINAL.with_tolerance(sigma, rng)) for _ in range(n)]


def one_row_transfer(model: StateSpaceDUT, dt: float):
    num, den = zoh_transfer(model.a[None], model.b[None], model.c[None], [model.d], dt)
    return num[0], den[0]


def assert_kernel_rows(duts, tone: float) -> None:
    """Stacked == one-row bit for bit, and within the bound of SciPy."""
    dt = 1.0 / (tone * OVERSAMPLING_RATIO)
    models = [dut.state_space() for dut in duts]
    covered = 0
    for rows, stack in stack_by_order(models):
        num, den = zoh_transfer(stack.a, stack.b, stack.c, stack.d, dt)
        for k, i in enumerate(rows):
            one_num, one_den = one_row_transfer(models[i], dt)
            assert np.array_equal(num[k], one_num), duts[i].name
            assert np.array_equal(den[k], one_den), duts[i].name
            assert_near_scipy((num[k], den[k]), scipy_transfer(models[i], dt))
            covered += 1
    assert covered == len(duts)


def has_real_poles(dut) -> bool:
    return not np.any(dut.state_space().poles.imag)


class TestZOHKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        sigma=st.sampled_from([0.01, 0.04, 0.2]),
        tone=st.sampled_from(TONES),
    )
    def test_tolerance_lots(self, seed, n, sigma, tone):
        assert_kernel_rows(tolerance_lot(seed, n, sigma), tone)

    @pytest.mark.parametrize("tone", LOT_PROBES)
    def test_every_catalog_fault(self, tone):
        assert any(has_real_poles(dut) for dut in FAULTY)
        assert not all(has_real_poles(dut) for dut in FAULTY)
        assert_kernel_rows(FAULTY, tone)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, len(FAULTY) - 1), min_size=1, max_size=8),
        tone=st.sampled_from(TONES),
    )
    def test_mixed_real_and_complex_stacks(self, seed, picks, tone):
        duts = tolerance_lot(seed, 4) + [FAULTY[i] for i in picks]
        rng = np.random.default_rng(seed)
        rng.shuffle(duts)
        assert_kernel_rows(duts, tone)

    @pytest.mark.parametrize("tone", TONES[::4])
    def test_every_biquad_shape(self, tone):
        # First- and second-order models share a slot: two stacked groups.
        assert {dut.order for dut in BIQUADS} == {1, 2}
        assert_kernel_rows(BIQUADS + tolerance_lot(3, 2), tone)

    def test_per_row_sample_periods(self):
        duts = tolerance_lot(5, len(TONES))
        dts = np.array([1.0 / (f * OVERSAMPLING_RATIO) for f in TONES])
        [(rows, stack)] = stack_by_order([d.state_space() for d in duts])
        num, den = zoh_transfer(stack.a, stack.b, stack.c, stack.d, dts)
        for k, i in enumerate(rows):
            model = duts[i].state_space()
            one_num, one_den = one_row_transfer(model, dts[k])
            assert np.array_equal(num[k], one_num)
            assert np.array_equal(den[k], one_den)
            assert_near_scipy((num[k], den[k]), scipy_transfer(model, dts[k]))

    def test_higher_orders_match_scipy(self):
        w = 2 * np.pi * 1000.0
        models = [
            StateSpaceDUT.from_transfer_function(
                [w**3], np.poly([-w, -0.5 * w + 1j * w, -0.5 * w - 1j * w]).real
            ),
            StateSpaceDUT.from_transfer_function(
                [1.0, 2 * w, 3 * w * w, w**3], np.poly([-w, -2 * w, -3 * w, -0.3 * w])
            ),
        ]
        assert_kernel_rows(models, 1000.0)


#: Target 1-norms of ``A dt``: three inside ``theta_13`` (no squaring)
#: and three beyond it (one to three squarings).
NORM_BANDS = (0.01, 0.8, 4.0, 9.0, 20.0, 40.0)


def modal_model(seed: int, order: int, band: float):
    """A stable ``(a, b, dt)``: real poles and damped pairs of 1-3x a
    random scale under a random rotation, sampled so ``|A| dt`` is near
    ``band``."""
    rng = np.random.default_rng(seed)
    scale = 2 * np.pi * 10 ** rng.uniform(1, 4)
    lam = np.zeros((order, order))
    i = 0
    while i < order:
        w = scale * rng.uniform(1.0, 3.0)
        if order - i >= 2 and rng.random() < 0.5:
            phi = rng.uniform(0.55, 0.97) * np.pi
            lam[i : i + 2, i : i + 2] = w * np.array(
                [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]
            )
            i += 2
        else:
            lam[i, i] = -w
            i += 1
    q = np.linalg.qr(rng.normal(size=(order, order)))[0]
    dt = band * rng.uniform(0.5, 1.0) / scale
    return q @ lam @ q.T, rng.normal(size=order) * scale, dt


class TestPadeKernel:
    """``zoh_discretize`` over generated stable models of orders 1-4."""

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.integers(1, 4),
        models=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(NORM_BANDS)),
            min_size=1,
            max_size=5,
        ),
        counts=st.lists(st.integers(1, 300), min_size=4, max_size=4),
        first_count=st.integers(_EXPM_BLOCK - 24, 2 * _EXPM_BLOCK + 24),
        shuffle=st.integers(0, 2**32 - 1),
    )
    def test_row_bits_do_not_depend_on_the_stack(
        self, order, models, counts, first_count, shuffle
    ):
        drawn = [modal_model(seed, order, band) for seed, band in models]
        # The first model's rows fill about one to two blocks, and the
        # stack is shuffled, so every model's rows sit on both sides of
        # block edges.
        label = np.repeat(np.arange(len(drawn)), [first_count, *counts][: len(drawn)])
        np.random.default_rng(shuffle).shuffle(label)
        a = np.array([drawn[j][0] for j in label])
        b = np.array([drawn[j][1] for j in label])
        dt = np.array([drawn[j][2] for j in label])
        ad, bd = zoh_discretize(a, b, dt)
        for j, (aj, bj, dtj) in enumerate(drawn):
            one_ad, one_bd = zoh_discretize(aj[None], bj[None], dtj)
            rows = label == j
            assert np.all(ad[rows] == one_ad[0]) and np.all(bd[rows] == one_bd[0])
            ref = expm(zoh_block(aj, bj, dtj))
            assert_near_scipy(
                (one_ad[0].ravel(), one_bd[0], [1.0]),
                (ref[:order, :order].ravel(), ref[:order, order], [1.0]),
            )

    def test_bands_reach_squaring_counts(self):
        counts = set()
        for order in range(1, 5):
            for band in NORM_BANDS:
                for seed in range(4):
                    block = zoh_block(*modal_model(seed, order, band))
                    counts.add(int(_squarings(_balance(block[None])[0])[0]))
        assert counts >= {0, 1, 2, 3}

    def test_balancing_spares_companion_form_squarings(self):
        """A controllable-canonical biquad's 1-norm is ~w**2 dt; balanced,
        it is ~w dt and needs no squaring (unbalanced: nine)."""
        model = biquads.lowpass(1000.0).state_space()
        block = zoh_block(model.a, model.b, 1.0 / (193.9 * OVERSAMPLING_RATIO))
        assert _squarings(block[None])[0] == 9
        assert _squarings(_balance(block[None])[0])[0] == 0


class TestRefusesBadInput:
    MODEL = GOLDEN.state_space()

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1e-5])
    def test_bad_sample_period(self, dt):
        m = self.MODEL
        with pytest.raises(ConfigError, match="dt must be finite and positive"):
            zoh_discretize(m.a[None], m.b[None], dt)
        with pytest.raises(ConfigError, match="dt must be finite and positive"):
            zoh_transfer(m.a[None], m.b[None], m.c[None], [m.d], dt)

    def test_one_bad_row_of_a_stack(self):
        m = self.MODEL
        a = np.stack([m.a, m.a])
        b = np.stack([m.b, m.b])
        with pytest.raises(ConfigError, match="got 0.0"):
            zoh_discretize(a, b, [1e-5, 0.0])

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_model(self, field, value):
        m = self.MODEL
        arrays = {"a": m.a[None].copy(), "b": m.b[None].copy()}
        arrays[field][0, 0] = value
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            zoh_discretize(arrays["a"], arrays["b"], 1e-5)

    def test_overflowing_product(self):
        m = self.MODEL
        with pytest.raises(ConfigError, match="dt overflows the model"):
            zoh_discretize(m.a[None], m.b[None], 1e305)


class TestDeviceUsesKernel:
    @pytest.mark.parametrize(
        "dut", [GOLDEN] + FAULTY[:6] + BIQUADS, ids=lambda dut: dut.name
    )
    def test_process_and_batch_response_share_coefficients(self, dut):
        fs = 1000.0 * OVERSAMPLING_RATIO
        u = np.random.default_rng(0).normal(size=500)
        model = dut.state_space()
        num, den = one_row_transfer(model, 1.0 / fs)
        expected = lfilter(num, den, u)
        dut.reset()
        assert np.array_equal(dut.process(Waveform(u, fs)).samples, expected)
        # The zero-state process call cached the coefficients, and the
        # default batch_response (reset, then process) reads them back.
        assert round(1.0 / fs, 18) in model._tf_cache
        assert np.array_equal(dut.batch_response(u, fs), expected)

    @pytest.mark.parametrize(
        "dut", [GOLDEN, FAULTY[0], biquads.notch(800.0)], ids=lambda dut: dut.name
    )
    def test_process_recovers_final_state(self, dut):
        """Zero-state process leaves the state the explicit recursion reaches."""
        fs = 48e3
        u = np.random.default_rng(1).normal(size=300)
        model = dut.state_space()
        dut.reset()
        dut.process(Waveform(u, fs))
        ad, bd = model._discretize(1.0 / fs)
        x = np.zeros(model.order)
        for ui in u:
            x = ad @ x + bd * ui
        np.testing.assert_allclose(model._x, x, rtol=1e-9, atol=1e-12)

    def test_dut_package_has_no_ss2tf(self):
        import repro.dut.statespace as module

        assert not hasattr(module, "ss2tf")
        assert not hasattr(module, "expm")


class TestCachedPoles:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           tolerance=st.sampled_from([1e-6, 1e-8, 0.01]))
    def test_settling_time_matches_fresh_eigvals(self, seed, n, tolerance):
        """The eigenvalues kept from the stability check give the settling
        time a fresh ``eigvals`` of ``A`` would."""
        duts = tolerance_lot(seed, n) + FAULTY[seed % len(FAULTY) :][:3] + BIQUADS
        for dut in duts:
            eigs = np.linalg.eigvals(dut.state_space().a)
            assert np.array_equal(dut.state_space().poles, eigs)
            assert dut.settling_time(tolerance) == float(
                np.log(1.0 / tolerance) / np.min(-eigs.real)
            )


class TestStackedTrulyGood:
    @staticmethod
    def per_device(dut, mask, frequencies) -> bool:
        for f in frequencies:
            limits = mask.limits_at(f)
            if limits is None:
                continue
            lo, hi = limits
            if not lo <= dut.gain_db_at(f) <= hi:
                return False
        return True

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           tolerance_db=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_gain_db_at(self, seed, n, tolerance_db):
        mask = SpecMask.from_golden(GOLDEN, LOT_PROBES, tolerance_db=tolerance_db)
        duts = tolerance_lot(seed, n, sigma=0.06) + FAULTY[: seed % 7]
        verdicts = _truly_good(stack_population(duts, 1e-6), mask, LOT_PROBES)
        expected = [self.per_device(dut, mask, LOT_PROBES) for dut in duts]
        assert verdicts == expected
        assert [
            _truly_good(stack_population([dut], 1e-6), mask, LOT_PROBES)[0]
            for dut in duts
        ] == expected

    def test_stacked_response_matches_per_device_bits(self):
        duts = tolerance_lot(9, 50) + FAULTY + BIQUADS
        models = [dut.state_space() for dut in duts]
        for f in LOT_PROBES:
            for rows, stack in stack_by_order(models):
                h = frequency_responses(stack.a, stack.b, stack.c, stack.d, f)
                for k, i in enumerate(rows):
                    m = models[i]
                    s = 2j * np.pi * f
                    direct = m.c @ np.linalg.solve(s * np.eye(m.order) - m.a, m.b) + m.d
                    assert h[k] == direct
                    assert h[k] == duts[i].frequency_response([f])[0]
