"""The stacked state-space kernel against per-device evaluation, bit for bit.

Both execution backends take their DUT arithmetic from
:mod:`repro.dut.statespace`: the population backend stacks a whole slot
of devices, the reference backend calls the same functions with one
row.  The integer signatures count comparator decisions on the filtered
stimulus, so "close" is not enough — every stacked row must equal its
one-row call *and* SciPy's per-device ``expm`` + ``ss2tf`` exactly,
across every device shape the campaigns build: tolerance-drawn
demonstrator filters, catalog shorts and opens (real poles, so stacks
mix real and complex roots), the generic biquad shapes and first-order
sections, at the sample rates of lot probes and sweep points.
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
    StateSpaceDUT,
    frequency_responses,
    stack_by_order,
    stack_population,
    zoh_transfer,
)
from repro.signals.waveform import Waveform

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


def scipy_transfer(model: StateSpaceDUT, dt: float):
    """The per-device discretization the kernel restates: expm + ss2tf."""
    n = model.order
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = model.a * dt
    block[:n, n] = model.b * dt
    ed = expm(block)
    num, den = ss2tf(
        ed[:n, :n], ed[:n, n].reshape(-1, 1), model.c.reshape(1, -1), [[model.d]]
    )
    return num[0], den


def tolerance_lot(seed: int, n: int, sigma: float = 0.04):
    rng = np.random.default_rng(seed)
    return [ActiveRCLowpass(NOMINAL.with_tolerance(sigma, rng)) for _ in range(n)]


def assert_kernel_exact(duts, tone: float) -> None:
    """Stacked == one-row == SciPy per device, for every row."""
    dt = 1.0 / (tone * OVERSAMPLING_RATIO)
    models = [dut.state_space() for dut in duts]
    covered = 0
    for rows, stack in stack_by_order(models):
        num, den = zoh_transfer(stack.a, stack.b, stack.c, stack.d, dt)
        for k, i in enumerate(rows):
            model = models[i]
            one_num, one_den = zoh_transfer(
                model.a[None], model.b[None], model.c[None], [model.d], dt
            )
            ref_num, ref_den = scipy_transfer(model, dt)
            assert np.array_equal(num[k], one_num[0]), duts[i].name
            assert np.array_equal(den[k], one_den[0]), duts[i].name
            assert np.array_equal(num[k], ref_num), duts[i].name
            assert np.array_equal(den[k], ref_den), duts[i].name
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
        assert_kernel_exact(tolerance_lot(seed, n, sigma), tone)

    @pytest.mark.parametrize("tone", LOT_PROBES)
    def test_every_catalog_fault(self, tone):
        assert any(has_real_poles(dut) for dut in FAULTY)
        assert not all(has_real_poles(dut) for dut in FAULTY)
        assert_kernel_exact(FAULTY, tone)

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
        assert_kernel_exact(duts, tone)

    @pytest.mark.parametrize("tone", TONES[::4])
    def test_every_biquad_shape(self, tone):
        # First- and second-order models share a slot: two stacked groups.
        assert {dut.order for dut in BIQUADS} == {1, 2}
        assert_kernel_exact(BIQUADS + tolerance_lot(3, 2), tone)

    def test_per_row_sample_periods(self):
        duts = tolerance_lot(5, len(TONES))
        dts = np.array([1.0 / (f * OVERSAMPLING_RATIO) for f in TONES])
        [(rows, stack)] = stack_by_order([d.state_space() for d in duts])
        num, den = zoh_transfer(stack.a, stack.b, stack.c, stack.d, dts)
        for k, i in enumerate(rows):
            ref_num, ref_den = scipy_transfer(duts[i].state_space(), dts[k])
            assert np.array_equal(num[k], ref_num)
            assert np.array_equal(den[k], ref_den)

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
        assert_kernel_exact(models, 1000.0)


class TestDeviceUsesKernel:
    @pytest.mark.parametrize(
        "dut", [GOLDEN] + FAULTY[:6] + BIQUADS, ids=lambda dut: dut.name
    )
    def test_process_and_batch_response_share_coefficients(self, dut):
        fs = 1000.0 * OVERSAMPLING_RATIO
        u = np.random.default_rng(0).normal(size=500)
        model = dut.state_space()
        num, den = scipy_transfer(model, 1.0 / fs)
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
