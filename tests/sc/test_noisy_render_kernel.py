"""Bit-identity of the noisy-analyzer recurrences against their old loops.

The noisy generator render (:meth:`SCBiquad.draw_noise` +
:meth:`SCBiquad.render_row`) and the non-ideal modulators (the per-sample
branch of :meth:`FirstOrderSigmaDelta.modulate` and the device-axis
``FirstOrderSigmaDelta._nonideal_bits``) run on Python floats and
preallocated buffers.  The oracles below are transcriptions of the
loops they replaced: the per-step ``SCBiquad.step`` with scalar noise
draws, the device-axis render matrix of the population backend, the
NumPy-scalar modulator loop and the ``np.clip``/``np.where`` device-axis modulator.  Every
output must match bit for bit, and the RNG must end in the same state.
(For noise-only amplifiers ``modulate`` runs the verified speculation
kernel, which ``tests/evaluator/test_noise_only_kernel.py`` checks in
depth.)
"""

import math

import numpy as np
import pytest

from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass
from repro.dut.faults import fault_catalog
from repro.engine import BatchRunner
from repro.evaluator import sigma_delta
from repro.evaluator.sigma_delta import FirstOrderSigmaDelta
from repro.generator.design import PAPER_CAPACITORS
from repro.sc.biquad import SCBiquad
from repro.sc.opamp import OpAmpModel

# ----------------------------------------------------------------------
# Oracles: the loops the kernels replaced
# ----------------------------------------------------------------------


def old_noise(rng, amp, ktc_rms):
    if rng is None:
        return 0.0
    total = 0.0
    if amp.noise_rms:
        total += amp.sample_noise(rng)
    if ktc_rms:
        total += float(rng.normal(0.0, ktc_rms))
    return total


def old_step_loop(biquad, charges, rng, v1=0.0, v2=0.0):
    """The per-step ``SCBiquad.step`` recurrence with scalar draws.

    Returns ``(outputs, v1, v2, states that sit at the saturation rail)``.
    """
    caps = biquad.caps
    amp1, amp2 = biquad.opamp1, biquad.opamp2
    out = []
    clipped = 0
    for q in charges:
        target1 = (
            biquad._leak1 * v1
            - biquad._gain1
            * (float(q) + caps.a * v2 + caps.b * amp1.offset)
            / (caps.b + caps.e)
            + old_noise(rng, amp1, biquad._ktc1)
        )
        v1_new = amp1.saturate(amp1.settle(v1, target1))
        target2 = (
            biquad._leak2 * v2
            + biquad._gain2 * biquad._c2 * (v1_new + amp2.offset)
            + old_noise(rng, amp2, biquad._ktc2)
        )
        v2_new = amp2.saturate(amp2.settle(v2, target2))
        clipped += (abs(v1_new) == amp1.v_sat) + (abs(v2_new) == amp2.v_sat)
        v1, v2 = v1_new, v2_new
        out.append(v2)
    return out, v1, v2, clipped


def old_device_axis_render(biquad, charges, rngs, steps):
    """The population backend's ``(max_steps x n)`` render loop."""
    caps = biquad.caps
    amp1, amp2 = biquad.opamp1, biquad.opamp2
    rms = amp1.noise_rms
    n_devices = len(rngs)
    max_steps = max(steps)
    noise1 = np.zeros((max_steps, n_devices))
    noise2 = np.zeros((max_steps, n_devices))
    for i, (rng, k) in enumerate(zip(rngs, steps)):
        if rng is not None:
            draws = rng.normal(0.0, rms, size=2 * k)
            np.add(draws, 0.0, out=draws)
            noise1[:k, i] = draws[0::2]
            noise2[:k, i] = draws[1::2]
    leak1, gain1 = biquad._leak1, biquad._gain1
    leak2 = biquad._leak2
    g2c2 = biquad._gain2 * biquad._c2
    a = caps.a
    be = caps.b + caps.e
    boff1 = caps.b * amp1.offset
    off2 = amp2.offset
    se1, vs1 = amp1.settling_error, amp1.v_sat
    se2, vs2 = amp2.settling_error, amp2.v_sat
    v1 = np.zeros(n_devices)
    v2 = np.zeros(n_devices)
    out = np.empty((max_steps, n_devices))
    for i in range(max_steps):
        q = charges[i]
        target1 = leak1 * v1 - gain1 * ((q + a * v2) + boff1) / be + noise1[i]
        v1 = target1 - se1 * (target1 - v1)
        np.clip(v1, -vs1, vs1, out=v1)
        target2 = leak2 * v2 + g2c2 * (v1 + off2) + noise2[i]
        v2 = target2 - se2 * (target2 - v2)
        np.clip(v2, -vs2, vs2, out=v2)
        out[i] = v2
    return out


def old_modulate(channel, w, u0, noise):
    """The NumPy-scalar non-ideal modulator loop; also counts clip hits."""
    amp = channel.opamp
    g, vref = channel.gain, channel.vref
    threshold = channel.comparator_offset
    leak = 1.0 - amp.inverse_gain * g
    settle = amp.settling_error
    u_sat = amp.v_sat
    offset = amp.offset
    u = float(u0)
    bits = np.empty(len(w), dtype=np.int8)
    clips = 0
    for i, wi in enumerate(w):
        d = 1 if u >= threshold else -1
        bits[i] = d
        target = leak * u + g * (wi + offset + noise[i] - d * vref)
        u = target - settle * (target - u)
        if u > u_sat:
            u = u_sat
            clips += 1
        elif u < -u_sat:
            u = -u_sat
            clips += 1
    return bits, float(u), clips


def old_nonideal_bits(channel, w, u0, noise):
    """The device-axis modulator with ``np.where`` and ``np.clip``."""
    amp = channel.opamp
    g, vref = channel.gain, channel.vref
    threshold = channel.comparator_offset
    leak = 1.0 - amp.inverse_gain * g
    settle = amp.settling_error
    u_sat = amp.v_sat
    offset = amp.offset
    u = np.array(u0, dtype=float)
    bits = np.empty(w.shape, dtype=np.int8)
    w_t = np.ascontiguousarray(w.T)
    noise_t = np.ascontiguousarray(noise.T)
    for i in range(w.shape[1]):
        decide = u >= threshold
        bits[:, i] = np.where(decide, 1, -1)
        feedback = np.where(decide, vref, -vref)
        target = leak * u + g * (w_t[i] + offset + noise_t[i] - feedback)
        u = target - settle * (target - u)
        np.clip(u, -u_sat, u_sat, out=u)
    return bits


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------

BIQUAD_AMPS = {
    "noise-only": OpAmpModel(noise_rms=5e-5),
    "offset": OpAmpModel(offset=2e-3, noise_rms=5e-5),
    "settling": OpAmpModel(settling_error=3e-3, noise_rms=5e-5),
    "gain-settling-offset": OpAmpModel.folded_cascode_035um(offset=1e-3),
    # Tight enough that the first integrator clips on every peak.
    "saturating": OpAmpModel(v_sat=0.03, settling_error=1e-4, noise_rms=5e-5),
}

#: Without an RNG a noise-only biquad is ideal and takes ``_run_ideal``.
RENDER_CASES = [
    pytest.param(name, seeded, id=f"{name}-{'rng' if seeded else 'rng-none'}")
    for name in sorted(BIQUAD_AMPS)
    for seeded in (True, False)
    if seeded or name != "noise-only"
]


def charges(n_steps, amplitude=0.3):
    step = np.arange(n_steps)
    return amplitude * np.sin(2 * np.pi * step / 16.0) + 0.05 * np.cos(
        2 * np.pi * step / 7.0
    )


def assert_rngs_equal(a, b):
    assert a.bit_generator.state == b.bit_generator.state


class TestRenderRow:
    @pytest.mark.parametrize("name, seeded", RENDER_CASES)
    def test_run_matches_step_loop(self, name, seeded):
        amp = BIQUAD_AMPS[name]
        rng = np.random.default_rng(7) if seeded else None
        oracle_rng = np.random.default_rng(7) if seeded else None
        biquad = SCBiquad(PAPER_CAPACITORS, amp, amp, rng=rng)
        oracle = SCBiquad(PAPER_CAPACITORS, amp, amp)
        q = charges(400)
        got = biquad.run(q)
        want, v1, v2, clipped = old_step_loop(oracle, q, oracle_rng)
        assert got.tobytes() == np.array(want).tobytes()
        assert (biquad.v1, biquad.v2) == (v1, v2)
        if seeded:
            assert_rngs_equal(rng, oracle_rng)
        if name == "saturating":
            assert clipped > 10

    def test_run_continues_from_state(self):
        amp = BIQUAD_AMPS["gain-settling-offset"]
        rng = np.random.default_rng(3)
        oracle_rng = np.random.default_rng(3)
        biquad = SCBiquad(PAPER_CAPACITORS, amp, amp, rng=rng)
        oracle = SCBiquad(PAPER_CAPACITORS, amp, amp)
        q = charges(300)
        first = biquad.run(q[:100])
        second = biquad.run(q[100:])
        want, *_ = old_step_loop(oracle, q, oracle_rng)
        assert np.concatenate([first, second]).tobytes() == np.array(want).tobytes()
        assert_rngs_equal(rng, oracle_rng)

    def test_step_delegates_to_the_kernel(self):
        amp = BIQUAD_AMPS["offset"]
        rng = np.random.default_rng(11)
        oracle_rng = np.random.default_rng(11)
        biquad = SCBiquad(PAPER_CAPACITORS, amp, amp, rng=rng)
        oracle = SCBiquad(PAPER_CAPACITORS, amp, amp)
        q = charges(64)
        got = [biquad.step(x) for x in q]
        want, *_ = old_step_loop(oracle, q, oracle_rng)
        assert got == want
        assert_rngs_equal(rng, oracle_rng)

    @pytest.mark.parametrize(
        "amp1, amp2",
        [
            (OpAmpModel(noise_rms=5e-5), OpAmpModel(noise_rms=2e-5)),
            (OpAmpModel(), OpAmpModel(noise_rms=2e-5)),
            (OpAmpModel(), OpAmpModel()),
        ],
        ids=["amp-and-ktc", "ktc-and-one-amp", "ktc-only"],
    )
    def test_ktc_draws_interleave_in_reference_order(self, amp1, amp2):
        rng = np.random.default_rng(5)
        oracle_rng = np.random.default_rng(5)
        biquad = SCBiquad(
            PAPER_CAPACITORS, amp1, amp2, rng=rng, unit_capacitance=50e-15
        )
        oracle = SCBiquad(PAPER_CAPACITORS, amp1, amp2, unit_capacitance=50e-15)
        q = charges(200)
        got = biquad.run(q)
        want, *_ = old_step_loop(oracle, q, oracle_rng)
        assert got.tobytes() == np.array(want).tobytes()
        assert_rngs_equal(rng, oracle_rng)

    def test_bulk_draw_leaves_rng_where_scalar_draws_do(self):
        amp = OpAmpModel(noise_rms=5e-5)
        biquad = SCBiquad(PAPER_CAPACITORS, amp, amp, unit_capacitance=80e-15)
        rng = np.random.default_rng(21)
        oracle_rng = np.random.default_rng(21)
        noise1, noise2 = biquad.draw_noise(rng, 37)
        for i in range(37):
            assert noise1[i] == old_noise(oracle_rng, amp, biquad._ktc1)
            assert noise2[i] == old_noise(oracle_rng, amp, biquad._ktc2)
        assert_rngs_equal(rng, oracle_rng)
        assert rng.normal() == oracle_rng.normal()

    def test_rows_match_device_axis_matrix_with_different_leads(self):
        """One slot whose devices stop at different step counts."""
        amp = OpAmpModel(settling_error=1e-4, v_sat=1.4, offset=1e-3, noise_rms=5e-5)
        biquad = SCBiquad(PAPER_CAPACITORS, amp, amp)
        steps = [16, 48, 160, 528, 33]
        q = charges(max(steps))
        matrix = old_device_axis_render(
            biquad, q, [np.random.default_rng(40 + i) for i in range(len(steps))], steps
        )
        for i, k in enumerate(steps):
            rng = np.random.default_rng(40 + i)
            noise1, noise2 = biquad.draw_noise(rng, k)
            row, _, _ = biquad.render_row(q[:k].tolist(), noise1, noise2)
            assert np.array(row).tobytes() == matrix[:k, i].tobytes()


MODULATOR_AMPS = {
    "noise-only": OpAmpModel(noise_rms=1e-4),
    "offset": OpAmpModel(offset=3e-3, noise_rms=1e-4),
    "settling": OpAmpModel(settling_error=2e-3, noise_rms=1e-4),
    "gain-settling-offset": OpAmpModel(
        dc_gain=2000.0, settling_error=1e-3, offset=-2e-3, noise_rms=1e-4
    ),
    # Below the natural state bound 2 g vref = 0.8 V: the state clips.
    "saturating": OpAmpModel(v_sat=0.3, noise_rms=1e-4),
    "noiseless-offset": OpAmpModel(offset=3e-3),
}


def modulator_input(n, seed):
    rng = np.random.default_rng(seed)
    x = 0.6 * np.sin(2 * np.pi * np.arange(n) / 24.0) + rng.normal(0.0, 0.05, n)
    q = np.where(np.arange(n) % 12 < 6, 1.0, -1.0)
    return x, q


class TestModulators:
    @pytest.mark.parametrize("name", sorted(MODULATOR_AMPS))
    @pytest.mark.parametrize("seeded", [True, False], ids=["rng", "rng-none"])
    def test_scalar_loop_matches_old_loop(self, name, seeded):
        amp = MODULATOR_AMPS[name]
        x, q = modulator_input(960, 1)
        rng = np.random.default_rng(9) if seeded else None
        oracle_rng = np.random.default_rng(9)
        modulator = FirstOrderSigmaDelta(opamp=amp, comparator_offset=1e-3, rng=rng)
        result = modulator.modulate(x, q, u0=0.05)
        noise = (
            oracle_rng.normal(0.0, amp.noise_rms, size=len(x))
            if seeded and amp.noise_rms
            else np.zeros(len(x))
        )
        bits, u_final, clips = old_modulate(modulator, q * x, 0.05, noise)
        assert result.bits.dtype == np.int8
        assert result.bits.tobytes() == bits.tobytes()
        assert result.u_final == u_final
        if seeded:
            assert_rngs_equal(rng, oracle_rng)
        if name == "saturating":
            assert clips > 10

    @pytest.mark.parametrize("name", sorted(MODULATOR_AMPS))
    def test_device_axis_loop_matches_old_loops(self, name):
        amp = MODULATOR_AMPS[name]
        channel = FirstOrderSigmaDelta(opamp=amp, comparator_offset=-1e-3)
        rng = np.random.default_rng(2)
        n_devices, n = 7, 480
        x = np.stack([modulator_input(n, s)[0] for s in range(n_devices)])
        q = modulator_input(n, 0)[1]
        w = q * x
        u0 = rng.uniform(-0.2, 0.2, n_devices)
        noise = rng.normal(0.0, amp.noise_rms or 1e-4, (n_devices, n))
        want = old_nonideal_bits(channel, w, u0, noise)
        # The kernel is time-major, one device per column, and takes the
        # reference drive (w + offset) + noise.
        drive = (np.ascontiguousarray(w.T) + amp.offset) + noise.T
        got, final = channel._nonideal_bits(drive, u0)
        assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()
        for i in range(n_devices):
            bits, u_final, _ = old_modulate(channel, w[i], u0[i], noise[i])
            assert got[:, i].tobytes() == bits.tobytes()
            assert final[i] == u_final

    def test_device_axis_noiseless_adds_zero(self):
        """A drive with ``+ 0.0`` for noise is the old loop fed a zero
        noise matrix."""
        channel = FirstOrderSigmaDelta(opamp=MODULATOR_AMPS["noiseless-offset"])
        x, q = modulator_input(480, 4)
        w = np.stack([q * x, -q * x, np.zeros_like(x)])
        u0 = np.array([0.0, -0.0, 0.1])
        want = old_nonideal_bits(channel, w, u0, np.zeros_like(w))
        drive = (np.ascontiguousarray(w.T) + channel.opamp.offset) + 0.0
        got, _ = channel._nonideal_bits(drive, u0)
        assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()


#: Evaluator amplifiers of the slot test: noise-only with an offset (the
#: verified speculation, whatever the boundary) and one that settles
#: incompletely (the device-axis loop or the per-device modulator).
SLOT_EVALUATORS = {
    "noise-only": OpAmpModel(offset=2e-3, noise_rms=1e-4),
    "settling": OpAmpModel(settling_error=1e-3, offset=2e-3, noise_rms=1e-4),
}


class TestSlotStrategies:
    """Every modulator strategy, on a slot with different lead-ins."""

    M = 6
    GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)

    @pytest.mark.parametrize(
        "threshold, evaluator",
        [
            pytest.param(1, "noise-only", id="device-axis"),
            pytest.param(10**6, "noise-only", id="per-device"),
            pytest.param(1, "settling", id="settling-device-axis"),
            pytest.param(10**6, "settling", id="settling-per-device"),
        ],
    )
    def test_slot_matches_reference_backend(self, monkeypatch, threshold, evaluator):
        amp = OpAmpModel(settling_error=1e-4, v_sat=1.4, offset=1e-3, noise_rms=5e-5)
        config = AnalyzerConfig.ideal(
            m_periods=self.M,
            generator_opamp=amp,
            evaluator_opamp=SLOT_EVALUATORS[evaluator],
            noise_seed=29,
            random_modulator_state=True,
        )
        duts = [self.GOLDEN] + [
            f.apply(self.GOLDEN) for f in fault_catalog([-0.5, 0.5])[:5]
        ]
        frequency = 700.0
        settle = [dut.settling_time(config.dut_settle_tolerance) for dut in duts]
        leads = {math.ceil(s * frequency) for s in settle}
        assert len(leads) > 1
        reference = BatchRunner().run_fault_trials(
            duts, config, [frequency], m_periods=self.M
        )
        monkeypatch.setattr(sigma_delta, "_BATCH_MIN_DEVICES", threshold)
        batched = BatchRunner(backend="vectorized").run_fault_trials(
            duts, config, [frequency], m_periods=self.M
        )
        for (a,), (b,) in zip(reference, batched):
            assert a.output.signature == b.output.signature
