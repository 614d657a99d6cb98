"""The noise-only modulator kernel against the sample loop it replaces.

:meth:`FirstOrderSigmaDelta.speculate_bits` guesses a window's decisions
from the running-floor closed form, rebuilds the exact state with a
sequential ``cumsum`` and resumes the scalar loop wherever a decision or
a state fails verification.  The oracle is a literal transcription of
the non-ideal sample loop of ``FirstOrderSigmaDelta.modulate`` before
the kernel existed.  Bits, overload count and the RNG's end state must
match bit for bit, and the final state must compare equal (the sign of
a zero state may differ, see the kernel's docstring).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.evaluator import sigma_delta
from repro.evaluator.sigma_delta import FirstOrderSigmaDelta
from repro.sc.opamp import OpAmpModel


def oracle_modulate(modulator, x, q, u0, rng):
    """The pre-kernel non-ideal branch of ``modulate``, verbatim."""
    w = q * x
    overload = int(np.count_nonzero(np.abs(w) > modulator.vref))
    amp = modulator.opamp
    offset = amp.offset
    g = modulator.gain
    vref = modulator.vref
    threshold = modulator.comparator_offset
    u_sat = amp.v_sat
    u = float(u0)
    noise_rms = amp.noise_rms if rng is not None else 0.0
    noise = rng.normal(0.0, noise_rms, size=len(w)) if noise_rms else np.zeros(len(w))
    leak = 1.0 - amp.inverse_gain * g
    settle = amp.settling_error
    decisions = []
    for wi, ni in zip(w.tolist(), noise.tolist()):
        decide = u >= threshold
        decisions.append(decide)
        feedback = vref if decide else -vref
        target = leak * u + g * (wi + offset + ni - feedback)
        u = target - settle * (target - u)
        if u > u_sat:
            u = u_sat
        elif u < -u_sat:
            u = -u_sat
    bits = np.where(decisions, 1, -1).astype(np.int8)
    return bits, float(u), overload


def oracle_columns(modulator, w, u0):
    """The oracle loop per column of a time-major input block."""
    bits = np.empty(w.shape, dtype=np.int8)
    final = np.empty(w.shape[1])
    for j in range(w.shape[1]):
        column = np.ascontiguousarray(w[:, j])
        bits[:, j], final[j], _ = oracle_modulate(
            modulator, column, np.ones_like(column), u0[j], None
        )
    return bits, final


def kernel_columns(modulator, w, u0):
    """``speculate_bits`` on the drive ``modulate`` forms from ``w``."""
    return modulator.speculate_bits((w + modulator.opamp.offset) + 0.0, u0)


class CountingLoop:
    """Wraps ``sequential_bits`` to record where the fallback resumes."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = FirstOrderSigmaDelta.sequential_bits

        def spy(modulator, drive, u):
            self.calls.append(len(drive))
            return original(modulator, drive, u)

        monkeypatch.setattr(FirstOrderSigmaDelta, "sequential_bits", spy)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Window lengths: 1, 2, odd and even lengths, and whole tone periods.
LENGTHS = st.one_of(st.sampled_from([1, 2, 3, 96, 97]), st.integers(1, 400))


@st.composite
def windows(draw):
    """A modulator, an input window, an initial state and a noise seed."""
    gain = draw(st.sampled_from([0.4, 0.25, 0.5]))
    vref = draw(st.sampled_from([0.5, 1.0]))
    n = draw(LENGTHS)
    # Up to 1.6 vref: drives beyond the stable range fail verification.
    amplitude = draw(st.floats(0.0, 1.6)) * vref
    cycles = draw(st.floats(0.5, 9.0))
    phase = draw(st.floats(0.0, 6.3))
    x = amplitude * np.sin(2 * np.pi * cycles * np.arange(n) / max(n, 1) + phase)
    q = np.where(np.arange(n) % 12 < 6, 1.0, -1.0)
    span = 2.0 * gain * vref
    # Initial states outside the tracking range [-2 g vref, 2 g vref) too.
    u0 = draw(st.floats(-1.5, 1.5)) * span
    v_sat = draw(
        st.one_of(st.just(float("inf")), st.floats(0.2, 1.5).map(lambda f: f * span))
    )
    amp = OpAmpModel(
        offset=draw(st.sampled_from([0.0, 3e-3, -2e-3])),
        noise_rms=draw(st.sampled_from([0.0, 1e-5, 1e-4, 1e-3])),
        v_sat=v_sat,
    )
    comparator_offset = draw(st.sampled_from([0.0, 1e-3, -4e-3]))
    seed = draw(st.integers(0, 2**16))
    return gain, vref, amp, comparator_offset, x, q, u0, seed


@st.composite
def dyadic_windows(draw):
    """Dyadic gain, inputs and state: states land exactly on the zero
    threshold (and on ``-0.0``), the comparator's tie case."""
    gain = draw(st.sampled_from([0.25, 0.5]))
    n = draw(LENGTHS)
    levels = st.sampled_from([k / 8.0 for k in range(-4, 5)])
    x = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    q = np.ones(n)
    u0 = draw(st.sampled_from([0.0, -0.0, 0.125, -0.25, 0.5]))
    return gain, x, q, u0


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(windows())
def test_modulate_matches_the_sample_loop(case):
    gain, vref, amp, comparator_offset, x, q, u0, seed = case
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    modulator = FirstOrderSigmaDelta(
        gain=gain, vref=vref, opamp=amp, comparator_offset=comparator_offset, rng=rng
    )
    oracle = FirstOrderSigmaDelta(
        gain=gain, vref=vref, opamp=amp, comparator_offset=comparator_offset
    )
    # The ideal modulator has its own paths (closed form, ideal loop).
    assume(not modulator.is_ideal())
    result = modulator.modulate(x, q, u0=u0)
    bits, u_final, overload = oracle_modulate(oracle, x, q, u0, oracle_rng)
    assert result.bits.dtype == np.int8
    assert result.bits.tobytes() == bits.tobytes()
    assert result.u_final == u_final
    assert result.overload_count == overload
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(dyadic_windows())
def test_threshold_ties_match_the_sample_loop(case):
    gain, x, q, u0 = case
    # A non-zero amplifier offset keeps the modulator off the ideal path;
    # it is exactly representable, so the states stay dyadic.
    amp = OpAmpModel(offset=0.125)
    modulator = FirstOrderSigmaDelta(gain=gain, opamp=amp)
    result = modulator.modulate(x, q, u0=u0)
    bits, u_final, _ = oracle_modulate(modulator, x, q, u0, None)
    assert result.bits.tobytes() == bits.tobytes()
    assert result.u_final == u_final


def ideal_loop_states(gain, vref, w, u0):
    """The ideal sample loop's state before each step, and after the last."""
    states = [float(u0)]
    gv = gain * vref
    for wi in w.tolist():
        u = states[-1]
        states.append(u + (gain * wi - (gv if u >= 0.0 else -gv)))
    return states


def threshold_rounding_bound(gain, vref, n):
    """The closed form's docstring bound on a loop state at the first step
    the loop decides differently: ``2 (n + 2)**2 * 2**-53 * 2 g vref``."""
    return 2 * (n + 2) ** 2 * 2.0**-53 * 2 * gain * vref


def assert_floors_match_the_loop(gain, vref, x, q, u0):
    """Same decisions and final state, or a first disagreement whose loop
    state lies within the rounding bound of the threshold."""
    result = FirstOrderSigmaDelta(gain=gain, vref=vref).modulate(x, q, u0=u0)
    want = FirstOrderSigmaDelta(gain=gain, vref=vref, vectorized=False).modulate(
        x, q, u0=u0
    )
    if result.bits.tobytes() == want.bits.tobytes():
        assert result.u_final == want.u_final
        return None
    k = int(np.argmax(result.bits != want.bits))
    state = ideal_loop_states(gain, vref, q * x, u0)[k]
    assert abs(state) <= threshold_rounding_bound(gain, vref, len(x))
    return k, state


@settings(max_examples=300, deadline=None)
@given(windows())
def test_ideal_closed_form_matches_the_sample_loop(case):
    """The ideal modulator's closed form against its own sample loop."""
    gain, vref, _, _, x, q, u0, _ = case
    assert_floors_match_the_loop(gain, vref, x, q, u0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0.4, 0.25, 0.5]),
    st.sampled_from([0.5, 1.0]),
    st.integers(1, 400),
    st.integers(0, 2**16),
)
def test_near_threshold_windows_disagree_only_within_rounding(gain, vref, n, seed):
    """Inputs within a few ulp of zero keep the state on the threshold,
    where the floors and the loop disagree on most windows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4e-16, 4e-16, n)
    q = np.where(np.arange(n) % 12 < 6, 1.0, -1.0)
    assert_floors_match_the_loop(gain, vref, x, q, 0.0)


def test_reported_near_threshold_window():
    """The reported case: gain 0.4, vref 0.5, a 96-sample window with
    |x| < 4e-16 and u0 = 0.  At step 10 the loop's state is -1.39e-16, so
    the loop decides -1 where the floors decide +1."""
    n = 96
    x = 3e-16 * np.sin(2 * np.pi * 2.0 * np.arange(n) / n)
    q = np.where(np.arange(n) % 12 < 6, 1.0, -1.0)
    step, state = assert_floors_match_the_loop(0.4, 0.5, x, q, 0.0)
    assert step == 10
    assert state == pytest.approx(-1.39e-16, rel=1e-2)
    fast = FirstOrderSigmaDelta(gain=0.4, vref=0.5).modulate(x, q)
    loop = FirstOrderSigmaDelta(gain=0.4, vref=0.5, vectorized=False).modulate(x, q)
    assert (fast.bits[step], loop.bits[step]) == (1, -1)


def test_ideal_closed_form_final_state_is_the_loops_sum():
    """The case that exposed a closed-form ``u_final`` off by one ulp."""
    args = (np.zeros(1), np.ones(1))
    fast = FirstOrderSigmaDelta().modulate(*args, u0=0.30000000000000004)
    loop = FirstOrderSigmaDelta(vectorized=False).modulate(
        *args, u0=0.30000000000000004
    )
    assert loop.u_final == 0.10000000000000003
    assert fast.u_final == loop.u_final


def test_dyadic_states_reach_the_threshold():
    """The tie strategy's states do sit exactly on the threshold."""
    gain, amp = 0.5, OpAmpModel(offset=0.125)
    modulator = FirstOrderSigmaDelta(gain=gain, opamp=amp)
    x = np.array([0.375, -0.125, 0.375, -0.625, 0.125])
    drive = (x + amp.offset)[:, None]
    states = [0.0]
    for d in drive[:, 0]:
        u = states[-1]
        states.append(u + gain * (d - (0.5 if u >= 0.0 else -0.5)))
    assert 0.0 in states[1:]
    bits, final = modulator.speculate_bits(drive, np.array([0.0]))
    want, u_final, _ = oracle_modulate(modulator, x, np.ones_like(x), 0.0, None)
    assert bits[:, 0].tobytes() == want.tobytes()
    assert final[0] == u_final


@pytest.mark.parametrize("n", [1, 2, 3, 191])
def test_short_and_odd_windows(n):
    modulator = FirstOrderSigmaDelta(opamp=OpAmpModel(offset=1e-3))
    x = 0.3 * np.sin(np.arange(n) + 0.4)
    w = np.stack([x, -x], axis=1)
    u0 = np.array([0.1, -0.79])
    bits, final = kernel_columns(modulator, w, u0)
    want_bits, want_final = oracle_columns(modulator, w, u0)
    assert bits.tobytes() == want_bits.tobytes()
    assert (final == want_final).all()


# ----------------------------------------------------------------------
# Verification and fallback
# ----------------------------------------------------------------------


def mixed_block(n=480, columns=8, overdriven=(2, 5)):
    """A time-major input block in which some columns overload."""
    t = np.arange(n)[:, None]
    phases = np.linspace(0.0, 3.0, columns)
    amplitude = np.full(columns, 0.3)
    amplitude[list(overdriven)] = 0.9  # beyond vref = 0.5
    x = amplitude * np.sin(2 * np.pi * t / 96.0 + phases)
    q = np.where(t % 96 < 48, 1.0, -1.0)
    noise = np.random.default_rng(4).normal(0.0, 1e-4, (n, columns))
    return np.ascontiguousarray(q * x + noise)


@pytest.mark.parametrize(
    "v_sat", [float("inf"), 1.0, 0.25], ids=["no-rail", "rail-not-reached", "rail"]
)
def test_block_with_passing_and_failing_columns(monkeypatch, v_sat):
    """Only unverified columns run the scalar loop, from their first
    unverified step; the block matches the oracle column by column."""
    modulator = FirstOrderSigmaDelta(
        opamp=OpAmpModel(offset=2e-3, v_sat=v_sat), comparator_offset=-1e-3
    )
    w = mixed_block()
    u0 = np.linspace(-0.3, 0.3, w.shape[1])
    loop = CountingLoop(monkeypatch)
    bits, final = kernel_columns(modulator, w, u0)
    want_bits, want_final = oracle_columns(modulator, w, u0)
    assert bits.tobytes() == want_bits.tobytes()
    assert (final == want_final).all()
    if v_sat == 0.25:
        # The rail is below the in-range state bound g (vref + 0.3 V) =
        # 0.32 V: columns that never overload clip too.
        assert len(loop.calls) > 2
    else:
        assert len(loop.calls) == 2
        # Each resumes after a verified prefix, not from sample 0.
        assert all(0 < calls < len(w) for calls in loop.calls)


def test_in_range_block_needs_no_fallback(monkeypatch):
    modulator = FirstOrderSigmaDelta(opamp=OpAmpModel(noise_rms=1e-4))
    w = mixed_block(overdriven=())
    u0 = np.zeros(w.shape[1])
    loop = CountingLoop(monkeypatch)
    bits, final = kernel_columns(modulator, w, u0)
    want_bits, want_final = oracle_columns(modulator, w, u0)
    assert loop.calls == []
    assert bits.tobytes() == want_bits.tobytes()
    assert (final == want_final).all()


def test_non_finite_drive_falls_back(monkeypatch):
    """An infinite drive makes the reference state NaN (``0 * inf``); the
    kernel's state is non-finite too, so the column is re-run."""
    modulator = FirstOrderSigmaDelta(opamp=OpAmpModel(offset=1e-3))
    w = np.zeros((50, 2))
    w[20, 1] = -np.inf
    loop = CountingLoop(monkeypatch)
    bits, final = kernel_columns(modulator, w, np.zeros(2))
    want_bits, want_final = oracle_columns(modulator, w, np.zeros(2))
    assert loop.calls == [30]
    assert bits.tobytes() == want_bits.tobytes()
    assert final[0] == want_final[0]
    assert np.isnan(final[1]) and np.isnan(want_final[1])


def test_running_sum_is_the_sequential_cumsum():
    """The complex-view column walk adds exactly what ``cumsum`` adds."""
    rng = np.random.default_rng(8)
    for columns in (1, 2, 5, 64):
        a = rng.normal(0.0, 1.0, (777, columns)) * 10.0 ** rng.integers(-8, 8, columns)
        a[3, 0] = -0.0
        want = np.cumsum(a, axis=0)
        sigma_delta._running_sum(a)
        assert a.tobytes() == want.tobytes()


def test_unvectorized_modulator_keeps_the_sample_loop(monkeypatch):
    """``vectorized=False`` is the oracle switch: no speculation."""

    def refuse(*args):
        raise AssertionError("speculate_bits called")

    monkeypatch.setattr(FirstOrderSigmaDelta, "speculate_bits", refuse)
    modulator = FirstOrderSigmaDelta(
        opamp=OpAmpModel(noise_rms=1e-4), rng=np.random.default_rng(1), vectorized=False
    )
    x = 0.3 * np.sin(np.arange(200) / 5.0)
    bits, _, _ = oracle_modulate(
        modulator, x, np.ones(200), 0.0, np.random.default_rng(1)
    )
    assert modulator.modulate(x, np.ones(200)).bits.tobytes() == bits.tobytes()
