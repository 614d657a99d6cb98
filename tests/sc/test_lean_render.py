"""The lean generator render against the reference recurrence, bit for bit.

:meth:`SCBiquad.render_row` runs a lean loop for amplifiers with
infinite gain, no offset, complete settling and no rails, and re-runs
the row on the reference loop (:meth:`SCBiquad._render_reference`)
whenever a state it makes is zero, not finite, or at least ``2**1022``
in magnitude.  The oracle here is a transcription of the reference
loop; outputs and final states are compared with ``.tobytes()``, and a
call counter on the reference loop shows when the fallback ran.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generator.design import PAPER_CAPACITORS
from repro.sc.biquad import BiquadCapacitors, SCBiquad
from repro.sc.opamp import OpAmpModel


def reference_row(biquad, charges, noise1, noise2, v1=0.0, v2=0.0):
    """The reference recurrence, one IEEE operation per written term."""
    caps = biquad.caps
    amp1, amp2 = biquad.opamp1, biquad.opamp2
    out = []
    for q, n1, n2 in zip(charges, noise1, noise2):
        target1 = (
            biquad._leak1 * v1
            - biquad._gain1 * ((q + caps.a * v2) + caps.b * amp1.offset)
            / (caps.b + caps.e)
            + n1
        )
        v1 = target1 - amp1.settling_error * (target1 - v1)
        if v1 > amp1.v_sat:
            v1 = float(amp1.v_sat)
        elif v1 < -amp1.v_sat:
            v1 = -float(amp1.v_sat)
        target2 = (
            biquad._leak2 * v2
            + biquad._gain2 * biquad._c2 * (v1 + amp2.offset)
            + n2
        )
        v2 = target2 - amp2.settling_error * (target2 - v2)
        if v2 > amp2.v_sat:
            v2 = float(amp2.v_sat)
        elif v2 < -amp2.v_sat:
            v2 = -float(amp2.v_sat)
        out.append(v2)
    return out, v1, v2


def unguarded_lean_row(biquad, charges, noise1, noise2, v1=0.0, v2=0.0):
    """The lean loop with no state checks (what the guard protects against)."""
    a, be = biquad.caps.a, biquad.caps.b + biquad.caps.e
    out = []
    for q, n1, n2 in zip(charges, noise1, noise2):
        v1 = v1 - (q + a * v2) / be + n1
        v2 = biquad._leak2 * v2 + biquad._c2 * v1 + n2
        out.append(v2)
    return out, v1, v2


def as_bytes(row):
    out, v1, v2 = row
    return np.array(out, dtype=float).tobytes(), np.array([v1, v2]).tobytes()


@pytest.fixture
def reference_calls(monkeypatch):
    """Counts the rows that ran on the reference loop."""
    calls = []
    reference = SCBiquad._render_reference

    def counted(self, *args):
        calls.append(len(args[0]))
        return reference(self, *args)

    monkeypatch.setattr(SCBiquad, "_render_reference", counted)
    return calls


NOISY = OpAmpModel(noise_rms=5e-5)
LEAN = SCBiquad(PAPER_CAPACITORS, NOISY, NOISY)


def typical_row(n, seed=0):
    rng = np.random.default_rng(seed)
    step = np.arange(n)
    charges = 0.3 * np.sin(2 * np.pi * step / 16.0)
    return (
        charges.tolist(),
        (5e-5 * rng.standard_normal(n)).tolist(),
        (5e-5 * rng.standard_normal(n)).tolist(),
    )


def check(biquad, charges, noise1, noise2, v1=0.0, v2=0.0):
    got = biquad.render_row(charges, noise1, noise2, v1, v2)
    want = reference_row(biquad, charges, noise1, noise2, v1, v2)
    assert as_bytes(got) == as_bytes(want)
    return got


class TestTypicalRows:
    @pytest.mark.parametrize("n", [3, 16, 1000])
    def test_lean_loop_alone_matches(self, reference_calls, n):
        check(LEAN, *typical_row(n))
        assert reference_calls == []

    def test_continues_from_nonzero_state(self, reference_calls):
        charges, noise1, noise2 = typical_row(200, seed=4)
        head = check(LEAN, charges[:77], noise1[:77], noise2[:77])
        check(LEAN, charges[77:], noise1[77:], noise2[77:], head[1], head[2])
        assert reference_calls == []

    def test_mismatched_caps_take_the_lean_loop(self, reference_calls):
        caps = BiquadCapacitors(a=5.2, b=12.7, c=1.01, d=2.57, f=1.02)
        check(SCBiquad(caps, NOISY, OpAmpModel()), *typical_row(300, seed=2))
        assert reference_calls == []

    @pytest.mark.parametrize(
        "amp",
        [
            OpAmpModel(dc_gain=1e4, noise_rms=5e-5),
            OpAmpModel(offset=1e-3, noise_rms=5e-5),
            OpAmpModel(settling_error=1e-4, noise_rms=5e-5),
            OpAmpModel(v_sat=1.5, noise_rms=5e-5),
        ],
        ids=["finite-gain", "offset", "settling", "rails"],
    )
    def test_other_amplifiers_run_the_reference_loop(self, reference_calls, amp):
        check(SCBiquad(PAPER_CAPACITORS, amp, amp), *typical_row(100))
        assert reference_calls == [100]

    def test_e_damping_runs_the_reference_loop(self, reference_calls):
        caps = BiquadCapacitors(a=5.194, b=12.749, c=1.0, d=2.574, f=1.014, e=0.5)
        check(SCBiquad(caps, NOISY, NOISY), *typical_row(50))
        assert reference_calls == [50]


class TestForcedFallbacks:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_rows(self, reference_calls, n):
        check(LEAN, *typical_row(n), v1=0.25, v2=-0.5)
        assert reference_calls == []

    def test_empty_row_from_a_huge_state(self, reference_calls):
        assert check(LEAN, [], [], [], 1e308, -0.0) == ([], 1e308, -0.0)
        assert reference_calls == [0]

    def test_exact_zero_state(self, reference_calls):
        # q = n1 = 0 from rest: v1 is exactly 0.0 at the first step.
        check(LEAN, [0.0, 0.3, 0.1], [0.0, 1e-5, 0.0], [1e-5, 0.0, 2e-5])
        assert reference_calls == [3]

    def test_negative_zero_where_the_unguarded_loop_differs(self, reference_calls):
        row = ([-0.0], [-0.0], [-0.0])
        start = (-0.0, -0.0)
        want = reference_row(LEAN, *row, *start)
        # Dropping "+ 0.0" flips the zero's sign: the guard is needed.
        assert as_bytes(unguarded_lean_row(LEAN, *row, *start)) != as_bytes(want)
        check(LEAN, *row, *start)
        assert reference_calls == [1]

    @pytest.mark.parametrize("v1, v2", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zero_initial_states(self, reference_calls, v1, v2):
        check(LEAN, *typical_row(40), v1=v1, v2=v2)
        assert reference_calls == []

    def test_overflowing_settle_difference(self, reference_calls):
        # target1 - v1 overflows in the reference, whose 0.0 * inf makes
        # v1 NaN; the unguarded lean state stays finite.
        row = ([1.7e308], [-1.7e308], [0.0])
        start = (1.5e308, 0.0)
        want = reference_row(LEAN, *row, *start)
        assert math.isnan(want[1])
        assert math.isfinite(unguarded_lean_row(LEAN, *row, *start)[1])
        check(LEAN, *row, *start)
        assert reference_calls == [1]

    def test_huge_state_inside_the_row(self, reference_calls):
        charges, noise1, noise2 = typical_row(4)
        noise1[1] = 1e308
        check(LEAN, charges, noise1, noise2)
        assert reference_calls == [4]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["charge", "noise1", "noise2"])
    def test_non_finite_inputs(self, reference_calls, bad, where):
        charges, noise1, noise2 = typical_row(6)
        {"charge": charges, "noise1": noise1, "noise2": noise2}[where][3] = bad
        check(LEAN, charges, noise1, noise2)
        assert reference_calls == [6]

    @pytest.mark.parametrize("start", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_initial_state(self, reference_calls, start):
        check(LEAN, *typical_row(5), *start)
        assert reference_calls == [5]


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
edgy = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, math.inf, math.nan]),
    finite,
    st.floats(-1.0, 1.0),
)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1e-3, 1e-3),
                                st.floats(-1e-3, 1e-3)), max_size=40),
        v1=st.floats(-2, 2),
        v2=st.floats(-2, 2),
    )
    def test_small_signals(self, rows, v1, v2):
        charges, noise1, noise2 = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        check(LEAN, charges, noise1, noise2, v1, v2)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(edgy, edgy, edgy), max_size=6),
        v1=edgy,
        v2=edgy,
    )
    def test_any_floats(self, rows, v1, v2):
        charges, noise1, noise2 = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        check(LEAN, charges, noise1, noise2, v1, v2)
