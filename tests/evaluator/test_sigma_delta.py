"""Sigma-delta modulators: the bounded-error identity and non-idealities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.evaluator.counters import SignatureCounter
from repro.evaluator.sigma_delta import (
    FirstOrderSigmaDelta,
    PAPER_INTEGRATOR_GAIN,
    SecondOrderSigmaDelta,
)
from repro.sc.opamp import OpAmpModel


class TestConstruction:
    def test_paper_gain(self):
        assert PAPER_INTEGRATOR_GAIN == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FirstOrderSigmaDelta(gain=0.0)
        with pytest.raises(ConfigError):
            FirstOrderSigmaDelta(vref=-1.0)

    def test_state_bound(self):
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        assert mod.state_bound == pytest.approx(0.4)  # 2 g Vref

    def test_epsilon_bound_is_four(self):
        # 2 * state_bound / (g Vref) = 4: the paper's eps budget per window.
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        assert mod.epsilon_bound() == pytest.approx(4.0)


class TestBitstreams:
    def test_bits_are_plus_minus_one(self):
        mod = FirstOrderSigmaDelta()
        x = 0.3 * np.sin(2 * np.pi * np.arange(960) / 96)
        result = mod.modulate(x, np.ones(960))
        assert set(np.unique(result.bits)) <= {-1, 1}

    def test_dc_density(self):
        # Mean of the bitstream approximates x/vref.
        mod = FirstOrderSigmaDelta(vref=0.5)
        result = mod.modulate(np.full(4800, 0.2), np.ones(4800))
        assert np.mean(result.bits) == pytest.approx(0.4, abs=0.01)

    def test_zero_input_balanced(self):
        mod = FirstOrderSigmaDelta()
        result = mod.modulate(np.zeros(1000), np.ones(1000))
        assert abs(np.sum(result.bits, dtype=int)) <= 2

    def test_shape_mismatch(self):
        mod = FirstOrderSigmaDelta()
        with pytest.raises(ConfigError):
            mod.modulate(np.zeros(5), np.ones(4))


class TestBoundedErrorIdentity:
    """The exact identity everything rests on:
    sum(d) = sum(w)/Vref - (u_end - u_0)/(g Vref)."""

    def test_identity_exact(self):
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        rng = np.random.default_rng(1)
        w = rng.uniform(-0.5, 0.5, size=3000)
        result = mod.modulate(w, np.ones(3000), u0=0.05)
        lhs = float(np.sum(result.bits, dtype=np.int64))
        rhs = np.sum(w) / 0.5 - (result.u_final - result.u_initial) / (0.4 * 0.5)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-0.35, max_value=0.35),
        st.integers(min_value=10, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, seed, u0, n):
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        rng = np.random.default_rng(seed)
        w = rng.uniform(-0.5, 0.5, size=n)
        result = mod.modulate(w, np.ones(n), u0=u0)
        lhs = float(np.sum(result.bits, dtype=np.int64))
        rhs = np.sum(w) / 0.5 - (result.u_final - result.u_initial) / 0.2
        assert lhs == pytest.approx(rhs, abs=1e-6)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=50, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_state_stays_bounded(self, seed, n):
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        rng = np.random.default_rng(seed)
        w = rng.uniform(-0.5, 0.5, size=n)
        result = mod.modulate(w, np.ones(n))
        assert abs(result.u_final) <= mod.state_bound + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=50, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_accumulated_error_within_epsilon(self, seed, n):
        """|sum d - sum w / Vref| <= 4 for in-range inputs from reset."""
        mod = FirstOrderSigmaDelta(gain=0.4, vref=0.5)
        rng = np.random.default_rng(seed)
        w = rng.uniform(-0.5, 0.5, size=n)
        result = mod.modulate(w, np.ones(n))
        eps = float(np.sum(result.bits, dtype=np.int64)) - np.sum(w) / 0.5
        assert abs(eps) <= mod.epsilon_bound() + 1e-9


class TestModulation:
    def test_polarity_switching(self):
        """q = -1 must encode -x: the square-wave multiplication folded
        into the input switches (Fig. 5)."""
        mod_a = FirstOrderSigmaDelta()
        mod_b = FirstOrderSigmaDelta()
        x = 0.3 * np.sin(2 * np.pi * np.arange(960) / 96)
        bits_pos = mod_a.modulate(x, np.ones(960)).bits
        bits_neg = mod_b.modulate(-x, -np.ones(960)).bits
        assert np.array_equal(bits_pos, bits_neg)

    def test_offset_is_not_modulated(self):
        """The modulator offset enters after the input switching: with
        zero signal, the bit density reflects +offset regardless of q."""
        offset = 5e-3
        mod = FirstOrderSigmaDelta(opamp=OpAmpModel(offset=offset), vref=0.5)
        q = np.tile([1, -1], 2400)  # fast alternating modulation
        result = mod.modulate(np.zeros(4800), q)
        assert np.mean(result.bits) == pytest.approx(offset / 0.5, abs=5e-3)


class TestOverload:
    def test_overload_counted(self):
        mod = FirstOrderSigmaDelta(vref=0.5)
        x = np.full(10, 0.7)
        result = mod.modulate(x, np.ones(10))
        assert result.overload_count == 10

    def test_in_range_not_flagged(self):
        mod = FirstOrderSigmaDelta(vref=0.5)
        result = mod.modulate(np.full(10, 0.4), np.ones(10))
        assert result.overload_count == 0


class TestNonidealModulator:
    def test_comparator_offset_changes_bits(self):
        x = 0.2 * np.sin(2 * np.pi * np.arange(960) / 96)
        clean = FirstOrderSigmaDelta().modulate(x, np.ones(960)).bits
        skewed = FirstOrderSigmaDelta(comparator_offset=0.05).modulate(
            x, np.ones(960)
        ).bits
        assert not np.array_equal(clean, skewed)

    def test_noise_changes_bits(self):
        x = 0.2 * np.sin(2 * np.pi * np.arange(960) / 96)
        a = FirstOrderSigmaDelta(
            opamp=OpAmpModel(noise_rms=1e-3), rng=np.random.default_rng(1)
        )
        b = FirstOrderSigmaDelta()
        assert not np.array_equal(
            a.modulate(x, np.ones(960)).bits, b.modulate(x, np.ones(960)).bits
        )

    def test_is_ideal_flag(self):
        assert FirstOrderSigmaDelta().is_ideal()
        assert not FirstOrderSigmaDelta(comparator_offset=1e-3).is_ideal()


#: One case per branch of the rule in ``sigma_delta``'s docstring: the
#: amplifier, whether the columns have noise streams, the column count,
#: the kernel that must run, and whether some columns overload or start
#: out of range (the ideal loop takes those, the closed form the rest).
#: The non-ideal cases add a comparator offset.
FINITE_GAIN = OpAmpModel(dc_gain=3000.0, settling_error=1e-3, noise_rms=1e-4)
BRANCH_CASES = {
    "closed-form": (OpAmpModel.ideal(), False, 6, "_closed_form_counts", False),
    "ideal-loop": (OpAmpModel.ideal(), True, 6, "_ideal_loop", True),
    "speculation": (
        OpAmpModel(offset=2e-3, noise_rms=1e-4), True, 6, "speculate_bits", True
    ),
    "device-axis": (FINITE_GAIN, True, 40, "_nonideal_bits", True),
    "per-column": (FINITE_GAIN, True, 3, "sequential_bits", True),
}


class TestSignatures:
    """``signatures`` over many columns is ``modulate`` plus the signature
    counter column by column, whichever branch encodes them."""

    N = 192

    def windows(self, columns, stray):
        t = np.arange(self.N)[:, None]
        amplitude = np.full(columns, 0.3)
        u0 = np.linspace(-0.3, 0.3, columns)
        if stray:
            amplitude[1] = 0.7  # overloads vref = 0.5
            u0[2] = 0.5  # beyond the state span 2 g vref = 0.4
        x = amplitude * np.sin(2 * np.pi * t / 96.0 + np.linspace(0.0, 3.0, columns))
        q = np.where(t[:, 0] % 96 < 48, 1.0, -1.0)
        q[self.N // 2 :] *= -1.0
        return np.ascontiguousarray(x), q, u0

    @pytest.mark.parametrize("chopped", [True, False], ids=["chopped", "plain"])
    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_columns_match_modulate_and_count(self, monkeypatch, name, chopped):
        amp, seeded, columns, kernel, stray = BRANCH_CASES[name]
        x, q, u0 = self.windows(columns, stray)
        ran = []
        original = getattr(FirstOrderSigmaDelta, kernel)

        def spy(*args):
            ran.append(kernel)
            return original(*args)

        monkeypatch.setattr(FirstOrderSigmaDelta, kernel, spy)
        seeds = range(10, 10 + columns)
        rngs = [np.random.default_rng(s) if seeded else None for s in seeds]
        offset = 0.0 if amp == OpAmpModel.ideal() else -1e-3
        modulator = FirstOrderSigmaDelta(opamp=amp, comparator_offset=offset)
        counts, overload = modulator.signatures(q[:, None] * x, u0, rngs, chopped)
        assert ran, f"{kernel} did not run"
        counter = SignatureCounter(chopped=chopped)
        for j, seed in enumerate(seeds):
            rng = np.random.default_rng(seed) if seeded else None
            column = FirstOrderSigmaDelta(
                opamp=amp, comparator_offset=offset, rng=rng
            ).modulate(x[:, j], q, u0=u0[j])
            assert counts[j] == counter.count(column.bits).signature
            assert overload[j] == column.overload_count
            if seeded:
                assert rngs[j].bit_generator.state == rng.bit_generator.state
        assert overload.any() == stray


class TestSecondOrder:
    def test_bits_valid(self):
        mod = SecondOrderSigmaDelta()
        x = 0.2 * np.sin(2 * np.pi * np.arange(960) / 96)
        result = mod.modulate(x, np.ones(960))
        assert set(np.unique(result.bits)) <= {-1, 1}

    def test_better_noise_shaping_in_band(self):
        """2nd order pushes more quantization noise out of band: the
        in-band error of a short-window mean is typically smaller."""
        n = 96 * 50
        x = np.full(n, 0.13)
        first = FirstOrderSigmaDelta(vref=0.5)
        second = SecondOrderSigmaDelta(vref=0.5)
        e1 = abs(np.mean(first.modulate(x, np.ones(n)).bits) - 0.26)
        e2 = abs(np.mean(second.modulate(x, np.ones(n)).bits) - 0.26)
        # Not a strict theorem per-instance, but holds for this DC input.
        assert e2 <= e1 + 0.002

    def test_validation(self):
        with pytest.raises(ConfigError):
            SecondOrderSigmaDelta(gain1=0.0)
