"""Sigma-delta modulators with square-wave input modulation (paper Fig. 5).

The evaluator's modulator is a fully differential 1st-order sigma-delta
whose *input switching* performs the square-wave multiplication: depending
on the control bit ``q_k`` the sampled input charge enters with positive
or negative weight.  The integrator gain is the capacitor ratio
``CI/CF = 0.4`` ("fixed ... to avoid saturation effects in the amplifier
while maintaining a moderate gain in the integrator").

The property everything rests on (and that tests verify exactly): for the
ideal modulator,

    ``sum_n d[n] = (1/Vref) * sum_n w[n] - (u[end] - u[0]) / (g * Vref)``

where ``w[n] = q[n] * x[n]`` is the modulated input and ``u`` the bounded
integrator state.  The accumulated bitstream therefore equals the exact
correlation of the signal with the square wave, up to a *bounded* error —
the paper's ``eps`` terms.

A 2nd-order modulator is provided for the ablation study (the paper's
architecture deliberately uses 1st order for robustness; 2nd order has
better noise shaping but a weaker deterministic bound).

Vectorized fast path
--------------------
The ideal modulator admits an exact closed form.  Normalizing the state
to ``y = u / (2 g Vref)`` and the modulated input to ``t = (w/Vref+1)/2``
(so ``t in [0, 1]`` for in-range inputs), the recurrence

    ``y[n+1] = y[n] + t[n] - b[n]``,  ``b[n] = [y[n] >= 0]``

has the running-floor solution (provable by induction while
``y0 in [-1, 1)`` and ``t in [0, 1]``):

    ``B[n] = sum_{i<n} b[i] = floor(y0 + T[n-1]) + 1``,  ``T[n] = sum_{i<=n-1} t[i]``

so the whole bitstream is two :func:`numpy.cumsum`/:func:`numpy.floor`
passes instead of a Python per-sample loop — the analyzer's dominant
cost (~70 % of a gain/phase point).  :meth:`FirstOrderSigmaDelta.modulate`
takes this path automatically for the ideal modulator with in-range
input and initial state.  Otherwise it runs the recurrence sample by
sample: the ideal loop for an overloaded input or an out-of-range
initial state, and the non-ideal loop, on Python floats, whenever an
imperfection is enabled (non-idealities couple the state nonlinearly
and have no closed form).  The population backend
(:mod:`repro.engine.vectorized`) calls this method per device for small
non-ideal slots (and for an ideal slot's rare overloaded device) and
runs the same non-ideal recurrence over device-axis vectors for wide
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EvaluationError
from ..sc.opamp import OpAmpModel
from ..units import DEFAULT_VREF

#: The paper's integrator capacitor ratio CI/CF.
PAPER_INTEGRATOR_GAIN = 0.4


@dataclass
class ModulatorResult:
    """Output of one modulator run."""

    bits: np.ndarray  # int8 array of +/-1 decisions
    u_initial: float  # integrator state before the first sample
    u_final: float  # integrator state after the last sample
    overload_count: int  # samples where |w| exceeded Vref


class FirstOrderSigmaDelta:
    """Behavioural 1st-order sigma-delta with input polarity switching.

    Parameters
    ----------
    gain:
        Integrator charge-transfer gain ``CI/CF`` (paper: 0.4).
    vref:
        Feedback DAC reference (volts); the stable input range is
        ``|w| <= vref``.
    opamp:
        Integrator amplifier model.  Its ``offset`` is the offset the
        evaluator's chopped counting cancels; ``v_sat`` bounds the
        integrator state (a real amplifier cannot integrate forever).
    comparator_offset:
        Threshold error of the clocked comparator (volts).
    rng:
        Noise source for the amplifier noise; ``None`` disables noise.
    strict_overload:
        If True, an input sample beyond the stable range raises
        :class:`~repro.errors.EvaluationError`; otherwise overloads are
        only counted (the hardware would simply degrade).
    vectorized:
        Allow the exact closed-form fast path for the ideal modulator
        (default True).  ``False`` forces the reference sample loop —
        kept for the equivalence tests and the throughput benchmark.
    """

    def __init__(
        self,
        gain: float = PAPER_INTEGRATOR_GAIN,
        vref: float = DEFAULT_VREF,
        opamp: OpAmpModel | None = None,
        comparator_offset: float = 0.0,
        rng: np.random.Generator | None = None,
        strict_overload: bool = False,
        vectorized: bool = True,
    ) -> None:
        if not gain > 0:
            raise ConfigError(f"integrator gain must be positive, got {gain!r}")
        if not vref > 0:
            raise ConfigError(f"vref must be positive, got {vref!r}")
        self.gain = float(gain)
        self.vref = float(vref)
        self.opamp = opamp if opamp is not None else OpAmpModel.ideal()
        self.comparator_offset = float(comparator_offset)
        self.rng = rng
        self.strict_overload = strict_overload
        self.vectorized = vectorized

    # ------------------------------------------------------------------
    @property
    def state_bound(self) -> float:
        """Worst-case integrator magnitude for in-range inputs.

        Once ``|u| <= g*(vref + |w|max) <= 2*g*vref`` it stays there; the
        amplifier's saturation may clamp tighter.
        """
        natural = 2.0 * self.gain * self.vref
        return min(natural, self.opamp.v_sat)

    def epsilon_bound(self) -> float:
        """Provable bound on ``|sum d - sum w / vref|`` for one window.

        ``|u_end - u_0| / (g*vref) <= 2 * state_bound / (g*vref)``.
        With the natural state bound this evaluates to 4 — half the
        paper's quoted ``eps in [-4, 4]`` budget per chopped half-window.
        """
        return 2.0 * self.state_bound / (self.gain * self.vref)

    def is_ideal(self) -> bool:
        """True when the modulator has no analog imperfection enabled."""
        amp = self.opamp
        return (
            amp.inverse_gain == 0.0
            and amp.offset == 0.0
            and amp.settling_error == 0.0
            and self.comparator_offset == 0.0
            and (amp.noise_rms == 0.0 or self.rng is None)
        )

    # ------------------------------------------------------------------
    def modulate(
        self,
        x: np.ndarray,
        q: np.ndarray,
        u0: float = 0.0,
    ) -> ModulatorResult:
        """Encode ``q[n] * x[n]`` into a +/-1 bitstream.

        ``x`` is the raw signal under evaluation (volts) and ``q`` the
        +/-1 modulation control driving the input polarity switches.  The
        modulator offset is *not* modulated — it enters after the input
        switching, which is the structural fact the chopped counting
        exploits.
        """
        x = np.asarray(x, dtype=float)
        q = np.asarray(q, dtype=float)
        if x.shape != q.shape:
            raise ConfigError(
                f"signal and modulation shapes differ: {x.shape} vs {q.shape}"
            )
        w = q * x
        overload = int(np.count_nonzero(np.abs(w) > self.vref))
        if overload and self.strict_overload:
            raise EvaluationError(
                f"{overload} sample(s) exceed the modulator stable range "
                f"(|w| > {self.vref} V); reduce the input amplitude"
            )
        amp = self.opamp
        offset = amp.offset
        g = self.gain
        vref = self.vref
        threshold = self.comparator_offset
        u_sat = amp.v_sat
        u = float(u0)
        u_initial = u
        if (
            self.vectorized
            and self.is_ideal()
            and overload == 0
            and len(w) > 0
            and -2.0 * g * vref <= u <= 2.0 * g * vref * (1.0 - 1e-12)
        ):
            bits, u_final = self._modulate_ideal_vectorized(w, u)
            return ModulatorResult(bits, u_initial, u_final, overload)
        if self.is_ideal():
            bits = np.empty(len(w), dtype=np.int8)
            gv = g * vref
            for i, wi in enumerate(w):
                d = 1 if u >= 0.0 else -1
                bits[i] = d
                u += g * wi - (gv if d == 1 else -gv)
        else:
            noise_rms = amp.noise_rms if self.rng is not None else 0.0
            noise = (
                self.rng.normal(0.0, noise_rms, size=len(w))
                if noise_rms
                else np.zeros(len(w))
            )
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
        return ModulatorResult(bits, u_initial, float(u), overload)

    def _modulate_ideal_vectorized(
        self, w: np.ndarray, u0: float
    ) -> tuple[np.ndarray, float]:
        """Closed-form ideal encoding (see the module docstring).

        Requires ``|w| <= vref`` and ``u0 in [-2 g vref, 2 g vref)`` so
        the normalized recurrence stays in the tracking regime where the
        running-floor solution is exact.
        """
        half_span = 2.0 * self.gain * self.vref  # state span: u = y * half_span
        y0 = u0 / half_span
        t = 0.5 * (w / self.vref + 1.0)
        partial = np.empty(len(w) + 1)
        partial[0] = 0.0
        np.cumsum(t, out=partial[1:])  # partial[n] = T[n] = sum_{i<n} t[i]
        floors = np.floor(y0 + partial[:-1])  # floor(y0 + T[n]), n = 0..N-1
        ones = np.empty(len(w))
        ones[0] = floors[0] + 1.0  # b[0] = floor(y0) + 1
        np.subtract(floors[1:], floors[:-1], out=ones[1:])
        bits = (2.0 * ones - 1.0).astype(np.int8)
        total_ones = floors[-1] + 1.0  # B[N] = floor(y0 + T[N-1]) + 1
        u_final = (y0 + partial[-1] - total_ones) * half_span
        return bits, float(u_final)


class SecondOrderSigmaDelta:
    """A 2nd-order (Boser-Wooley style) modulator for ablation studies.

    Two cascaded integrators with gains ``g1 = g2 = 0.5`` feeding a single
    comparator.  Better in-band noise shaping than 1st order, but the
    accumulated-count error is no longer deterministically bounded by a
    small constant — which is exactly why the paper's architecture sticks
    to 1st order for signature counting.
    """

    def __init__(
        self,
        gain1: float = 0.5,
        gain2: float = 0.5,
        vref: float = DEFAULT_VREF,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not gain1 > 0 or not gain2 > 0:
            raise ConfigError("integrator gains must be positive")
        if not vref > 0:
            raise ConfigError(f"vref must be positive, got {vref!r}")
        self.gain1 = float(gain1)
        self.gain2 = float(gain2)
        self.vref = float(vref)
        self.rng = rng

    def modulate(
        self, x: np.ndarray, q: np.ndarray, u0: tuple[float, float] = (0.0, 0.0)
    ) -> ModulatorResult:
        """Encode ``q[n] * x[n]``; same interface as the 1st-order model."""
        x = np.asarray(x, dtype=float)
        q = np.asarray(q, dtype=float)
        if x.shape != q.shape:
            raise ConfigError(
                f"signal and modulation shapes differ: {x.shape} vs {q.shape}"
            )
        w = q * x
        overload = int(np.count_nonzero(np.abs(w) > self.vref))
        bits = np.empty(len(w), dtype=np.int8)
        u1, u2 = float(u0[0]), float(u0[1])
        g1, g2, vref = self.gain1, self.gain2, self.vref
        for i, wi in enumerate(w):
            d = 1 if u2 >= 0.0 else -1
            bits[i] = d
            fb = d * vref
            u1 += g1 * (wi - fb)
            u2 += g2 * (u1 - fb)
        return ModulatorResult(bits, 0.0, float(u2), overload)
