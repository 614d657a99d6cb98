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
passes instead of a Python per-sample loop (the final state is the
sequential ``cumsum`` of the chosen increments, the loop's own sum) — the analyzer's dominant
cost (~70 % of a gain/phase point).  :meth:`FirstOrderSigmaDelta.modulate`
takes this path automatically for the ideal modulator with in-range
input and initial state; an overloaded input or an out-of-range initial
state runs the ideal recurrence sample by sample.

Noise-only modulators: guess, then verify
-----------------------------------------
An amplifier with infinite DC gain and complete settling (the
noise-only amplifiers every scenario builds; offsets and saturation are
allowed) leaves the leak at exactly 1, so each step adds one of two
fixed increments, ``g (drive -/+ vref)`` with ``drive = (w + offset) +
noise``.  Given the decisions, the state sequence is therefore exactly
the sequential ``cumsum`` of the chosen increments, and the decisions
follow the running-floor solution above with ``t = (drive/vref + 1)/2``
and ``y0 = (u0 - comparator_offset) / (2 g vref)``.
:meth:`FirstOrderSigmaDelta.speculate_bits` guesses the decisions from
those floors, rebuilds the exact state by ``cumsum``, and accepts a
window only once every decision equals ``u[n] >= threshold`` on that
state (and, for a finite ``v_sat``, no state clips); a window that
fails runs the reference scalar loop from its first failing step.  The
guess is never trusted: every accepted decision has been checked
against the exact sequential state.  Finite gain or incomplete settling
couple the state nonlinearly, so those modulators run the recurrence
sample by sample (:meth:`FirstOrderSigmaDelta.sequential_bits`, on
Python floats).  The population backend (:mod:`repro.engine.vectorized`)
runs the same speculation over time-major device blocks, and the
finite-gain recurrence over device-axis vectors in wide slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EvaluationError
from ..sc.opamp import OpAmpModel
from ..units import DEFAULT_VREF

#: The paper's integrator capacitor ratio CI/CF.
PAPER_INTEGRATOR_GAIN = 0.4


def _running_sum(a: np.ndarray) -> None:
    """In place, ``a[k] += a[k - 1]`` down the rows of a C-contiguous 2-D
    array: ``np.cumsum(a, axis=0)`` on each column, in sequence.

    ``cumsum`` walks one column at a time, so its cost is one dependent
    add per element.  Viewed as ``complex128``, two neighbouring columns
    ride one complex add — the same two IEEE additions, componentwise —
    which halves the walk for an even column count.
    """
    if a.shape[1] % 2 == 0:
        a = a.view(np.complex128)
    np.cumsum(a, axis=0, out=a)


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
        Allow the exact array paths — the closed form of the ideal
        modulator and the verified speculation of a noise-only one
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

    def is_leak_free(self) -> bool:
        """True when each step adds one of two fixed increments to the state.

        Infinite DC gain (leak exactly 1) and complete settling: the
        noise-only amplifier, which :meth:`speculate_bits` encodes
        without a time loop.  Offsets, noise and saturation are allowed.
        """
        return self.opamp.inverse_gain == 0.0 and self.opamp.settling_error == 0.0

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
            drive = (w + offset) + noise
            if self.vectorized and self.is_leak_free():
                column, states = self.speculate_bits(drive[:, None], np.array([u]))
                bits, u = column[:, 0], states[0]
            else:
                bits, u = self.sequential_bits(drive, u)
        return ModulatorResult(bits, u_initial, float(u), overload)

    def sequential_bits(self, drive: np.ndarray, u: float) -> tuple[np.ndarray, float]:
        """The non-ideal recurrence, sample by sample, on Python floats.

        ``drive`` is the window's ``(w + offset) + noise``; returns the
        +/-1 decisions and the final state.  This is the reference loop:
        :meth:`modulate` runs it for finite-gain or incompletely settling
        amplifiers (and for every non-ideal modulator when
        ``vectorized=False``), and :meth:`speculate_bits` resumes it
        where a guessed window fails verification.
        """
        amp = self.opamp
        g = self.gain
        vref = self.vref
        threshold = self.comparator_offset
        leak = 1.0 - amp.inverse_gain * g
        settle = amp.settling_error
        u_sat = amp.v_sat
        u = float(u)
        decisions = []
        for di in drive.tolist():
            decide = u >= threshold
            decisions.append(decide)
            feedback = vref if decide else -vref
            target = leak * u + g * (di - feedback)
            u = target - settle * (target - u)
            if u > u_sat:
                u = u_sat
            elif u < -u_sat:
                u = -u_sat
        return np.where(decisions, 1, -1).astype(np.int8), u

    def speculate_bits(
        self, drive: np.ndarray, u0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Noise-only encoding of time-major windows, verified step by step.

        ``drive`` is ``(n x columns)``, one window of ``(w + offset) +
        noise`` per column, and ``u0`` the columns' initial states; returns
        the time-major +/-1 decisions and the final states.  Requires
        :meth:`is_leak_free`.  In order (module docstring):

        1. the decisions are guessed from the floors of
           ``y0 + cumsum(t)``, ``t = (drive/vref + 1)/2``;
        2. the state is rebuilt as the sequential ``cumsum`` of ``[u0,
           g (drive - feedback)]`` — the reference loop's operations in
           its order, since ``leak * u == u`` and ``target - 0 * (target -
           u) == target`` while ``target - u`` is finite (every state
           finite and below ``2**1022`` in magnitude, far beyond any
           physical drive);
        3. step ``k`` is verified when its guess equals ``u[k] >=
           threshold`` and ``u[k + 1]`` is finite and (for a finite
           ``v_sat``) does not clip;
        4. a column with an unverified step runs :meth:`sequential_bits`
           from its first one, whose state is exact.

        A verified prefix is the reference run: each decision was read
        off the exact state the reference would hold.  The one possible
        difference is the sign of a zero state (the reference's
        ``target - settle * (target - u)`` can turn ``-0.0`` into
        ``+0.0``); the two compare equal, so no decision and no final
        state differs under ``==``.
        """
        g = self.gain
        vref = self.vref
        threshold = self.comparator_offset
        u_sat = self.opamp.v_sat
        n = drive.shape[0]
        # Guess: row k holds floor(y0 + t[0] + ... + t[k - 1]) (summed in
        # any order — only the verification below must be exact).
        states = np.empty((n + 1, drive.shape[1]))
        guess = states[:n]
        guess[:1] = (u0 - threshold) / (2.0 * g * vref)
        np.multiply(drive[:-1], 0.5 / vref, out=guess[1:])
        guess[1:] += 0.5
        _running_sum(guess)
        np.floor(guess, out=guess)
        decisions = np.empty(drive.shape, dtype=bool)
        np.greater_equal(guess[:1], 0.0, out=decisions[:1])
        np.greater(guess[1:], guess[:-1], out=decisions[1:])
        # Exact state: u[k + 1] = u[k] + g * (drive[k] - feedback[k]),
        # with the feedback exactly +/-vref.
        increments = states[1:]
        np.multiply(decisions, 2.0 * vref, out=increments)
        increments -= vref
        np.subtract(drive, increments, out=increments)
        increments *= g
        states[0] = u0
        _running_sum(states)
        # The decisions the exact states make; then, where they differ
        # from the guess, the steps that failed.
        failed = np.greater_equal(states[:-1], threshold)
        np.not_equal(failed, decisions, out=failed)
        if not np.isinf(u_sat):
            failed |= states[1:] > u_sat
            failed |= states[1:] < -u_sat
        bits = decisions.astype(np.int8)
        bits *= 2
        bits -= 1
        final = states[-1].copy()
        for j in np.flatnonzero(failed.any(axis=0) | ~np.isfinite(final)).tolist():
            unverified = failed[:, j]
            if not np.isfinite(final[j]):
                # Non-finite states are absorbing: the first one ends
                # the verified prefix.
                unverified = unverified | ~np.isfinite(states[1:, j])
            start = int(np.argmax(unverified))
            bits[start:, j], final[j] = self.sequential_bits(
                drive[start:, j], states[start, j]
            )
        return bits, final

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
        # The final state is the sample loop's own sum, in its order:
        # u0, then each step's g * w - (+/- g vref) — exact feedback, so
        # the sequential cumsum rounds exactly as the loop does.
        steps = np.empty(len(w) + 1)
        steps[0] = u0
        np.multiply(self.gain, w, out=steps[1:])
        steps[1:] -= bits * (self.gain * self.vref)
        return bits, float(np.cumsum(steps)[-1])


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
