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

One branch rule
---------------
:meth:`FirstOrderSigmaDelta.signatures` is the entry point: it takes the
signature counts of ``(n x columns)`` time-major windows, one job per
column, each with its initial state and its job's noise stream (or
None).  :meth:`FirstOrderSigmaDelta.modulate` is its one-column case and
returns the bitstream itself.  Whether the modulator is *ideal* (no
analog imperfection enabled; amplifier noise counts only when the call
has a noise source) is decided once per call.  Each column is then
encoded by the first branch that applies:

1. ideal, no sample overloads (``|w| <= vref``) and the initial state
   in ``[-2 g vref, 2 g vref)``: the closed form below;
2. ideal otherwise: the ideal recurrence, sample by sample;
3. leak-free (infinite DC gain and complete settling; offsets, noise
   and saturation allowed): the verified speculation below;
4. otherwise (finite gain or incomplete settling): the reference
   recurrence as a time loop over device-axis vectors when the call has
   at least ``_BATCH_MIN_DEVICES`` columns, else
   :meth:`FirstOrderSigmaDelta.sequential_bits` per column.

Branches 3 and 4 first draw each column's amplifier noise, one bulk draw
of ``n`` samples from the column's stream, so a caller that encodes
channel 1 before channel 2, as the evaluator does, consumes every job's
stream in the reference order.  ``vectorized=False`` leaves only the
sample loops
(branches 2 and 4's :meth:`~FirstOrderSigmaDelta.sequential_bits`): the
test oracle.

The ideal closed form: its floors define the exact channel
-----------------------------------------------------------
Normalizing the state to ``y = u / (2 g Vref)`` and the modulated input
to ``t = (w/Vref+1)/2`` (so ``t in [0, 1]`` for in-range inputs), the
ideal recurrence

    ``y[n+1] = y[n] + t[n] - b[n]``,  ``b[n] = [y[n] >= 0]``

has the running-floor solution (provable by induction while
``y0 in [-1, 1)`` and ``t in [0, 1]``):

    ``B[n] = sum_{i<n} b[i] = floor(y0 + T[n-1]) + 1``,  ``T[n] = sum_{i<=n-1} t[i]``

so a bitstream is one sequential ``cumsum`` and one ``floor`` instead of
a Python per-sample loop, and a signature needs only the floors of two
prefix sums, ``T[n/2 - 1]`` and ``T[n - 1]`` (:func:`_prefix_sums`): no
bitstream at all.  The two forms read the same sequential sums, so they
decide identically.

On the exact channel these floors *are* the ideal modulator's
decisions: both backends take them, so an integer signature does not
depend on the backend, the chunking or the block that produced it.  The
ideal sample loop (branch 2, and the ``vectorized=False`` oracle) rounds
the same recurrence differently and can decide a step the other way
where the state lies within rounding of the threshold; the bound on
that distance is in ``FirstOrderSigmaDelta._closed_form_bits``.
Everywhere else the loop and the floors agree bit for bit, final state
included.

Noise-only modulators: guess, then verify
-----------------------------------------
An amplifier with infinite DC gain and complete settling leaves the leak
at exactly 1, so each step adds one of two fixed increments, ``g (drive
-/+ vref)`` with ``drive = (w + offset) + noise``.  Given the decisions,
the state sequence is therefore exactly the sequential ``cumsum`` of the
chosen increments, and the decisions follow the running-floor solution
above with ``t = (drive/vref + 1)/2`` and ``y0 = (u0 -
comparator_offset) / (2 g vref)``.
:meth:`FirstOrderSigmaDelta.speculate_bits` guesses the decisions from
those floors, rebuilds the exact state by ``cumsum``, and accepts a
window only once every decision equals ``u[n] >= threshold`` on that
state (and, for a finite ``v_sat``, no state clips); a window that fails
runs the reference scalar loop from its first failing step.  The guess
is never trusted: every accepted decision has been checked against the
exact sequential state.  Finite gain or incomplete settling couple the
state nonlinearly, so those modulators run the recurrence sample by
sample, on Python floats per column or as device-axis vectors across
wide calls.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..sc.opamp import OpAmpModel
from ..units import DEFAULT_VREF

#: The paper's integrator capacitor ratio CI/CF.
PAPER_INTEGRATOR_GAIN = 0.4

#: Below this many columns the device-axis time loop of branch 4 (module
#: docstring) loses to :meth:`FirstOrderSigmaDelta.sequential_bits` per
#: column: NumPy's per-operation overhead dominates small vectors.  The
#: measured crossover of ``PopulationMeasurer.measure`` on one slot
#: (m = 40, evaluator dc_gain 3000, settling error 1e-3 and 1e-4 V rms
#: noise, generator 5e-5 V rms, catalog faults at the cutoff; 2-vCPU
#: Xeon, CPython 3.11.7, NumPy 2.4.6), per-column vs device-axis ms,
#: median of 9: 28 devices 112 vs 146, 32: 129 vs 143, 36: 143 vs 149,
#: 40: 157 vs 160, 44: 182 vs 171.  EXPERIMENTS.md has the full table.
_BATCH_MIN_DEVICES = 40


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


def _prefix_sums(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``half - 2`` and ``n - 2`` of ``np.cumsum(t, axis=0)``, bit for
    bit, for a C-contiguous time-major block ``t`` ``(n x columns)``,
    ``n >= 4``.

    NumPy reduces the outer axis of a C-contiguous array one row at a
    time, in order: the sequential order of ``cumsum``, which is what
    fixes the floating-point values.  So two reductions give both sums
    without writing the running sum: ``T[half - 2]`` over the first
    ``half - 1`` rows, and ``T[n - 2]`` by adding that into row
    ``half - 1`` and reducing on from there.  A single column would be
    reduced pairwise instead, so it takes the running sum.  ``t`` is
    consumed.
    """
    n = t.shape[0]
    half = n // 2
    if t.shape[1] == 1:
        np.cumsum(t, axis=0, out=t)
        return t[half - 2], t[n - 2]
    first = np.add.reduce(t[: half - 1], axis=0)
    t[half - 1] += first
    return first, np.add.reduce(t[half - 1 : n - 1], axis=0)


def _overloads(w: np.ndarray, vref: float) -> np.ndarray:
    """Per column of time-major windows, the samples with ``|w| > vref``.

    A block whose extremes stay in range (the common case) is cleared by
    two contiguous reductions; other blocks are counted through byte
    masks rather than a float temporary the size of ``w``.
    """
    if w.size and -vref <= w.min() and w.max() <= vref:  # False on NaN
        return np.zeros(w.shape[1], dtype=np.int64)
    return np.count_nonzero((w > vref) | (w < -vref), axis=0)


def _count_bits(bits: np.ndarray, chopped: bool) -> np.ndarray:
    """Per column, the signature of time-major ``(n x columns)`` +/-1 bits:
    :meth:`~repro.evaluator.counters.SignatureCounter.count` batched."""
    if chopped:
        half = bits.shape[0] // 2
        first = bits[:half].sum(axis=0, dtype=np.int64)
        return first - bits[half:].sum(axis=0, dtype=np.int64)
    return bits.sum(axis=0, dtype=np.int64)


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
        ``|w| <= vref``.  Samples beyond it are counted as overloads.
    opamp:
        Integrator amplifier model.  Its ``offset`` is the offset the
        evaluator's chopped counting cancels; ``v_sat`` bounds the
        integrator state (a real amplifier cannot integrate forever).
    comparator_offset:
        Threshold error of the clocked comparator (volts).
    rng:
        Noise source for the amplifier noise; ``None`` disables noise.
    vectorized:
        Allow the array branches of the rule (module docstring) — the
        ideal closed form, the verified speculation and the device-axis
        loop (default True).  ``False`` leaves the sample loops, kept as
        the test oracle; on the ideal modulator it may decide a
        near-threshold step differently from the closed form, whose
        floors define the exact channel.
    """

    def __init__(
        self,
        gain: float = PAPER_INTEGRATOR_GAIN,
        vref: float = DEFAULT_VREF,
        opamp: OpAmpModel | None = None,
        comparator_offset: float = 0.0,
        rng: np.random.Generator | None = None,
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

    def is_ideal(self, has_rng: bool | None = None) -> bool:
        """True when the modulator has no analog imperfection enabled.

        Amplifier noise counts only with a noise source: the modulator's
        own ``rng``, or the callers' job streams when ``has_rng`` is
        given.
        """
        amp = self.opamp
        if has_rng is None:
            has_rng = self.rng is not None
        return (
            amp.inverse_gain == 0.0
            and amp.offset == 0.0
            and amp.settling_error == 0.0
            and self.comparator_offset == 0.0
            and (amp.noise_rms == 0.0 or not has_rng)
        )

    def is_leak_free(self) -> bool:
        """True when each step adds one of two fixed increments to the state.

        Infinite DC gain (leak exactly 1) and complete settling: the
        noise-only amplifier, which :meth:`speculate_bits` encodes
        without a time loop.  Offsets, noise and saturation are allowed.
        A modulator that is not leak-free runs a per-sample recurrence
        (branch 4 of the rule), which amortizes best when a call passes
        every column at once.
        """
        return self.opamp.inverse_gain == 0.0 and self.opamp.settling_error == 0.0

    # ------------------------------------------------------------------
    def signatures(
        self,
        w: np.ndarray,
        u0: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
        chopped: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per column, the signature and the overload count of time-major
        windows: :meth:`modulate` and the signature counter, batched.

        ``w`` is ``(n x columns)``, one modulated window ``q * x`` per
        column, and is consumed; ``u0`` holds the columns' initial states
        and ``rngs`` their job noise streams (or None), all set or all
        None.  Each column is encoded by the branch rule of the module
        docstring; an ideal window in range takes its signature from the
        floors of two prefix sums (``n >= 4``), with no bitstream.
        """
        overload = _overloads(w, self.vref)
        ideal = self.is_ideal(any(rng is not None for rng in rngs))
        closed = self._closed_form_columns(ideal, overload, u0)
        counts = np.empty(w.shape[1], dtype=np.int64)
        if closed.all():
            counts[:] = self._closed_form_counts(w, u0, chopped)
            return counts, overload
        stepped: slice | np.ndarray = slice(None)
        if closed.any():
            counts[closed] = self._closed_form_counts(w[:, closed], u0[closed], chopped)
            stepped = np.flatnonzero(~closed)
            w, u0 = w[:, stepped], u0[stepped]
            rngs = [rngs[j] for j in stepped.tolist()]
        bits, _ = self._stepped_bits(w, u0, rngs, ideal)
        counts[stepped] = _count_bits(bits, chopped)
        return counts, overload

    def modulate(
        self,
        x: np.ndarray,
        q: np.ndarray,
        u0: float = 0.0,
    ) -> ModulatorResult:
        """Encode ``q[n] * x[n]`` into a +/-1 bitstream: the one-column case
        of :meth:`signatures`, on this modulator's own ``rng``.

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
        column = w[:, None]
        overload = _overloads(column, self.vref)
        u = np.array([float(u0)])
        ideal = self.is_ideal()
        if self._closed_form_columns(ideal, overload, u)[0]:
            bits, u_final = self._closed_form_bits(w, u[0])
        else:
            bits, final = self._stepped_bits(column, u, [self.rng], ideal)
            bits, u_final = bits[:, 0], final[0]
        return ModulatorResult(bits, float(u0), float(u_final), int(overload[0]))

    # ------------------------------------------------------------------
    # The branch rule
    # ------------------------------------------------------------------
    def _closed_form_columns(
        self, ideal: bool, overload: np.ndarray, u0: np.ndarray
    ) -> np.ndarray:
        """Branch 1 of the rule: the columns the ideal closed form encodes."""
        if not (ideal and self.vectorized):
            return np.zeros(len(u0), dtype=bool)
        half_span = 2.0 * self.gain * self.vref
        return (overload == 0) & (u0 >= -half_span) & (u0 <= half_span * (1.0 - 1e-12))

    def _stepped_bits(
        self,
        w: np.ndarray,
        u0: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
        ideal: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Branches 2-4 of the rule: time-major bits and final states of
        the ``(n x columns)`` windows ``w`` (consumed)."""
        if not ideal:
            # The reference drive, (w + offset) + noise; a noiseless
            # channel still adds 0.0, as the reference does.
            w += self.opamp.offset
            w += self._draw_noise(rngs, w.shape[0])
            if self.vectorized and self.is_leak_free():
                return self.speculate_bits(w, u0)
            if self.vectorized and w.shape[1] >= _BATCH_MIN_DEVICES:
                return self._nonideal_bits(w, u0)
        loop = self._ideal_loop if ideal else self.sequential_bits
        bits = np.empty(w.shape, dtype=np.int8)
        final = np.empty(w.shape[1])
        for j in range(w.shape[1]):
            bits[:, j], final[j] = loop(w[:, j], u0[j])
        return bits, final

    def _draw_noise(
        self, rngs: Sequence[np.random.Generator | None], n: int
    ) -> np.ndarray | float:
        """Each column's amplifier noise, time-major: one bulk draw of
        ``n`` samples from the column's stream (the reference order), or
        0.0 when no column has noise."""
        rms = self.opamp.noise_rms
        if rms == 0.0 or all(rng is None for rng in rngs):
            return 0.0
        noise = np.zeros((len(rngs), n))
        for j, rng in enumerate(rngs):
            if rng is not None:
                noise[j] = rng.normal(0.0, rms, size=n)
        return noise.T

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _closed_form_bits(self, w: np.ndarray, u0: float) -> tuple[np.ndarray, float]:
        """The bitstream and final state of one ideal window in range
        (branch 1; module docstring).

        The decisions are the floors' (``floor(y0 + T[k])``, ``T`` the
        sequential ``cumsum`` of ``t``), which define the exact channel.
        The ideal sample loop can decide step ``k`` the other way only
        where its state is near the threshold, within

            ``|u[k]| <= 2 (n + 2)**2 * 2**-53 * 2 g vref``

        for a window of ``n`` samples (the first such step; later steps
        follow from different decisions).  Unit roundoff ``2**-53``:
        ``T[k]`` sums ``k <= n`` terms in ``[0, 1]`` sequentially, off by
        at most ``~k**2`` units, forming ``t``, ``y0`` and ``y0 + T`` adds
        ``~3k`` more, and each loop step rounds three operations on
        magnitudes up to ``2 g vref``, ``~3`` units of the state span per
        step.  Before the first disagreement the two share their
        decisions, so both track the same exact state ``u*[k] = 2 g vref
        (y0 + sum t* - B[k])``; deciding differently needs ``u*[k]``
        within the sum of the two errors of 0.

        The final state is the sample loop's own sum, in its order: u0,
        then each step's ``g * w - (+/- g vref)`` with exact feedback, so
        the sequential ``cumsum`` rounds exactly as the loop does.
        """
        half_span = 2.0 * self.gain * self.vref  # state span: u = y * half_span
        y0 = u0 / half_span
        t = 0.5 * (w / self.vref + 1.0)
        partial = np.empty(len(w) + 1)
        partial[0] = 0.0
        np.cumsum(t, out=partial[1:])  # partial[n] = T[n] = sum_{i<n} t[i]
        floors = np.floor(y0 + partial[:-1])  # floor(y0 + T[n]), n = 0..N-1
        # b[0] = floor(y0) + 1, then the differences of the floors.
        ones = np.diff(floors, prepend=-1.0)
        bits = (2.0 * ones - 1.0).astype(np.int8)
        steps = np.empty(len(w) + 1)
        steps[0] = u0
        np.multiply(self.gain, w, out=steps[1:])
        steps[1:] -= bits * (self.gain * self.vref)
        return bits, float(np.cumsum(steps)[-1])

    def _closed_form_counts(
        self, w: np.ndarray, u0: np.ndarray, chopped: bool
    ) -> np.ndarray:
        """Per column, the signature of ideal windows in range (branch 1),
        telescoped: :meth:`_closed_form_bits` counted, from two floors.

        The running-floor solution makes the cumulative ones count
        through sample ``k`` exactly ``floor(y0 + T[k]) + 1``, so each
        half-window count needs one floor, of the prefix sum
        :func:`_prefix_sums` reads bit for bit from the sequential
        ``cumsum`` — the decisions :meth:`_closed_form_bits` makes.  No
        bitstream and no running sum is written.  ``w`` is time-major
        ``(n x columns)`` and consumed.
        """
        t = np.ascontiguousarray(w)
        t /= self.vref
        t += 1.0
        t *= 0.5
        first, total = _prefix_sums(t)
        return self.window_counts(first, total, u0, t.shape[0], chopped)

    def window_counts(
        self,
        first: np.ndarray,
        total: np.ndarray,
        u0: np.ndarray,
        n: int,
        chopped: bool,
    ) -> np.ndarray:
        """Branch 1's signatures of ``n``-sample windows from their two
        prefix sums: ``first = T[n/2 - 2]`` and ``total = T[n - 2]`` of
        ``t = (w / vref + 1) / 2``, each the sequential sum from sample 0
        (:func:`_prefix_sums`), with initial states ``u0``.

        :meth:`_closed_form_counts` takes its sums from the windows;
        the population backend's wide-lot kernel
        (``repro.engine.vectorized``) accumulates the same sums in the
        same order inside its filter loop, and both count here.
        """
        y0 = u0 / (2.0 * self.gain * self.vref)
        # Cumulative ones through sample k: floor(y0 + T_k) + 1, where T_k
        # excludes sample k itself (the decision precedes the integration).
        ones_first = np.floor(y0 + first) + 1.0
        ones_total = np.floor(y0 + total) + 1.0
        if chopped:
            ones_second = ones_total - ones_first
            return (2.0 * (ones_first - ones_second)).astype(np.int64)
        return (2.0 * ones_total - n).astype(np.int64)

    def _ideal_loop(self, w: np.ndarray, u: float) -> tuple[np.ndarray, float]:
        """The ideal recurrence sample by sample (branch 2)."""
        g = self.gain
        gv = g * self.vref
        u = float(u)
        decisions = []
        for wi in w.tolist():
            decide = u >= 0.0
            decisions.append(decide)
            u += g * wi - (gv if decide else -gv)
        return np.where(decisions, 1, -1).astype(np.int8), u

    def sequential_bits(self, drive: np.ndarray, u: float) -> tuple[np.ndarray, float]:
        """The non-ideal recurrence, sample by sample, on Python floats.

        ``drive`` is the window's ``(w + offset) + noise``; returns the
        +/-1 decisions and the final state.  This is the reference loop:
        branch 4 runs it per column in narrow calls (and for every
        non-ideal modulator when ``vectorized=False``), and
        :meth:`speculate_bits` resumes it where a guessed window fails
        verification.
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

    def _nonideal_bits(
        self, drive: np.ndarray, u0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`sequential_bits` as a time loop over device-axis vectors
        (branch 4 in wide calls).

        Each step performs the same IEEE operations in the same order as
        the scalar recurrence — on the window's ``(w + offset) + noise``,
        the feedback is exactly ``+/-vref``, and the state clips only
        when ``v_sat`` is finite — so the bitstreams and final states are
        bit-identical.  The win is amortizing the Python loop over the
        columns.  ``drive`` is time-major ``(n x columns)``, as are the
        returned bits.
        """
        amp = self.opamp
        g = self.gain
        vref = self.vref
        threshold = self.comparator_offset
        leak = 1.0 - amp.inverse_gain * g
        settle = amp.settling_error
        u_sat = amp.v_sat
        clip = not math.isinf(u_sat)
        decisions = np.empty(drive.shape, dtype=bool)
        u = np.array(u0, dtype=float)
        feedback = np.empty_like(u)
        target = np.empty_like(u)
        term = np.empty_like(u)
        for i in range(len(drive)):
            decide = decisions[i]
            np.greater_equal(u, threshold, out=decide)
            # 2 vref - vref and 0 - vref are exact: the feedback is +/-vref.
            np.multiply(decide, 2.0 * vref, out=feedback)
            feedback -= vref
            np.subtract(drive[i], feedback, out=target)
            target *= g
            np.multiply(u, leak, out=term)
            target += term
            np.subtract(target, u, out=term)
            term *= settle
            np.subtract(target, term, out=u)
            if clip:
                np.minimum(u, u_sat, out=u)
                np.maximum(u, -u_sat, out=u)
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
