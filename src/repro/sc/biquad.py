"""The generator's switched-capacitor biquad (paper Fig. 2a, Table I).

The sinewave generator is "a fully-differential biquad whose input
capacitors have been replaced by an array of four capacitors".  The paper
names its capacitors with the classic Fleischer-Laker letters (A, B, C, D,
F, plus the input ``Cin = CI(t)``), which identifies the topology as the
standard two-integrator loop with F-type (switched) damping on the second
integrator.  The exact switch phasing of the authors' companion paper is
not public; the phasing chosen here — lossless first integrator with a
delayed coupling from the loop, lossy second integrator with an undelayed
coupling — gives, with Table I values, a low-pass biquad whose
continuous-equivalent resonance sits at ``0.93 x (fgen/16)`` with
``Q ~= 1.1``: a passband centred on the synthesized tone, as the design
requires.  The assumption is documented in DESIGN.md and all analysis is
computed from the difference equations, so a different phasing would be a
one-line change.

Ideal charge-conservation difference equations (normalized capacitors,
``q[n]`` = input charge ``CI(t_n) * Vin``)::

    v1[n] = v1[n-1] - (A/B) * v2[n-1] - q[n]/B
    v2[n] = (D/(D+F)) * v2[n-1] + (C/(D+F)) * v1[n]

Non-idealities enter exactly as in :class:`~repro.sc.integrator.SCIntegrator`:
finite-gain leakage and gain error, offset, incomplete settling, output
saturation, amplifier noise, and (optionally) kT/C noise referred to the
unit capacitor size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .mismatch import MismatchModel
from .noise import ktc_noise_rms
from .opamp import OpAmpModel

#: Magnitude bound on the lean render's states: below it the difference
#: of two states is finite (see :meth:`SCBiquad.render_row`).
_LEAN_STATE_BOUND = 2.0**1022


@dataclass(frozen=True)
class BiquadCapacitors:
    """Normalized capacitor values of the Fleischer-Laker loop.

    Letters follow the paper's Table I.  ``e`` (E-type damping on the
    first integrator) is zero in the paper's design but supported for
    ablation studies.
    """

    a: float
    b: float
    c: float
    d: float
    f: float
    e: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "f", "e"):
            value = getattr(self, name)
            if name in ("e", "f"):
                if value < 0:
                    raise ConfigError(f"capacitor {name.upper()} must be >= 0, got {value!r}")
            elif not value > 0:
                raise ConfigError(f"capacitor {name.upper()} must be positive, got {value!r}")

    def mismatched(self, mismatch: MismatchModel) -> "BiquadCapacitors":
        """A mismatched copy of this capacitor set (one simulated die)."""
        values = {}
        for name in ("a", "b", "c", "d", "f", "e"):
            value = getattr(self, name)
            values[name] = mismatch.perturb(value) if value > 0 else value
        return BiquadCapacitors(**values)


class SCBiquad:
    """Two-integrator SC loop driven by an input charge sequence.

    Parameters
    ----------
    caps:
        Normalized capacitor values (already mismatched if desired).
    opamp1, opamp2:
        Behavioural models for the two amplifiers.  The paper reuses the
        same folded-cascode design for both.
    rng:
        Noise generator shared by both amplifiers; ``None`` disables noise.
    unit_capacitance:
        Physical size of the unit capacitor in farads; when given, kT/C
        noise for each charge transfer is added on top of amplifier noise.
    """

    def __init__(
        self,
        caps: BiquadCapacitors,
        opamp1: OpAmpModel | None = None,
        opamp2: OpAmpModel | None = None,
        rng: np.random.Generator | None = None,
        unit_capacitance: float | None = None,
    ) -> None:
        self.caps = caps
        self.opamp1 = opamp1 if opamp1 is not None else OpAmpModel.ideal()
        self.opamp2 = opamp2 if opamp2 is not None else OpAmpModel.ideal()
        self.rng = rng
        if unit_capacitance is not None and not unit_capacitance > 0:
            raise ConfigError(
                f"unit capacitance must be positive, got {unit_capacitance!r}"
            )
        self.unit_capacitance = unit_capacitance
        # First integrator: feedback B, switched branches A (+ worst-case
        # input CI up to 2 units) and optional damping E.
        p1 = self.opamp1.inverse_gain
        switched1 = caps.a + 2.0 + caps.e
        self._leak1 = (1.0 - p1 * switched1 / caps.b) * (
            caps.b / (caps.b + caps.e)
        )
        self._gain1 = 1.0 - p1 * (1.0 + switched1 / caps.b)
        # Second integrator: feedback D, switched branches C and F.
        p2 = self.opamp2.inverse_gain
        switched2 = caps.c + caps.f
        self._leak2 = (1.0 - p2 * switched2 / caps.d) * (caps.d / (caps.d + caps.f))
        self._gain2 = 1.0 - p2 * (1.0 + switched2 / caps.d)
        self._c2 = caps.c / (caps.d + caps.f)
        if self.unit_capacitance is not None:
            self._ktc1 = ktc_noise_rms(self.unit_capacitance * caps.b)
            self._ktc2 = ktc_noise_rms(self.unit_capacitance * caps.d)
        else:
            self._ktc1 = 0.0
            self._ktc2 = 0.0
        self.v1 = 0.0
        self.v2 = 0.0

    # ------------------------------------------------------------------
    # Linearized model (ideal amplifiers): used for design analysis
    # ------------------------------------------------------------------
    def state_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ideal ``(M, bvec, cvec)`` of ``x[n] = M x[n-1] + bvec q[n]``.

        State ``x = [v1, v2]``; output ``y = cvec . x`` is the second
        integrator (the generator's output node).
        """
        caps = self.caps
        lam1 = caps.b / (caps.b + caps.e)
        lam2 = caps.d / (caps.d + caps.f)
        k1 = caps.a / (caps.b + caps.e)
        k2 = caps.c / (caps.d + caps.f)
        m = np.array(
            [
                [lam1, -k1],
                [k2 * lam1, lam2 - k2 * k1],
            ]
        )
        bvec = np.array([-1.0 / (caps.b + caps.e), -k2 / (caps.b + caps.e)])
        cvec = np.array([0.0, 1.0])
        return m, bvec, cvec

    # ------------------------------------------------------------------
    # Time-domain behavioural simulation
    # ------------------------------------------------------------------
    def reset(self, v1: float = 0.0, v2: float = 0.0) -> None:
        """Reset both integrator states."""
        self.v1 = float(v1)
        self.v2 = float(v2)

    def draw_noise(
        self, rng: np.random.Generator | None, n_steps: int
    ) -> tuple[list[float], list[float]]:
        """Each amplifier's per-step noise for ``n_steps`` steps.

        One bulk ``standard_normal`` call consumes ``rng`` exactly as
        the step-by-step recurrence's ``normal(0.0, rms)`` draws would:
        per step amplifier 1, kT/C 1, amplifier 2, kT/C 2, each only
        when its RMS is non-zero.  ``normal(0.0, rms)`` is
        ``0.0 + rms * standard_normal()``; each column is scaled by its
        RMS and each amplifier's columns are accumulated onto ``0.0`` in
        that order, so a ``-0.0`` product reads as ``+0.0`` exactly as
        in a running noise total.  ``rng=None`` gives zeros.
        """
        noise1 = np.zeros(n_steps)
        noise2 = np.zeros(n_steps)
        sources = [
            (noise, rms)
            for noise, rms in (
                (noise1, self.opamp1.noise_rms),
                (noise1, self._ktc1),
                (noise2, self.opamp2.noise_rms),
                (noise2, self._ktc2),
            )
            if rms
        ]
        if rng is not None and sources and n_steps:
            draws = rng.standard_normal((n_steps, len(sources)))
            draws *= [rms for _, rms in sources]
            for column, (noise, _) in enumerate(sources):
                noise += draws[:, column]
        return noise1.tolist(), noise2.tolist()

    def render_row(
        self,
        charges: list[float],
        noise1: list[float],
        noise2: list[float],
        v1: float = 0.0,
        v2: float = 0.0,
    ) -> tuple[list[float], float, float]:
        """The non-ideal recurrence over one row of steps.

        ``charges`` are the input charges (see :meth:`step`), ``noise1``
        and ``noise2`` the amplifiers' per-step noise from
        :meth:`draw_noise`, and ``(v1, v2)`` the initial state.  Returns
        the output sequence and the final state; the biquad's own state
        is left alone.  The result is always the reference recurrence's
        (:meth:`_render_reference`), bit for bit.

        When both amplifiers have infinite gain, no offset, complete
        settling and no rails (every generator a spec or the wire
        builds), and there is no E-type damping, the row runs a lean
        loop, ``v1 - (q + a*v2)/be + n1`` and ``leak2*v2 + c2*v1 + n2``.
        It drops the reference's ``1.0 *`` factors, its ``+ 0.0``
        offsets, its ``target - 0.0*(target - v)`` settling and its rail
        compares.  Each dropped operation is exact, except that ``x +
        0.0`` turns ``-0.0`` into ``+0.0`` and ``0.0*(target - v)`` is
        NaN when the difference overflows.  So by induction over the
        steps the two loops hold the same states as long as every state
        the lean loop makes is non-zero (a differing zero sign can only
        reach a state that is itself zero) and below ``2**1022`` in
        magnitude (then ``target - v`` is finite; this also rules out
        infinities and NaN).  The lean loop stops at the first state
        that fails this and re-runs the row on the reference loop from
        the same initial state and noise.
        """
        caps = self.caps
        amp1, amp2 = self.opamp1, self.opamp2
        lean = (
            self._leak1 == 1.0
            and self._gain1 == 1.0
            and self._gain2 == 1.0
            and caps.b * amp1.offset == 0.0
            and amp2.offset == 0.0
            and amp1.settling_error == 0.0
            and amp2.settling_error == 0.0
            and amp1.v_sat == amp2.v_sat == math.inf
        )
        hi = _LEAN_STATE_BOUND
        lo = -hi
        if not (lean and lo < v1 and v1 < hi and lo < v2 and v2 < hi):
            return self._render_reference(charges, noise1, noise2, v1, v2)
        a, be = caps.a, caps.b + caps.e
        leak2, c2 = self._leak2, self._c2
        x1, x2 = v1, v2
        out = []
        append = out.append
        for q, n1, n2 in zip(charges, noise1, noise2):
            x1 = x1 - (q + a * x2) / be + n1
            x2 = leak2 * x2 + c2 * x1 + n2
            if not (x1 and x2 and lo < x1 and x1 < hi and lo < x2 and x2 < hi):
                return self._render_reference(charges, noise1, noise2, v1, v2)
            append(x2)
        return out, x1, x2

    def _render_reference(
        self,
        charges: list[float],
        noise1: list[float],
        noise2: list[float],
        v1: float,
        v2: float,
    ) -> tuple[list[float], float, float]:
        """The reference recurrence of :meth:`render_row`.

        It runs on Python floats: one IEEE operation per term, in the
        order the difference equations are written, with finite gain,
        offset, incomplete settling and saturation as in
        :class:`~repro.sc.opamp.OpAmpModel`.
        """
        caps = self.caps
        amp1, amp2 = self.opamp1, self.opamp2
        leak1, gain1, a = self._leak1, self._gain1, caps.a
        be = caps.b + caps.e
        boff1 = caps.b * amp1.offset
        leak2, off2 = self._leak2, amp2.offset
        g2c2 = self._gain2 * self._c2
        se1, vs1 = amp1.settling_error, float(amp1.v_sat)
        se2, vs2 = amp2.settling_error, float(amp2.v_sat)
        out = []
        append = out.append
        for q, n1, n2 in zip(charges, noise1, noise2):
            target1 = leak1 * v1 - gain1 * ((q + a * v2) + boff1) / be + n1
            v1 = target1 - se1 * (target1 - v1)
            if v1 > vs1:
                v1 = vs1
            elif v1 < -vs1:
                v1 = -vs1
            target2 = leak2 * v2 + g2c2 * (v1 + off2) + n2
            v2 = target2 - se2 * (target2 - v2)
            if v2 > vs2:
                v2 = vs2
            elif v2 < -vs2:
                v2 = -vs2
            append(v2)
        return out, v1, v2

    def step(self, input_charge: float) -> float:
        """Advance one generator clock period; returns the output ``v2``.

        ``input_charge`` is the normalized charge delivered by the input
        branch this period: ``CI(t_n) * Vin`` in unit-capacitor volts.
        """
        noise1, noise2 = self.draw_noise(self.rng, 1)
        out, self.v1, self.v2 = self.render_row(
            [float(input_charge)], noise1, noise2, self.v1, self.v2
        )
        return out[0]

    def run(self, input_charges: np.ndarray) -> np.ndarray:
        """Advance over a charge sequence, returning the output sequence."""
        input_charges = np.asarray(input_charges, dtype=float)
        if self.is_ideal():
            return self._run_ideal(input_charges)
        noise1, noise2 = self.draw_noise(self.rng, len(input_charges))
        out, self.v1, self.v2 = self.render_row(
            input_charges.tolist(), noise1, noise2, self.v1, self.v2
        )
        return np.array(out)

    def _run_ideal(self, input_charges: np.ndarray) -> np.ndarray:
        """Vectorizable ideal path (still sequential, but lean)."""
        caps = self.caps
        lam1 = caps.b / (caps.b + caps.e)
        lam2 = caps.d / (caps.d + caps.f)
        k1 = caps.a / (caps.b + caps.e)
        k2 = self._c2
        inv_b = 1.0 / (caps.b + caps.e)
        v1 = self.v1
        v2 = self.v2
        out = np.empty(len(input_charges))
        for i, q in enumerate(input_charges):
            v1 = lam1 * v1 - k1 * v2 - inv_b * q
            v2 = lam2 * v2 + k2 * v1
            out[i] = v2
        self.v1 = v1
        self.v2 = v2
        return out

    def is_ideal(self) -> bool:
        """True when both amplifiers are ideal and noise is disabled."""
        for amp in (self.opamp1, self.opamp2):
            if (
                amp.inverse_gain != 0.0
                or amp.offset != 0.0
                or amp.settling_error != 0.0
                or not np.isinf(amp.v_sat)
            ):
                return False
        if self.rng is not None and (
            self.opamp1.noise_rms or self.opamp2.noise_rms or self._ktc1 or self._ktc2
        ):
            return False
        return True
