"""The paper's demonstrator DUT: an active-RC 2nd-order low-pass filter.

Section IV.C: "The employed DUT is an active-RC 2nd-order low-pass filter
with a cut-off frequency of 1 kHz."  We realize it as the classic
multiple-feedback (MFB) topology around an ideal op amp, built from real
R/C component values so that tolerances and parametric faults can act on
physical components — the granularity BIST fault coverage is defined at.

Nodal analysis of the MFB network (R1 input, C1 at the summing node X,
R2 feedback, R3 to the virtual ground, C2 integrating feedback) gives::

    dVx/dt   = [ (Vin-Vx)/R1 + (Vout-Vx)/R2 - Vx/R3 ] / C1
    dVout/dt = -Vx / (R3 C2)

with transfer ``H(s) = -(G1/G2) * w0^2 / (s^2 + (w0/Q) s + w0^2)``,
``w0^2 = G2 G3/(C1 C2)``, ``w0/Q = (G1+G2+G3)/C1`` (``Gi = 1/Ri``).

The MFB stage inverts; the demonstrator board's differential wiring
absorbs the sign, so the model's default polarity is positive (DC gain
+1), matching the paper's Bode plots that start at 0 dB / 0 degrees.

A production lot is drawn as one component array
(:meth:`FilterComponents.draw_lot`) and goes straight to the stacked
form a measured slot consumes (:func:`lot_population`), with no
per-device objects; :class:`ActiveRCLowpass` forms its model with the
same :func:`mfb_state_space`, one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, FaultError
from ..signals.waveform import Waveform
from .base import DUT
from .statespace import Population, StateSpaceDUT, StateSpaceStack, settle_seconds


@dataclass(frozen=True)
class FilterComponents:
    """Physical component values of the MFB low-pass (ohms and farads)."""

    r1: float
    r2: float
    r3: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3", "c1", "c2"):
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"component {name} must be positive, got {getattr(self, name)!r}"
                )

    _NAMES = ("r1", "r2", "r3", "c1", "c2")

    def perturbed(self, name: str, relative_change: float) -> "FilterComponents":
        """A copy with one component deviated by a relative amount."""
        if name not in self._NAMES:
            raise FaultError(
                f"unknown component {name!r}; valid names: {self._NAMES}"
            )
        value = getattr(self, name) * (1.0 + relative_change)
        if value <= 0:
            raise FaultError(
                f"fault drives component {name} non-positive "
                f"(relative change {relative_change})"
            )
        return replace(self, **{name: value})

    def with_tolerance(
        self, sigma: float, rng: np.random.Generator
    ) -> "FilterComponents":
        """A manufacturing-spread copy (each component i.i.d. Gaussian)."""
        return FilterComponents(*self.draw_lot(sigma, rng, 1)[0].tolist())

    def draw_lot(self, sigma: float, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` manufacturing-spread copies as one ``(n, 5)`` array.

        Columns are ``r1, r2, r3, c1, c2``; one ``normal`` call draws the
        values ``n`` successive :meth:`with_tolerance` calls would, in
        the same order.  A non-positive draw raises the error its
        :class:`FilterComponents` would: the first device, its first
        component.
        """
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ConfigError(f"sigma must be finite and >= 0, got {sigma!r}")
        nominal = np.array([getattr(self, name) for name in self._NAMES])
        values = nominal * (1.0 + rng.normal(0.0, sigma, size=(n, len(self._NAMES))))
        bad = np.flatnonzero(~np.all(values > 0, axis=1))
        if len(bad):
            FilterComponents(*values[bad[0]].tolist())
        return values


def design_mfb_lowpass(
    cutoff: float,
    q: float = 1.0 / math.sqrt(2.0),
    gain: float = 1.0,
    c2: float = 10e-9,
    c1_margin: float = 1.3,
) -> FilterComponents:
    """Component values realizing a target low-pass response.

    Solves the MFB design equations for ``(fc, Q, |H0|)``: pick ``C2``,
    choose ``C1 = margin * 4 Q^2 (1+H0) * C2`` (the realizability bound),
    then the conductances follow from the quadratic
    ``(1+H0) G2^2 - (w0 C1 / Q) G2 + w0^2 C1 C2 = 0``.
    """
    if not cutoff > 0:
        raise ConfigError(f"cutoff must be positive, got {cutoff!r}")
    if not q > 0:
        raise ConfigError(f"Q must be positive, got {q!r}")
    if not gain > 0:
        raise ConfigError(f"gain magnitude must be positive, got {gain!r}")
    if c1_margin <= 1.0:
        raise ConfigError(f"c1_margin must be > 1, got {c1_margin!r}")
    w0 = 2.0 * math.pi * cutoff
    c1 = c1_margin * 4.0 * q * q * (1.0 + gain) * c2
    disc = (w0 * c1 / q) ** 2 - 4.0 * (1.0 + gain) * w0 * w0 * c1 * c2
    # c1_margin > 1 guarantees disc > 0.
    g2 = (w0 * c1 / q + math.sqrt(disc)) / (2.0 * (1.0 + gain))
    g1 = gain * g2
    g3 = w0 * w0 * c1 * c2 / g2
    return FilterComponents(r1=1.0 / g1, r2=1.0 / g2, r3=1.0 / g3, c1=c1, c2=c2)


def mfb_state_space(values: np.ndarray, polarity: int = 1) -> StateSpaceStack:
    """Stacked MFB state space of component rows ``(N, 5)`` (``r1..c2``).

    Nodal analysis (module docstring) written elementwise, so row ``i``
    holds the very floats a one-row call for device ``i`` forms.
    """
    r1, r2, r3, c1, c2 = np.asarray(values, dtype=float).T
    g1 = 1.0 / r1
    g2 = 1.0 / r2
    g3 = 1.0 / r3
    rows = len(r1)
    a = np.zeros((rows, 2, 2))
    a[:, 0, 0] = -(g1 + g2 + g3) / c1
    a[:, 0, 1] = g2 / c1
    a[:, 1, 0] = -g3 / c2
    b = np.zeros((rows, 2))
    b[:, 0] = g1 / c1
    # MFB output inverts; fold the board polarity into C.
    c = np.zeros((rows, 2))
    c[:, 1] = -float(polarity)
    return StateSpaceStack(a=a, b=b, c=c, d=np.zeros(rows))


def lot_population(values: np.ndarray, tolerance: float, start: int = 0) -> Population:
    """A drawn component lot ``(N, 5)`` as one stacked :class:`Population`.

    The stability check and settling times of ``N`` default-polarity
    :class:`ActiveRCLowpass` builds, run once on the stack; ``start``
    is the lot index of row 0, named by an unstable device's error.
    """
    stack = mfb_state_space(values)
    poles = np.linalg.eigvals(stack.a)
    unstable = np.flatnonzero(np.any(poles.real >= 0, axis=1))
    if len(unstable):
        i = unstable[0]
        raise ConfigError(
            f"device #{start + i}: continuous system must be strictly stable; "
            f"eigenvalues {poles[i]}"
        )
    rows = len(values)
    return Population(
        stacks=[(np.arange(rows), stack)],
        settle=settle_seconds(poles, tolerance),
        continuous=np.ones(rows, dtype=bool),
        others={},
    )


class ActiveRCLowpass(DUT):
    """The paper's 1 kHz active-RC low-pass demonstrator DUT.

    Parameters
    ----------
    components:
        Physical component values; default is the nominal design for
        1 kHz cutoff, Butterworth Q, unity gain.
    polarity:
        +1 (default) models the board absorbing the MFB inversion; -1
        exposes the raw inverting response.
    name:
        Report label.
    """

    def __init__(
        self,
        components: FilterComponents | None = None,
        polarity: int = 1,
        name: str = "active-RC LP (1 kHz)",
    ) -> None:
        if polarity not in (1, -1):
            raise ConfigError(f"polarity must be +1 or -1, got {polarity!r}")
        self.components = (
            components if components is not None else design_mfb_lowpass(1000.0)
        )
        self.polarity = polarity
        self.name = name
        self._core = self._build_core()

    @classmethod
    def from_specs(
        cls,
        cutoff: float,
        q: float = 1.0 / math.sqrt(2.0),
        gain: float = 1.0,
        polarity: int = 1,
    ) -> "ActiveRCLowpass":
        """Design-and-build from target specs."""
        comps = design_mfb_lowpass(cutoff, q, gain)
        return cls(comps, polarity, name=f"active-RC LP ({cutoff:g} Hz)")

    def _build_core(self) -> StateSpaceDUT:
        comps = self.components
        a, b, c, _ = mfb_state_space(
            np.array([[getattr(comps, name) for name in FilterComponents._NAMES]]),
            self.polarity,
        )
        return StateSpaceDUT(a[0], b[0], c[0], 0.0, name=self.name)

    # ------------------------------------------------------------------
    # Derived design figures
    # ------------------------------------------------------------------
    @property
    def cutoff(self) -> float:
        """Natural frequency ``f0`` implied by the components (hertz)."""
        comps = self.components
        w0 = math.sqrt(
            1.0 / (comps.r2 * comps.r3 * comps.c1 * comps.c2)
        )
        return w0 / (2.0 * math.pi)

    @property
    def q_factor(self) -> float:
        """Quality factor implied by the components."""
        comps = self.components
        w0 = 2.0 * math.pi * self.cutoff
        g_sum = 1.0 / comps.r1 + 1.0 / comps.r2 + 1.0 / comps.r3
        return w0 * comps.c1 / g_sum

    @property
    def dc_gain_magnitude(self) -> float:
        """|H(0)| = R2/R1."""
        return self.components.r2 / self.components.r1

    # ------------------------------------------------------------------
    # DUT interface (delegates to the exact state-space core)
    # ------------------------------------------------------------------
    def process(self, waveform: Waveform) -> Waveform:
        return self._core.process(waveform)

    def frequency_response(self, frequencies) -> np.ndarray:
        return self._core.frequency_response(frequencies)

    def state_space(self) -> StateSpaceDUT:
        return self._core

    def reset(self) -> None:
        self._core.reset()

    def settling_time(self, tolerance: float = 1e-6) -> float:
        """Lead-in the analyzer should discard before integrating."""
        return self._core.settling_time(tolerance)

    def with_fault(self, component: str, relative_change: float) -> "ActiveRCLowpass":
        """A faulty copy of this DUT (one component deviated)."""
        return ActiveRCLowpass(
            self.components.perturbed(component, relative_change),
            polarity=self.polarity,
            name=f"{self.name} [{component} {relative_change:+.0%}]",
        )
