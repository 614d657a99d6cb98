"""Behavioural operational amplifier model.

The paper uses one fully differential folded-cascode amplifier (Fig. 3) in
both the generator biquad and the sigma-delta integrator.  At the
sampled-data level the amplifier enters the system behaviour through a
small set of aggregate parameters, which is exactly what this model
captures:

* **Finite DC gain** ``A0``: the virtual ground sits at ``-vout/A0``
  instead of zero, which leaks charge — an SC integrator built on this
  amplifier becomes slightly lossy and its coefficient shrinks.
* **Input-referred offset**: adds a constant to every charge transfer; in
  the evaluator this is the offset the chopped signature counting cancels.
* **Incomplete settling**: with finite bandwidth/slew the output only
  covers a fraction ``1 - settling_error`` of each step.
* **Output saturation**: the output clips at ``+/-v_sat`` (the reason the
  paper fixes ``CI/CF = 0.4`` in the modulator: "to avoid saturation
  effects in the amplifier").
* **Input-referred noise**: white noise added per transfer, lumped with
  kT/C noise by the circuit models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class OpAmpModel:
    """Aggregate behavioural parameters of an SC amplifier.

    Parameters
    ----------
    dc_gain:
        Open-loop DC gain (linear, not dB).  ``float('inf')`` for ideal.
    offset:
        Input-referred offset voltage (volts).
    settling_error:
        Relative residual error per charge transfer (0 = complete
        settling).  Must lie in ``[0, 1)``.
    v_sat:
        Output saturation (volts); the differential output clips at
        ``+/- v_sat``.
    noise_rms:
        Input-referred noise per transfer (volts RMS).
    """

    dc_gain: float = float("inf")
    offset: float = 0.0
    settling_error: float = 0.0
    v_sat: float = float("inf")
    noise_rms: float = 0.0

    def __post_init__(self) -> None:
        if not self.dc_gain > 0:
            raise ConfigError(f"dc_gain must be positive, got {self.dc_gain!r}")
        if not 0.0 <= self.settling_error < 1.0:
            raise ConfigError(
                f"settling_error must be in [0, 1), got {self.settling_error!r}"
            )
        if not self.v_sat > 0:
            raise ConfigError(f"v_sat must be positive, got {self.v_sat!r}")
        if not 0.0 <= self.noise_rms < float("inf"):
            raise ConfigError(
                f"noise_rms must be finite and >= 0, got {self.noise_rms!r}"
            )
        if not -float("inf") < self.offset < float("inf"):
            raise ConfigError(f"offset must be finite, got {self.offset!r}")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls) -> "OpAmpModel":
        """A perfect amplifier (infinite gain, no offset/noise/clipping)."""
        return cls()

    @classmethod
    def folded_cascode_035um(
        cls,
        offset: float = 0.0,
        noise_rms: float = 30e-6,
        v_sat: float = 1.5,
    ) -> "OpAmpModel":
        """Typical folded-cascode figures for a 0.35 um CMOS process.

        DC gain around 70 dB, settling to well under 0.1 % within half a
        clock period at the paper's clock rates, +/-1.5 V differential
        swing on a 3.3 V supply, and tens of microvolts of sampled noise.
        These defaults make the generator's simulated SFDR/THD land in the
        neighbourhood the paper measured (~70 dB) without per-figure
        tuning.
        """
        return cls(
            dc_gain=10 ** (70.0 / 20.0),
            offset=offset,
            settling_error=2e-4,
            v_sat=v_sat,
            noise_rms=noise_rms,
        )

    @classmethod
    def from_gain_db(cls, gain_db: float, **kwargs) -> "OpAmpModel":
        """Build a model specifying the DC gain in dB."""
        return cls(dc_gain=10 ** (gain_db / 20.0), **kwargs)

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    @property
    def gain_db(self) -> float:
        """Open-loop DC gain in dB."""
        if np.isinf(self.dc_gain):
            return float("inf")
        return float(20.0 * np.log10(self.dc_gain))

    @property
    def inverse_gain(self) -> float:
        """``1/A0`` — the virtual-ground error coefficient (0 when ideal)."""
        if np.isinf(self.dc_gain):
            return 0.0
        return 1.0 / self.dc_gain

    def saturate(self, v: float) -> float:
        """Clip an output voltage to the saturation range."""
        if v > self.v_sat:
            return self.v_sat
        if v < -self.v_sat:
            return -self.v_sat
        return v

    def settle(self, previous: float, target: float) -> float:
        """Output after one charge-transfer settling interval.

        Moves from ``previous`` toward ``target``, leaving the configured
        relative residue of the step uncovered.
        """
        return target - self.settling_error * (target - previous)

    def sample_noise(self, rng: np.random.Generator | None) -> float:
        """Draw one input-referred noise sample (0 if no rng or no noise)."""
        if rng is None or self.noise_rms == 0.0:
            return 0.0
        return float(rng.normal(0.0, self.noise_rms))
