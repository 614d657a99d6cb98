"""Monte-Carlo yield analysis of a BIST program.

The production question behind the paper: given manufacturing spread,
what fraction of devices does the on-chip test pass, and how often does
it disagree with the *true* specification compliance?  The standard
vocabulary:

* **yield** — fraction of devices passing the BIST program;
* **test escape** — a device that violates the true spec but passes the
  test (shipped bad part);
* **overkill** — a device that meets the true spec but fails the test
  (scrapped good part).

Because the analyzer reports *intervals*, the program also produces
"ambiguous" outcomes; the dispositioning policy (retest longer, or
scrap) is a knob exposed here as ``ambiguous_passes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import AnalyzerConfig
from ..dut.active_rc import FilterComponents
from ..dut.statespace import Population, frequency_responses
from .limits import SpecMask
from .program import BISTProgram


@dataclass(frozen=True)
class DeviceTrial:
    """One simulated device through the test program."""

    device_index: int
    verdict: str  # BIST outcome: pass | fail | ambiguous
    truly_good: bool  # analytic response inside the mask everywhere


@dataclass(frozen=True)
class YieldReport:
    """Aggregate Monte-Carlo outcome, stored as columns: device ``i``'s
    BIST verdict is ``verdicts[i]`` and its true spec compliance
    ``truly_good[i]``."""

    verdicts: tuple[str, ...]
    truly_good: tuple[bool, ...]
    ambiguous_passes: bool

    @classmethod
    def from_trials(cls, trials, ambiguous_passes: bool) -> YieldReport:
        """The report of a lot's ``(verdict, truly_good)`` pairs, one per
        device in device order (what ``BatchRunner.run_trials``
        returns)."""
        verdicts, truly_good = tuple(zip(*trials)) or ((), ())
        return cls(
            verdicts=verdicts,
            truly_good=truly_good,
            ambiguous_passes=ambiguous_passes,
        )

    @property
    def trials(self) -> tuple[DeviceTrial, ...]:
        """The lot as one :class:`DeviceTrial` per device (built on
        each read)."""
        return tuple(
            DeviceTrial(device_index=i, verdict=verdict, truly_good=good)
            for i, (verdict, good) in enumerate(zip(self.verdicts, self.truly_good))
        )

    @property
    def n_devices(self) -> int:
        return len(self.verdicts)

    def _fraction(self, count: int) -> float:
        return count / len(self.verdicts) if self.verdicts else 0.0

    def _shipped(self) -> list[bool]:
        """Per device, whether the BIST ships it."""
        shipped = ("pass", "ambiguous") if self.ambiguous_passes else ("pass",)
        return [verdict in shipped for verdict in self.verdicts]

    @property
    def test_yield(self) -> float:
        """Fraction of devices the BIST ships."""
        return self._fraction(sum(self._shipped()))

    @property
    def true_yield(self) -> float:
        """Fraction of devices actually meeting the spec."""
        return self._fraction(sum(self.truly_good))

    @property
    def escape_rate(self) -> float:
        """Shipped-bad fraction (of all devices)."""
        return self._fraction(
            sum(s and not g for s, g in zip(self._shipped(), self.truly_good))
        )

    @property
    def overkill_rate(self) -> float:
        """Scrapped-good fraction (of all devices)."""
        return self._fraction(
            sum(g and not s for s, g in zip(self._shipped(), self.truly_good))
        )

    @property
    def ambiguous_rate(self) -> float:
        return self._fraction(self.verdicts.count("ambiguous"))


def _truly_good(population: Population, mask: SpecMask, frequencies) -> list[bool]:
    """Each device's true spec compliance at the masked frequencies.

    One stacked solve per frequency covers the whole population
    (:func:`repro.dut.statespace.frequency_responses`, the arithmetic of
    every device's own ``frequency_response``); the gain in dB is formed
    as :meth:`~repro.dut.base.DUT.gain_db_at` forms it.  Both execution
    backends call this, the reference one with a single device.  Yield
    lots are MFB low-pass devices, so every row has a state-space stack.
    """
    good = np.ones(len(population), dtype=bool)
    for rows, stack in population.stacks:
        for f in frequencies:
            limits = mask.limits_at(f)
            if limits is None:
                continue
            lo, hi = limits
            h = frequency_responses(stack.a, stack.b, stack.c, stack.d, f)
            gain = np.hypot(h.real, h.imag)
            with np.errstate(divide="ignore"):
                gain_db = np.where(gain > 0, 20.0 * np.log10(gain), -np.inf)
            good[rows] &= (lo <= gain_db) & (gain_db <= hi)
    return good.tolist()


def default_yield_config(program: BISTProgram) -> AnalyzerConfig:
    """The default analyzer configuration for a yield program.

    The program's own window when it is even (the chopped evaluator's
    requirement), else the historical 40-period fallback.  One rule,
    shared by :func:`run_yield_analysis` and the CLI ``yield``
    subcommand, so their numbers can never diverge for odd windows.
    """
    return AnalyzerConfig.ideal(
        m_periods=program.m_periods if program.m_periods % 2 == 0 else 40
    )


def run_yield_analysis(
    nominal: FilterComponents,
    mask: SpecMask,
    program: BISTProgram,
    n_devices: int = 50,
    component_sigma: float = 0.02,
    seed: int = 0,
    config: AnalyzerConfig | None = None,
    ambiguous_passes: bool = False,
) -> YieldReport:
    """Simulate a production lot through the BIST program.

    Each device draws i.i.d. Gaussian component values around the
    nominal design (``component_sigma`` relative), runs the go/no-go
    program, and is compared against its *analytic* spec compliance.

    Runs on a default (serial, reference-backend) session
    (:meth:`repro.api.session.Session.yield_lot`: deterministic per-job
    seeding, one cached calibration).  For another backend or worker
    count, build the session yourself::

        from repro.api import ExecutionPolicy, Session

        Session(policy=ExecutionPolicy(n_workers=4)).yield_lot(
            nominal, mask, program, n_devices=50, config=config
        )
    """
    from ..api.session import Session

    config = config if config is not None else default_yield_config(program)
    return Session().yield_lot(
        nominal,
        mask,
        program,
        n_devices=n_devices,
        component_sigma=component_sigma,
        ambiguous_passes=ambiguous_passes,
        seed=seed,
        config=config,
    ).raw
