"""Fault-coverage evaluation.

Runs a BIST program against a catalog of faults of the demonstrator DUT
and reports which are detected.  This is the standard way an analog BIST
scheme's usefulness is quantified, and it exercises the full stack:
fault -> shifted frequency response -> out-of-mask bounded measurement
-> fail verdict.

Execution routes through the unified session layer (:mod:`repro.api`),
which rides the fault-campaign subsystem (:mod:`repro.faults`): the
good device and every faulty one are measured as batch-engine jobs, the
program's one-off calibration is paid once for the entire catalog, and
parallel or vectorized execution is bit-identical to the serial run.
The verdicts are then derived from the measured signatures with exactly
the tri-state interval logic of :class:`~repro.bist.program.BISTProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import AnalyzerConfig
from ..dut.active_rc import ActiveRCLowpass
from ..dut.faults import Fault
from .program import BISTProgram, BISTReport, point_verdict


@dataclass(frozen=True)
class FaultTrial:
    """Outcome of testing one faulty device."""

    fault: Fault
    verdict: str
    detected: bool  # fail or ambiguous counts as flagged for review


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate fault-coverage results."""

    trials: tuple[FaultTrial, ...]
    good_verdict: str

    @property
    def coverage(self) -> float:
        """Fraction of faults producing a fail verdict."""
        if not self.trials:
            return 0.0
        detected = sum(1 for t in self.trials if t.verdict == "fail")
        return detected / len(self.trials)

    @property
    def flagged(self) -> float:
        """Fraction at least flagged (fail or ambiguous)."""
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.detected) / len(self.trials)

    @property
    def escapes(self) -> tuple[FaultTrial, ...]:
        """Faults that passed cleanly (test escapes)."""
        return tuple(t for t in self.trials if t.verdict == "pass")


def signature_report(signature, program: BISTProgram) -> BISTReport:
    """A campaign signature scored against the program's mask.

    Scored at the *program's* frequencies (a program may list one
    frequency twice; the campaign measures it once).  Public because the
    session layer (:meth:`repro.api.session.Session.fault_coverage`)
    derives its verdicts with exactly this scoring.
    """
    by_frequency = {p.frequency: p for p in signature.points}
    points = []
    for f in program.frequencies:
        point = by_frequency[f]
        lo, hi = program.mask.limits_at(f)
        points.append(point_verdict(f, point.gain_db, lo, hi))
    return BISTReport(points=tuple(points))


def fault_coverage(
    good_dut: ActiveRCLowpass,
    faults,
    program: BISTProgram,
    config: AnalyzerConfig | None = None,
) -> CoverageReport:
    """Evaluate a BIST program's coverage of a fault catalog.

    Runs on a default (serial, reference-backend) session: the workload
    lives in :meth:`repro.api.session.Session.fault_coverage` (good
    device measured first and required to pass, one cached calibration
    for the whole catalog).  For another backend or worker count, build
    the session yourself::

        from repro.api import ExecutionPolicy, Session

        Session(good_dut, policy=ExecutionPolicy(backend="vectorized"))
            .fault_coverage(faults, program)
    """
    from ..api.session import Session

    config = config if config is not None else AnalyzerConfig.ideal()
    return Session().fault_coverage(
        faults, program, dut=good_dut, config=config
    ).raw
