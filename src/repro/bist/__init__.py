"""BIST application layer: the reason the analyzer exists.

The paper's motivation (Section I) is production test: moving frequency
response characterization from expensive ATE onto the chip.  This package
closes the loop from *measurement* to *test decision*:

* :class:`~repro.bist.limits.SpecMask` — frequency-dependent gain limits
  (a datasheet-style mask);
* :class:`~repro.bist.program.BISTProgram` — sweep + compare + verdict,
  using the measurement *bounds* so a device is only passed/failed when
  the guaranteed interval is conclusive;
* :mod:`~repro.bist.coverage` — parametric fault-coverage evaluation of
  a test program against a fault catalog;
* :func:`~repro.bist.montecarlo.run_yield_analysis` — Monte-Carlo yield
  analysis of a lot, batch-executed by :mod:`repro.engine` (to
  parallelize, call :meth:`repro.api.Session.yield_lot` on a session
  with ``ExecutionPolicy(n_workers=...)``).
"""

from .limits import MaskSegment, SpecMask
from .program import BISTProgram, BISTReport, PointVerdict
from .coverage import CoverageReport, FaultTrial, fault_coverage
from .montecarlo import DeviceTrial, YieldReport, run_yield_analysis

__all__ = [
    "MaskSegment",
    "SpecMask",
    "BISTProgram",
    "BISTReport",
    "PointVerdict",
    "CoverageReport",
    "FaultTrial",
    "fault_coverage",
    "DeviceTrial",
    "YieldReport",
    "run_yield_analysis",
]
