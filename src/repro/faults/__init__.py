"""Fault dictionary & diagnosis: from pass/fail to *which component failed*.

The analyzer's BIST layer (:mod:`repro.bist`) decides pass/fail; this
subsystem answers the follow-up question a failing part raises on every
test floor — which fault explains the measured signature?  It is the
standard dictionary method of the analog-test literature, made honest by
this analyzer's guaranteed measurement intervals:

* :class:`~repro.faults.campaign.FaultCampaign` — enumerate a fault
  catalog and measure each faulty device's multi-frequency signature as
  batch-engine jobs (one shared cached calibration, bit-identical serial
  or parallel);
* :class:`~repro.faults.dictionary.FaultDictionary` — the stored
  interval-valued signatures, with detectability checks, ambiguity
  groups and JSON round-tripping
  (:func:`repro.reporting.export.dictionary_to_json`); its one stacked
  interval table (:mod:`repro.faults.table`) serves diagnosis, probe
  selection, detectability and the groups;
* :func:`~repro.faults.diagnose.diagnose` — interval-aware
  nearest-signature matching that reports ranked candidates *and* the
  ambiguity group instead of silently mis-ranking indistinguishable
  faults;
* :func:`~repro.faults.probes.select_probe_frequencies` — greedy
  selection of the most discriminating sweep points, so the production
  diagnosis program measures 3 frequencies instead of 30.

The fault models themselves (parametric deviations, catastrophic
shorts/opens, multi-component combinations) live in
:mod:`repro.dut.faults`; see ``README.md`` for the end-to-end flow and
``EXPERIMENTS.md`` for measured coverage and diagnosis-accuracy figures.
"""

from .campaign import FaultCampaign, measure_signature
from .dictionary import (
    NOMINAL_LABEL,
    FaultDictionary,
    FaultSignature,
    SignaturePoint,
    interval_gap,
    signature_from_measurements,
)
from .diagnose import Candidate, Diagnosis, diagnose
from .probes import select_probe_frequencies

__all__ = [
    "NOMINAL_LABEL",
    "Candidate",
    "Diagnosis",
    "FaultCampaign",
    "FaultDictionary",
    "FaultSignature",
    "SignaturePoint",
    "diagnose",
    "interval_gap",
    "measure_signature",
    "select_probe_frequencies",
    "signature_from_measurements",
]
