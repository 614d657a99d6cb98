"""Workload results lowered into the common two-channel form.

Every workload the analyzer runs — a Bode sweep, a Monte-Carlo yield
lot, a fault-coverage campaign, a distortion probe, a dictionary
diagnosis, a dynamic-range sweep — reports its payload as two channels
with different comparison semantics (the convention introduced by the
scenario layer's :class:`~repro.scenarios.result.StepResult`):

* ``exact`` — integer signature counts, verdict strings, labels,
  booleans: bit-identical across backends, worker counts and platforms;
* ``floats`` — derived continuous quantities (dB gains, interval
  endpoints, yield fractions): compared within explicit tolerances.

These functions are the single source of truth for that lowering.  The
session facade (:mod:`repro.api.session`) uses them to shape every
:class:`~repro.api.result.SessionResult`, and the scenario compiler
(:mod:`repro.scenarios.compiler`) uses the *same* functions for its
step results — which is what makes a scenario baseline recorded through
either path byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:
    from ..bist.coverage import CoverageReport
    from ..bist.montecarlo import YieldReport
    from ..core.analyzer import GainPhaseMeasurement
    from ..core.distortion import DistortionReport
    from ..core.dynamic_range import DynamicRangeResult
    from ..faults.diagnose import Diagnosis
    from ..prbist.campaign import PrbistCoverageReport, SignatureCheckReport
    from ..scenarios.result import ScenarioResult

#: One lowered channel: field name -> JSON-shaped payload.
Channel = dict[str, Any]


def sweep_channels(
    frequencies: Iterable[float],
    measurements: Sequence[GainPhaseMeasurement],
) -> tuple[Channel, Channel]:
    """Channels of a frequency sweep (list of gain/phase measurements)."""
    exact = {
        "signature_counts": [
            [m_.output.signature.i1, m_.output.signature.i2,
             m_.reference.signature.i1, m_.reference.signature.i2]
            for m_ in measurements
        ],
        "overload_counts": [
            m_.output.signature.overload_count
            + m_.reference.signature.overload_count
            for m_ in measurements
        ],
    }
    floats = {
        "frequency_hz": [float(f) for f in frequencies],
        "gain_db": [float(m_.gain_db.value) for m_ in measurements],
        "gain_db_lower": [float(m_.gain_db.lower) for m_ in measurements],
        "gain_db_upper": [float(m_.gain_db.upper) for m_ in measurements],
        "phase_deg": [float(m_.phase_deg.value) for m_ in measurements],
        "phase_deg_lower": [float(m_.phase_deg.lower) for m_ in measurements],
        "phase_deg_upper": [float(m_.phase_deg.upper) for m_ in measurements],
    }
    return exact, floats


def yield_channels(report: YieldReport) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.bist.montecarlo.YieldReport`."""
    verdicts = list(report.verdicts)
    exact = {
        "verdicts": verdicts,
        "truly_good": list(report.truly_good),
        "n_pass": verdicts.count("pass"),
        "n_fail": verdicts.count("fail"),
        "n_ambiguous": verdicts.count("ambiguous"),
    }
    floats = {
        "test_yield": float(report.test_yield),
        "true_yield": float(report.true_yield),
        "escape_rate": float(report.escape_rate),
        "overkill_rate": float(report.overkill_rate),
        "ambiguous_rate": float(report.ambiguous_rate),
    }
    return exact, floats


def coverage_channels(report: CoverageReport) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.bist.coverage.CoverageReport`."""
    exact = {
        "fault_labels": [t.fault.label for t in report.trials],
        "verdicts": [t.verdict for t in report.trials],
        "good_verdict": report.good_verdict,
        "escapes": [t.fault.label for t in report.escapes],
    }
    floats = {
        "coverage": float(report.coverage),
        "flagged": float(report.flagged),
    }
    return exact, floats


def distortion_channels(
    reports: Sequence[DistortionReport],
) -> tuple[Channel, Channel]:
    """Channels of a list of distortion reports (one per stimulus)."""
    rows = [(report, row) for report in reports for row in report.rows]
    exact = {
        "harmonics": [row.harmonic for _, row in rows],
    }
    floats = {
        "fwave_hz": [float(report.fwave) for report, _ in rows],
        "level_dbc": [float(row.level_dbc.value) for _, row in rows],
        "level_dbc_lower": [float(row.level_dbc.lower) for _, row in rows],
        "level_dbc_upper": [float(row.level_dbc.upper) for _, row in rows],
        "reference_dbc": [float(row.reference_dbc) for _, row in rows],
    }
    return exact, floats


def diagnose_channels(
    diagnosis: Diagnosis, probes: Iterable[float], inject: str
) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.faults.diagnose.Diagnosis`."""
    exact = {
        "best": diagnosis.best.label,
        "candidates": [c.label for c in diagnosis.candidates],
        "consistent": [bool(c.consistent) for c in diagnosis.candidates],
        "ambiguity_group": list(diagnosis.ambiguity_group),
        "conclusive": bool(diagnosis.conclusive),
        "correct": bool(diagnosis.names(inject)),
    }
    floats = {
        "probe_frequencies_hz": [float(f) for f in probes],
        "separations": [float(c.separation) for c in diagnosis.candidates],
        "estimate_distances": [
            float(c.estimate_distance) for c in diagnosis.candidates
        ],
    }
    return exact, floats


def dynamic_range_channels(
    result: DynamicRangeResult,
) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.core.dynamic_range.DynamicRangeResult`."""
    exact = {
        "detected": [bool(p.detected) for p in result.probes],
    }
    floats = {
        "levels_dbc": [float(p.level_dbc) for p in result.probes],
        "measured_amplitudes": [
            float(p.measured_amplitude) for p in result.probes
        ],
        "dynamic_range_db": float(result.dynamic_range_db),
    }
    return exact, floats


def prbist_coverage_channels(
    report: PrbistCoverageReport,
) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.prbist.campaign.PrbistCoverageReport`."""
    exact = {
        "fault_labels": [t.label for t in report.trials],
        "responding": [bool(t.responding) for t in report.trials],
        "detected": [bool(t.detected) for t in report.trials],
        "aliased": [bool(t.aliased) for t in report.trials],
        "signatures": [int(t.signature) for t in report.trials],
        "escapes": list(report.escapes),
        "golden_signature": int(report.golden_signature),
        "golden_words": [int(w) for w in report.golden_words],
        "misr_width": int(report.misr.width),
        "lfsr_width": int(report.plan.lfsr.width),
        "lfsr_form": report.plan.lfsr.form,
    }
    floats = {
        "frequency_hz": [float(f) for f in report.frequencies],
        "coverage": float(report.coverage),
        "response_rate": float(report.response_rate),
        "aliasing_rate": float(report.aliasing_rate),
    }
    return exact, floats


def signature_check_channels(
    report: SignatureCheckReport,
) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.prbist.campaign.SignatureCheckReport`."""
    exact = {
        "inject": report.inject,
        "match": bool(report.match),
        "responding": bool(report.responding),
        "aliased": bool(report.aliased),
        "golden_signature": int(report.golden_signature),
        "measured_signature": int(report.measured_signature),
        "golden_words": [int(w) for w in report.golden_words],
        "measured_words": [int(w) for w in report.measured_words],
        "misr_width": int(report.misr.width),
    }
    floats = {
        "frequency_hz": [float(f) for f in report.frequencies],
    }
    return exact, floats


def scenario_channels(result: ScenarioResult) -> tuple[Channel, Channel]:
    """Channels of a :class:`~repro.scenarios.result.ScenarioResult`.

    Nested one level by step name — the step results already carry the
    two-channel split, so the scenario form simply indexes them.
    """
    exact = {step.name: step.exact for step in result.steps}
    floats = {step.name: step.floats for step in result.steps}
    return exact, floats
