"""repro.api — the unified session layer over every workload.

Every workload — the analyzer's Bode sweep, the BIST layer's yield lots
and fault coverage, the fault subsystem's campaigns and the scenario
layer's compiled runs — executes through this package, the one place
that decides workers, backend and calibration caching:

* :class:`~repro.api.policy.ExecutionPolicy` — backend, worker count,
  seed and cache bound, validated once and round-trippable through
  canonical JSON;
* :class:`~repro.api.session.Session` — one DUT + analyzer config + one
  shared calibration cache + one batch runner, exposing ``bode``,
  ``sweep``, ``yield_lot``, ``fault_coverage``,
  ``pseudorandom_coverage``, ``signature_check``, ``diagnose``,
  ``distortion``, ``dynamic_range`` and ``run_scenario`` as a uniform
  method surface;
* :class:`~repro.api.result.Result` /
  :class:`~repro.api.result.SessionResult` — the common result
  protocol: exact/float channel split, uniform ``to_json()``/
  ``to_csv()``, cache/backend stats, raw domain object attached.

The plain entry points (``NetworkAnalyzer.bode``,
``run_yield_analysis``, ``fault_coverage``, ``FaultCampaign.run``) take
no execution kwargs and run on a default ``Session()``; the public
surface is pinned by the snapshot under
``tests/baselines/api_surface.json``.  See ``DESIGN.md``
("the api layer") for where policy, seeding and calibration-reuse
decisions now live.
"""

from .channels import (
    coverage_channels,
    diagnose_channels,
    distortion_channels,
    dynamic_range_channels,
    prbist_coverage_channels,
    scenario_channels,
    signature_check_channels,
    sweep_channels,
    yield_channels,
)
from .policy import (
    POLICY_FORMAT,
    POLICY_VERSION,
    ExecutionPolicy,
    policy_for_runner,
    policy_from_payload,
    policy_to_payload,
)
from .result import (
    RESULT_FORMAT,
    RESULT_VERSION,
    DiagnosisOutcome,
    Result,
    SessionResult,
    SessionStats,
)
from .session import Session

__all__ = [
    "DiagnosisOutcome",
    "ExecutionPolicy",
    "POLICY_FORMAT",
    "POLICY_VERSION",
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "Result",
    "Session",
    "SessionResult",
    "SessionStats",
    "coverage_channels",
    "diagnose_channels",
    "distortion_channels",
    "dynamic_range_channels",
    "policy_for_runner",
    "policy_from_payload",
    "policy_to_payload",
    "prbist_coverage_channels",
    "scenario_channels",
    "signature_check_channels",
    "sweep_channels",
    "yield_channels",
]
