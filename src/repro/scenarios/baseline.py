"""Golden-baseline record/check harness.

The regression-testing workflow the scenario layer exists for:

* :func:`record` runs a scenario and writes a canonical, self-contained
  artifact — the spec that produced it, the backend it ran on, every
  step's integer signatures (exact) and derived floats (with explicit
  tolerances).  Artifacts are byte-stable
  (:func:`repro.reporting.export.canonical_json`), so committing one
  pins the whole analyzer → evaluator → faults pipeline at a point in
  time.
* :func:`check` replays the embedded spec — on any backend, at any
  worker count — and diffs the replay against the recording
  (:func:`repro.scenarios.result.diff`).  Integer signatures must match
  bit-identically; floats must agree within the *recorded* tolerance.
  The returned report names every step and field that drifted.

``check(..., update=True)`` re-records in place after a confirmed
intentional change — the one-liner behind the CLI's
``scenarios check --update``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace

from ..errors import ConfigError
from .compiler import run_scenario
from .result import DriftReport, ScenarioResult, diff
from .spec import ScenarioSpec


def default_baseline_path(spec: ScenarioSpec, directory) -> pathlib.Path:
    """Where a scenario's baseline lives by convention: ``<name>.json``."""
    return pathlib.Path(directory) / f"{spec.name}.json"


def record(
    spec: ScenarioSpec,
    path,
    backend: str | None = None,
    n_workers: int | None = None,
    obs=None,
    chunk_size: int | None = None,
) -> ScenarioResult:
    """Run a scenario and write its golden baseline artifact.

    Tracing a recording (``obs=``, see :mod:`repro.obs`) never changes
    the artifact: span payloads live beside the run, not in it, so a
    baseline recorded with tracing enabled is byte-identical to one
    recorded without.
    """
    from ..reporting.export import baseline_to_json, write_json

    result = run_scenario(
        spec,
        backend=backend,
        n_workers=n_workers,
        obs=obs,
        chunk_size=chunk_size,
    )
    write_json(path, baseline_to_json(spec, result))
    return result


@dataclass(frozen=True)
class Baseline:
    """A loaded golden-baseline artifact: the spec plus its recording."""

    path: pathlib.Path
    spec: ScenarioSpec
    result: ScenarioResult


def load(path) -> Baseline:
    """Load a baseline artifact written by :func:`record`."""
    from ..reporting.export import baseline_from_json

    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"no baseline at {path}")
    spec, result = baseline_from_json(path.read_text())
    return Baseline(path=path, spec=spec, result=result)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one baseline replay."""

    baseline: Baseline
    replayed: ScenarioResult
    drift: DriftReport
    updated: bool = False

    @property
    def ok(self) -> bool:
        return self.drift.ok

    def report(self) -> str:
        text = self.drift.report()
        if self.updated:
            text += f"\nbaseline re-recorded at {self.baseline.path}"
        return text


def check(
    path,
    backend: str | None = None,
    n_workers: int | None = None,
    update: bool = False,
    obs=None,
    chunk_size: int | None = None,
) -> CheckReport:
    """Replay a recorded baseline and report any drift.

    The artifact is self-contained: the embedded spec is compiled and
    re-run (``backend``/``n_workers``/``chunk_size`` override the
    spec's defaults — the whole point is that the recording is valid
    for every execution strategy), and the replay is diffed against the
    recording.  With ``update=True`` a drifting baseline is re-recorded
    in place from the replay; the returned report still lists what
    changed.
    """
    from ..reporting.export import baseline_to_json, write_json

    baseline = load(path)
    replayed = run_scenario(
        baseline.spec,
        backend=backend,
        n_workers=n_workers,
        obs=obs,
        chunk_size=chunk_size,
    )
    drift = diff(baseline.result, replayed)
    updated = False
    if update and not drift.ok:
        # Keep the artifact's tolerance contract: the recording owns the
        # rel/abs tolerances (they may have been deliberately loosened),
        # only the measured channels are refreshed.
        refreshed = replace(
            replayed,
            rel_tol=baseline.result.rel_tol,
            abs_tol=baseline.result.abs_tol,
        )
        write_json(baseline.path, baseline_to_json(baseline.spec, refreshed))
        updated = True
    return CheckReport(
        baseline=baseline, replayed=replayed, drift=drift, updated=updated
    )
