"""The scenario compiler: lower declarative specs onto the session layer.

Compilation and execution are deliberately separate phases:

* :func:`compile_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
  into a :class:`CompiledScenario` — device built, analyzer
  configurations derived, fault catalogs enumerated, spec masks and
  go/no-go programs constructed, sweep grids planned.  No measurement
  runs; compile errors (an ``inject`` label missing from the catalog, a
  sweep collapsing after band clamping) surface before any simulation
  time is spent.
* :meth:`CompiledScenario.run` executes the compiled steps in order on
  one shared :class:`~repro.api.session.Session` — every step becomes a
  call on the session's uniform workload surface (``sweep``,
  ``yield_lot``, ``fault_coverage``, ``distortion``, ``diagnose``,
  ``dynamic_range``), so the whole scenario shares a single
  :class:`~repro.engine.cache.CalibrationCache` and one
  :class:`~repro.engine.runner.BatchRunner`, and ``backend=`` /
  ``n_workers=`` select the execution strategy without changing the
  numbers (the engine's equivalence contract).

Step results reuse the session layer's channelization
(:mod:`repro.api.channels`) verbatim, which is what makes a scenario
replayed through :meth:`repro.api.session.Session.run_scenario`
byte-identical to one recorded before the session layer existed.  The
result is a canonical :class:`~repro.scenarios.result.ScenarioResult`
ready for golden-baseline recording (:mod:`repro.scenarios.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..api.policy import ExecutionPolicy
from ..api.session import Session
from ..bist.limits import SpecMask
from ..bist.program import BISTProgram
from ..core.config import AnalyzerConfig
from ..core.sweep import FrequencySweepPlan
from ..dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from ..dut.faults import fault_catalog, full_catalog
from ..dut.nonlinear import WienerDUT, polynomial_for_distortion
from ..errors import ConfigError
from ..faults.campaign import FaultCampaign
from ..faults.dictionary import NOMINAL_LABEL
from ..prbist.campaign import PseudorandomPlan, derive_lfsr_seed
from ..prbist.lfsr import LFSRConfig
from ..prbist.misr import MISRConfig
from ..sc.opamp import OpAmpModel
from .result import ScenarioResult, StepResult
from .spec import (
    CoverageStep,
    DiagnoseStep,
    DistortionStep,
    DynamicRangeStep,
    PseudorandomStep,
    ScenarioSpec,
    SignatureCheckStep,
    SweepStep,
    YieldStep,
)


def base_config(spec: ScenarioSpec) -> AnalyzerConfig:
    """The scenario's analyzer configuration.

    Evaluator and generator noise (when enabled) are seeded from the
    scenario seed, so noisy scenarios replay exactly — and every
    combination stays vectorized-backend eligible: a noisy generator
    renders as a batched per-device stimulus there (see
    :mod:`repro.engine.vectorized`).
    """
    settings = spec.analyzer
    noisy = settings.evaluator_noise_rms > 0 or settings.generator_noise_rms > 0
    return AnalyzerConfig.ideal(
        m_periods=settings.m_periods,
        stimulus_amplitude=settings.stimulus_amplitude,
        evaluator_opamp=(
            OpAmpModel(noise_rms=settings.evaluator_noise_rms)
            if settings.evaluator_noise_rms > 0
            else None
        ),
        generator_opamp=(
            OpAmpModel(noise_rms=settings.generator_noise_rms)
            if settings.generator_noise_rms > 0
            else None
        ),
        noise_seed=spec.seed if noisy else None,
    )


def _signed_deviations(magnitudes) -> list[float]:
    return sorted({sign * d for d in magnitudes for sign in (-1.0, 1.0)})


def _catalog(magnitudes, catastrophic: bool):
    deviations = _signed_deviations(magnitudes)
    return full_catalog(deviations) if catastrophic else fault_catalog(deviations)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


@dataclass(frozen=True)
class CompiledStep:
    """One lowered step: its spec, workload size, and executor."""

    step: object
    n_jobs: int  # engine jobs this step dispatches (the workload size)
    execute: Callable[[Session], StepResult]


class CompiledScenario:
    """A scenario lowered onto the session layer, ready to run."""

    def __init__(
        self, spec: ScenarioSpec, config: AnalyzerConfig, steps: tuple[CompiledStep, ...]
    ) -> None:
        self.spec = spec
        self.config = config
        self.steps = steps

    @property
    def n_jobs(self) -> int:
        """Total engine jobs the scenario dispatches."""
        return sum(s.n_jobs for s in self.steps)

    def run(
        self,
        backend: str | None = None,
        n_workers: int | None = None,
        session: Session | None = None,
        obs=None,
        chunk_size: int | None = None,
    ) -> ScenarioResult:
        """Execute every step in order on one shared session.

        ``backend``, ``n_workers`` and ``chunk_size`` override the
        spec's defaults; pass an existing ``session`` to also share its
        calibration cache and worker pool across scenarios (the
        overrides are then ignored in favour of the session's own
        policy).  ``obs`` threads a trace recorder
        through the one-shot session (see :mod:`repro.obs`); an adopted
        session already brings its own recorder.
        """
        if session is not None:
            if obs is not None:
                raise ConfigError(
                    "pass either session= or obs=, not both: an adopted "
                    "session brings its own trace recorder"
                )
            return self._run_on(session)
        policy = ExecutionPolicy(
            backend=backend if backend is not None else self.spec.backend,
            n_workers=n_workers if n_workers is not None else self.spec.n_workers,
            seed=self.spec.seed,
            chunk_size=(
                chunk_size if chunk_size is not None else self.spec.chunk_size
            ),
        )
        with Session(policy=policy, obs=obs) as shared:
            return self._run_on(shared)

    def _run_on(self, session: Session) -> ScenarioResult:
        obs = session.obs
        with obs.span(
            f"scenario:{self.spec.name}",
            kind="scenario",
            exact={"n_steps": len(self.steps)},
        ):
            results = []
            for compiled in self.steps:
                # The span is named by the *step*, not its headline:
                # step names are path-stable identifiers (trace diffs
                # report by span path), so the human-readable headline
                # rides along as an exact attribute instead.
                with obs.span(
                    compiled.step.name,
                    kind="scenario.step",
                    exact={
                        "step_kind": compiled.step.kind,
                        "n_jobs": compiled.n_jobs,
                    },
                ) as span:
                    result = compiled.execute(session)
                    span.annotate(headline=result.headline())
                results.append(result)
        return ScenarioResult(
            scenario=self.spec.name,
            backend=session.runner.backend,
            steps=tuple(results),
        )


def run_scenario(
    spec: ScenarioSpec,
    backend: str | None = None,
    n_workers: int | None = None,
    session: Session | None = None,
    obs=None,
    chunk_size: int | None = None,
) -> ScenarioResult:
    """Compile and execute a scenario in one call."""
    return compile_scenario(spec).run(
        backend=backend,
        n_workers=n_workers,
        session=session,
        obs=obs,
        chunk_size=chunk_size,
    )


# ----------------------------------------------------------------------
# Per-kind lowering
# ----------------------------------------------------------------------

def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Lower a spec into session-ready steps (no simulation runs here)."""
    config = base_config(spec)
    dut = ActiveRCLowpass.from_specs(cutoff=spec.dut.cutoff, q=spec.dut.q)
    lowered = []
    for step in spec.steps:
        compiler = _STEP_COMPILERS[step.kind]
        lowered.append(compiler(spec, step, dut, config))
    return CompiledScenario(spec, config, tuple(lowered))


def _step_result(step, result) -> StepResult:
    """A session result reshaped as this step's canonical record."""
    return StepResult(step.kind, step.name, result.exact, result.floats)


def _step_config(config: AnalyzerConfig, step) -> tuple[AnalyzerConfig, int]:
    m = step.m_periods if step.m_periods is not None else config.m_periods
    return config.with_m_periods(m), m


def _compile_sweep(spec, step: SweepStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    plan = FrequencySweepPlan(step.f_start, step.f_stop, step.n_points)
    frequencies = _floats(plan.frequencies())

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.sweep(
                frequencies, m_periods=m, dut=dut, config=config, name=step.name
            ),
        )

    return CompiledStep(step, n_jobs=step.n_points, execute=execute)


def _compile_yield(spec, step: YieldStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    nominal = design_mfb_lowpass(spec.dut.cutoff, q=spec.dut.q)
    golden = ActiveRCLowpass(nominal)
    frequencies = [spec.dut.cutoff * r for r in step.frequency_ratios]
    mask = SpecMask.from_golden(golden, frequencies, tolerance_db=step.tolerance_db)
    program = BISTProgram(mask, frequencies, m_periods=m)

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.yield_lot(
                nominal,
                mask,
                program,
                n_devices=step.n_devices,
                component_sigma=step.component_sigma,
                ambiguous_passes=step.ambiguous_passes,
                seed=spec.seed,
                config=config,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=step.n_devices, execute=execute)


def _compile_coverage(spec, step: CoverageStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    catalog = _catalog(step.deviations, step.catastrophic)
    frequencies = [spec.dut.cutoff * r for r in step.frequency_ratios]
    mask = SpecMask.from_golden(dut, frequencies, tolerance_db=step.tolerance_db)
    program = BISTProgram(mask, frequencies, m_periods=m)

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.fault_coverage(
                catalog, program, dut=dut, config=config, name=step.name
            ),
        )

    return CompiledStep(step, n_jobs=len(catalog) + 1, execute=execute)


def _compile_distortion(spec, step: DistortionStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    config = config.with_amplitude(step.amplitude)
    # The polynomial is a property of the device: tuned once, at the
    # first requested operating point (same convention as the CLI).
    level = step.amplitude * dut.gain_at(step.fwaves[0])
    wiener = WienerDUT(
        dut, polynomial_for_distortion(level, step.hd2_dbc, step.hd3_dbc)
    )

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.distortion(
                step.fwaves,
                harmonics=step.harmonics,
                m_periods=m,
                dut=wiener,
                config=config,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=len(step.fwaves), execute=execute)


def _compile_diagnose(spec, step: DiagnoseStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    catalog = _catalog(step.deviations, step.catastrophic)
    by_label = {f.label: f for f in catalog}
    if step.inject != NOMINAL_LABEL and step.inject not in by_label:
        raise ConfigError(
            f"step {step.name!r}: inject {step.inject!r} is not in the "
            f"catalog; choose from {sorted(by_label)} or {NOMINAL_LABEL!r}"
        )
    if step.n_probes > step.n_candidate_points:
        raise ConfigError(
            f"step {step.name!r}: n_probes {step.n_probes} exceeds "
            f"n_candidate_points {step.n_candidate_points}"
        )
    plan = FrequencySweepPlan.around(
        spec.dut.cutoff, decades=step.decades, n_points=step.n_candidate_points
    )
    campaign = FaultCampaign(dut, catalog, plan, config=config, m_periods=m)
    device = (
        dut if step.inject == NOMINAL_LABEL else by_label[step.inject].apply(dut)
    )

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.diagnose(
                campaign=campaign,
                device=device,
                inject=step.inject,
                n_probes=step.n_probes,
                top_n=step.top_n,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=len(catalog) + 2, execute=execute)


def _prbist_plan(spec, step) -> tuple[PseudorandomPlan, MISRConfig]:
    """The step's stimulus plan and signature register.

    The LFSR seed derives from the *scenario* seed (mapped onto the
    non-zero state range), so the pattern sequence — like the yield
    lot's component draws — is a function of the spec alone.
    """
    lfsr = LFSRConfig(
        width=step.lfsr_width,
        form=step.lfsr_form,
        seed=derive_lfsr_seed(spec.seed, step.lfsr_width),
    )
    plan = PseudorandomPlan(
        lfsr, n_patterns=step.n_patterns, f_lo=step.f_lo, f_hi=step.f_hi
    )
    return plan, MISRConfig(width=step.misr_width)


def _compile_pseudorandom(spec, step: PseudorandomStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    catalog = _catalog(step.deviations, step.catastrophic)
    plan, misr = _prbist_plan(spec, step)

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.pseudorandom_coverage(
                catalog,
                plan,
                misr=misr,
                dut=dut,
                config=config,
                m_periods=m,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=len(catalog) + 1, execute=execute)


def _compile_signature_check(spec, step: SignatureCheckStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)
    catalog = _catalog(step.deviations, step.catastrophic)
    by_label = {f.label: f for f in catalog}
    if step.inject != NOMINAL_LABEL and step.inject not in by_label:
        raise ConfigError(
            f"step {step.name!r}: inject {step.inject!r} is not in the "
            f"catalog; choose from {sorted(by_label)} or {NOMINAL_LABEL!r}"
        )
    plan, misr = _prbist_plan(spec, step)
    device = (
        dut if step.inject == NOMINAL_LABEL else by_label[step.inject].apply(dut)
    )

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.signature_check(
                device,
                plan,
                misr=misr,
                inject=step.inject,
                dut=dut,
                config=config,
                m_periods=m,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=2, execute=execute)


def _compile_dynamic_range(spec, step: DynamicRangeStep, dut, config) -> CompiledStep:
    config, m = _step_config(config, step)

    def execute(session: Session) -> StepResult:
        return _step_result(
            step,
            session.dynamic_range(
                m_periods=m,
                levels_dbc=step.levels_dbc,
                threshold_db=step.threshold_db,
                harmonic=step.harmonic,
                name=step.name,
            ),
        )

    return CompiledStep(step, n_jobs=len(step.levels_dbc), execute=execute)


_STEP_COMPILERS = {
    SweepStep.kind: _compile_sweep,
    YieldStep.kind: _compile_yield,
    CoverageStep.kind: _compile_coverage,
    DistortionStep.kind: _compile_distortion,
    DiagnoseStep.kind: _compile_diagnose,
    DynamicRangeStep.kind: _compile_dynamic_range,
    PseudorandomStep.kind: _compile_pseudorandom,
    SignatureCheckStep.kind: _compile_signature_check,
}
