"""The session facade: one instrument, one policy, every workload.

The paper's analyzer is a single instrument retuned by one master clock;
a :class:`Session` is its software counterpart.  It owns exactly one of
each execution resource —

* a DUT and an :class:`~repro.core.config.AnalyzerConfig`,
* one shared :class:`~repro.engine.cache.CalibrationCache` (the paper's
  "this calibration only needs to be performed once" economy),
* one :class:`~repro.engine.runner.BatchRunner` configured by one
  validated :class:`~repro.api.policy.ExecutionPolicy` —

and exposes every workload as a uniform method surface::

    from repro.api import ExecutionPolicy, Session
    from repro.dut import ActiveRCLowpass

    session = Session(
        ActiveRCLowpass.from_specs(cutoff=1000.0),
        policy=ExecutionPolicy(backend="vectorized"),
    )
    bode = session.bode([250.0, 1000.0, 4000.0])
    lot = session.yield_lot(nominal, mask, program, n_devices=50)
    scenario = session.run_scenario(spec)

Every method returns a :class:`~repro.api.result.SessionResult` (the
common :class:`~repro.api.result.Result` protocol): exact/float channel
split, uniform ``to_json()``/``to_csv()`` export, cache/backend stats
attached, and the untouched domain object on ``.raw``.

A session is the only place execution is chosen.  The plain entry
points (``NetworkAnalyzer.bode``, ``bist.run_yield_analysis``,
``bist.coverage.fault_coverage``, ``FaultCampaign.run`` without
``session=``) take no execution kwargs: each runs on a default
``Session()`` — serial, reference backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.config import AnalyzerConfig
from ..engine.cache import CalibrationCache
from ..engine.runner import BatchRunner
from ..errors import ConfigError
from ..obs.metrics import MetricRegistry
from ..obs.recorder import default_recorder
from . import channels
from .policy import ExecutionPolicy, Recorder, policy_for_runner
from .result import DiagnosisOutcome, SessionResult, SessionStats

if TYPE_CHECKING:
    from ..bist.limits import SpecMask
    from ..bist.program import BISTProgram
    from ..core.calibration import CalibrationResult
    from ..dut.base import DUT
    from ..dut.faults import Fault
    from ..faults.campaign import FaultCampaign
    from ..obs.recorder import Span, _NullSpan
    from ..prbist.campaign import PseudorandomPlan
    from ..prbist.misr import MISRConfig
    from ..scenarios.spec import ScenarioSpec


class Session:
    """Uniform front end to every analyzer workload.

    Parameters
    ----------
    dut:
        Default device under test for DUT-bound workloads; individual
        calls may override it with ``dut=``.
    config:
        Default analyzer configuration (the ideal setup when omitted);
        individual calls may override it with ``config=``.
    policy:
        The execution policy (defaults to serial reference execution).
    cache:
        Calibration cache to adopt; a fresh one bounded by
        ``policy.cache_max_entries`` is created when omitted.
    runner:
        An existing :class:`~repro.engine.runner.BatchRunner` to adopt —
        its backend, worker count and cache then *are* the session's
        (the policy's execution fields are ignored in its favour).
    obs:
        Trace recorder (see :mod:`repro.obs`).  Defaults to the
        process-wide default recorder — the shared zero-cost
        ``NullRecorder`` unless a harness installed one.  An adopted
        runner's recorder is used when ``obs`` is omitted; passing one
        explicitly re-points the adopted runner (and its cache) so the
        whole session records into a single trace.
    """

    def __init__(
        self,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        policy: ExecutionPolicy | None = None,
        *,
        cache: CalibrationCache | None = None,
        runner: BatchRunner | None = None,
        obs: Recorder | None = None,
    ) -> None:
        if policy is None:
            policy = ExecutionPolicy()
        if runner is not None:
            if cache is not None:
                raise ConfigError(
                    "pass either runner= or cache=, not both: an adopted "
                    "runner brings its own calibration cache"
                )
            if obs is not None:
                runner.obs = obs
                runner.cache.obs = obs
            self.obs = runner.obs
            self.runner = runner
            self.cache = runner.cache
            self.metrics = runner.metrics
            self.policy = policy_for_runner(runner, seed=policy.seed)
            self._owns_runner = False
        else:
            self.obs = obs if obs is not None else default_recorder()
            self.metrics = MetricRegistry()
            if cache is not None:
                # The recorded policy must describe the resources
                # actually in use — an adopted cache brings its bound.
                policy = policy.replace(cache_max_entries=cache.max_entries)
                self.cache = cache
                if obs is not None:
                    cache.obs = self.obs
            else:
                self.cache = policy.build_cache(
                    obs=self.obs, metrics=self.metrics
                )
            # Passing obs= explicitly makes the runner re-point the
            # cache's recorder; an adopted cache keeps its own unless
            # the caller asked for that.
            self.runner = policy.build_runner(
                cache=self.cache,
                obs=obs if cache is not None else self.obs,
                metrics=self.metrics,
            )
            self.policy = policy
            self._owns_runner = True
        self.obs.attach_metrics(self.metrics)
        self.obs.attach_metrics(self.cache.metrics)
        self.dut = dut
        self.config = config if config is not None else AnalyzerConfig.ideal()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (adopted runners are left alone)."""
        if self._owns_runner:
            self.runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Defaults and accounting
    # ------------------------------------------------------------------
    def _dut(self, override: DUT | None) -> DUT:
        dut = override if override is not None else self.dut
        if dut is None:
            raise ConfigError(
                "this workload needs a DUT; pass dut=... to the call or "
                "construct Session(dut=...)"
            )
        return dut

    def _config(self, override: AnalyzerConfig | None) -> AnalyzerConfig:
        return override if override is not None else self.config

    def _counters(self) -> tuple[int, int, int]:
        return self.cache.hits, self.cache.misses, self.runner.fallbacks

    def _span(self, workload: str, name: str) -> "Span | _NullSpan":
        """The per-workload-call trace span (``session.<workload>``)."""
        return self.obs.span(
            f"session.{workload}", kind="session", exact={"name": name}
        )

    def _result(
        self,
        workload: str,
        name: str,
        channel_pair: tuple[dict, dict],
        raw: object,
        counters: tuple[int, int, int],
        backend: str | None = None,
    ) -> SessionResult:
        if backend is None:
            last = self.runner.last_stats
            backend = last.backend if last is not None else self.runner.backend
        exact, floats = channel_pair
        stats = SessionStats(
            backend=backend,
            n_workers=self.runner.n_workers,
            cache_hits=self.cache.hits - counters[0],
            cache_misses=self.cache.misses - counters[1],
            fallbacks=self.runner.fallbacks - counters[2],
        )
        return SessionResult(
            workload=workload,
            name=name,
            exact=exact,
            floats=floats,
            policy=self.policy,
            stats=stats,
            raw=raw,
        )

    # ------------------------------------------------------------------
    # Frequency sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        frequencies: Iterable[float],
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
        calibration_fwave: float | None = None,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        name: str = "sweep",
    ) -> SessionResult:
        """A gain/phase sweep in the caller's frequency order.

        ``raw`` is the list of
        :class:`~repro.core.measurement.GainPhaseMeasurement` points.
        """
        frequencies = [float(f) for f in frequencies]
        counters = self._counters()
        with self._span("sweep", name):
            measurements = self.runner.run_sweep(
                self._dut(dut),
                self._config(config),
                frequencies,
                m_periods=m_periods,
                calibration=calibration,
                calibration_fwave=calibration_fwave,
            )
            return self._result(
                "sweep",
                name,
                channels.sweep_channels(frequencies, measurements),
                measurements,
                counters,
            )

    def bode(
        self,
        frequencies: Iterable[float],
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
        calibration_fwave: float | None = None,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        name: str = "bode",
    ) -> SessionResult:
        """A sweep on an ascending grid; ``raw`` is a ``BodeResult``."""
        import dataclasses

        from ..core.bode import BodeResult

        frequencies = sorted(float(f) for f in frequencies)
        with self._span("bode", name):
            result = self.sweep(
                frequencies,
                m_periods=m_periods,
                calibration=calibration,
                calibration_fwave=calibration_fwave,
                dut=dut,
                config=config,
                name=name,
            )
            return dataclasses.replace(
                result, workload="bode", raw=BodeResult(tuple(result.raw))
            )

    # ------------------------------------------------------------------
    # Monte-Carlo yield lots
    # ------------------------------------------------------------------
    def yield_lot(
        self,
        nominal: DUT,
        mask: SpecMask,
        program: BISTProgram,
        n_devices: int = 50,
        component_sigma: float = 0.02,
        ambiguous_passes: bool = False,
        seed: int | None = None,
        config: AnalyzerConfig | None = None,
        name: str = "yield",
    ) -> SessionResult:
        """A production lot through a BIST program; ``raw`` is a
        :class:`~repro.bist.montecarlo.YieldReport`.

        The lot seed defaults to the session policy's seed, so recording
        and replaying a session always simulates the same devices.
        """
        from ..bist.montecarlo import YieldReport

        counters = self._counters()
        with self._span("yield", name):
            trials = self.runner.run_trials(
                nominal,
                mask,
                program,
                n_devices=n_devices,
                component_sigma=component_sigma,
                seed=self.policy.seed if seed is None else seed,
                config=self._config(config),
            )
            report = YieldReport.from_trials(trials, ambiguous_passes)
            return self._result(
                "yield", name, channels.yield_channels(report), report, counters
            )

    # ------------------------------------------------------------------
    # Fault coverage
    # ------------------------------------------------------------------
    def fault_coverage(
        self,
        faults: Iterable[Fault],
        program: BISTProgram,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        name: str = "coverage",
    ) -> SessionResult:
        """A BIST program's coverage of a fault catalog; ``raw`` is a
        :class:`~repro.bist.coverage.CoverageReport`.

        The good device is measured first (one job, on the calibration
        the campaign will reuse) and must not fail — a mis-centred mask
        is raised before the catalog is paid for.
        """
        from ..bist.coverage import (
            CoverageReport,
            FaultTrial,
            signature_report,
        )
        from ..faults.campaign import FaultCampaign, measure_signature

        faults = list(faults)
        if not faults:
            raise ConfigError("fault list is empty")
        good_dut = self._dut(dut)
        config = self._config(config)
        counters = self._counters()
        frequencies = list(dict.fromkeys(program.frequencies))

        with self._span("coverage", name):
            good_signature = measure_signature(
                good_dut,
                frequencies,
                config=config,
                m_periods=program.m_periods,
                session=self,
            )
            good_report = signature_report(good_signature, program)
            if good_report.verdict == "fail":
                raise ConfigError(
                    "the known-good DUT fails the program; mask and DUT are "
                    "inconsistent"
                )

            campaign = FaultCampaign(
                good_dut,
                faults,
                frequencies,
                config=config,
                m_periods=program.m_periods,
            )
            dictionary = campaign.run(session=self, nominal=good_signature)

            trials = []
            for fault in faults:
                report = signature_report(
                    dictionary.entry(fault.label), program
                )
                trials.append(
                    FaultTrial(
                        fault=fault,
                        verdict=report.verdict,
                        detected=report.verdict in ("fail", "ambiguous"),
                    )
                )
            coverage = CoverageReport(
                trials=tuple(trials), good_verdict=good_report.verdict
            )
            return self._result(
                "coverage",
                name,
                channels.coverage_channels(coverage),
                coverage,
                counters,
            )

    # ------------------------------------------------------------------
    # Pseudorandom BIST
    # ------------------------------------------------------------------
    def pseudorandom_coverage(
        self,
        faults: Iterable[Fault],
        plan: PseudorandomPlan,
        misr: MISRConfig | None = None,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        m_periods: int | None = None,
        name: str = "pseudorandom",
    ) -> SessionResult:
        """A pseudorandom-stimulus fault campaign with MISR compaction;
        ``raw`` is a :class:`~repro.prbist.campaign.PrbistCoverageReport`.

        The golden device is measured first (job index 0, on the
        calibration the whole campaign reuses), then every catalog
        fault; each device's quantized response words fold into an
        n-bit MISR signature compared exactly against golden.  The
        per-fault verdicts and signatures live on the exact channel —
        bit-identical across backends and worker counts.
        """
        from ..prbist.campaign import (
            PrbistCoverageReport,
            PrbistFaultTrial,
            PseudorandomPlan,
            campaign_attrs,
        )
        from ..prbist.misr import MISRConfig

        if not isinstance(plan, PseudorandomPlan):
            raise ConfigError(
                f"pseudorandom_coverage: plan must be a PseudorandomPlan, "
                f"got {plan!r}"
            )
        if misr is None:
            misr = MISRConfig()
        faults = list(faults)
        if not faults:
            raise ConfigError("fault list is empty")
        good_dut = self._dut(dut)
        config = self._config(config)
        counters = self._counters()
        frequencies = plan.frequencies()
        duts = [good_dut] + [fault.apply(good_dut) for fault in faults]
        with self._span("pseudorandom", name):
            with self.obs.span(
                "prbist.campaign",
                kind="campaign",
                exact=campaign_attrs(plan, misr, len(duts)),
            ):
                trials = self.runner.run_pseudorandom_trials(
                    duts,
                    config,
                    frequencies,
                    misr,
                    m_periods=m_periods,
                )
            golden = trials[0]
            fault_trials = tuple(
                PrbistFaultTrial(
                    label=fault.label,
                    responding=trial.words != golden.words,
                    detected=trial.signature != golden.signature,
                    signature=trial.signature,
                )
                for fault, trial in zip(faults, trials[1:])
            )
            report = PrbistCoverageReport(
                plan=plan,
                misr=misr,
                frequencies=frequencies,
                golden_words=golden.words,
                golden_signature=golden.signature,
                trials=fault_trials,
            )
            return self._result(
                "pseudorandom",
                name,
                channels.prbist_coverage_channels(report),
                report,
                counters,
            )

    def signature_check(
        self,
        device: DUT | None = None,
        plan: PseudorandomPlan | None = None,
        misr: MISRConfig | None = None,
        inject: str = "nominal",
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        m_periods: int | None = None,
        name: str = "signature_check",
    ) -> SessionResult:
        """One device's go/no-go MISR signature comparison; ``raw`` is a
        :class:`~repro.prbist.campaign.SignatureCheckReport`.

        The golden device and the device under check are measured as one
        two-job batch (golden first), and their signatures compared
        exactly.  ``device`` defaults to the golden DUT itself — the
        all-pass sanity check; ``inject`` is a label recorded in the
        report (the scenario compiler passes the catalog fault it
        applied).
        """
        from ..prbist.campaign import (
            PseudorandomPlan,
            SignatureCheckReport,
            campaign_attrs,
        )
        from ..prbist.misr import MISRConfig

        if not isinstance(plan, PseudorandomPlan):
            raise ConfigError(
                f"signature_check: plan must be a PseudorandomPlan, "
                f"got {plan!r}"
            )
        if misr is None:
            misr = MISRConfig()
        good_dut = self._dut(dut)
        if device is None:
            device = good_dut
        config = self._config(config)
        counters = self._counters()
        frequencies = plan.frequencies()
        with self._span("signature_check", name):
            with self.obs.span(
                "prbist.campaign",
                kind="campaign",
                exact=campaign_attrs(plan, misr, 2),
            ):
                golden, measured = self.runner.run_pseudorandom_trials(
                    [good_dut, device],
                    config,
                    frequencies,
                    misr,
                    m_periods=m_periods,
                )
            report = SignatureCheckReport(
                inject=inject,
                misr=misr,
                frequencies=frequencies,
                golden_words=golden.words,
                golden_signature=golden.signature,
                measured_words=measured.words,
                measured_signature=measured.signature,
            )
            return self._result(
                "signature_check",
                name,
                channels.signature_check_channels(report),
                report,
                counters,
            )

    # ------------------------------------------------------------------
    # Harmonic distortion
    # ------------------------------------------------------------------
    def distortion(
        self,
        fwaves: Iterable[float],
        harmonics: tuple[int, ...] = (2, 3),
        m_periods: int = 400,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        name: str = "distortion",
    ) -> SessionResult:
        """One Fig. 10c distortion experiment per stimulus frequency;
        ``raw`` is the list of distortion reports."""
        counters = self._counters()
        with self._span("distortion", name):
            reports = self.runner.run_distortion(
                self._dut(dut),
                self._config(config),
                fwaves,
                harmonics=tuple(harmonics),
                m_periods=m_periods,
            )
            return self._result(
                "distortion",
                name,
                channels.distortion_channels(reports),
                reports,
                counters,
            )

    # ------------------------------------------------------------------
    # Dictionary diagnosis
    # ------------------------------------------------------------------
    def diagnose(
        self,
        catalog: Iterable[Fault] | None = None,
        frequencies: Iterable[float] | None = None,
        inject: str = "nominal",
        n_probes: int = 3,
        top_n: int = 5,
        m_periods: int | None = None,
        dut: DUT | None = None,
        config: AnalyzerConfig | None = None,
        campaign: FaultCampaign | None = None,
        device: DUT | None = None,
        name: str = "diagnose",
    ) -> SessionResult:
        """Build a dictionary, compact it, measure and rank; ``raw`` is a
        :class:`~repro.api.result.DiagnosisOutcome`.

        ``inject`` names the catalog fault applied to the device under
        diagnosis (``"nominal"`` for the fault-free device); pass a
        pre-built ``campaign`` (and optionally ``device``) to skip the
        catalog/frequency plumbing — the scenario compiler does.
        """
        from ..faults import diagnose as run_diagnosis
        from ..faults import select_probe_frequencies
        from ..faults.campaign import FaultCampaign, measure_signature
        from ..faults.dictionary import NOMINAL_LABEL

        if campaign is not None:
            conflicting = [
                kwarg
                for kwarg, value in (
                    ("catalog", catalog),
                    ("frequencies", frequencies),
                    ("m_periods", m_periods),
                    ("dut", dut),
                    ("config", config),
                )
                if value is not None
            ]
            if conflicting:
                raise ConfigError(
                    f"diagnose: campaign= already fixes "
                    f"{', '.join(conflicting)}; pass either a pre-built "
                    f"campaign or the catalog/frequency kwargs, not both"
                )
        else:
            if catalog is None or frequencies is None:
                raise ConfigError(
                    "diagnose needs either a pre-built campaign or both "
                    "catalog= and frequencies="
                )
            campaign = FaultCampaign(
                self._dut(dut),
                catalog,
                frequencies,
                config=self._config(config),
                m_periods=m_periods,
            )
        if device is None:
            if inject == NOMINAL_LABEL:
                device = campaign.good_dut
            else:
                by_label = {f.label: f for f in campaign.faults}
                if inject not in by_label:
                    raise ConfigError(
                        f"inject {inject!r} is not in the catalog; choose "
                        f"from {sorted(by_label)} or {NOMINAL_LABEL!r}"
                    )
                device = by_label[inject].apply(campaign.good_dut)

        counters = self._counters()
        with self._span("diagnose", name):
            dictionary = campaign.run(session=self)
            probes = select_probe_frequencies(dictionary, n_probes)
            production = dictionary.restrict(probes)
            signature = measure_signature(
                device,
                probes,
                config=campaign.config,
                m_periods=campaign.m_periods,
                label=inject,
                session=self,
            )
            diagnosis = run_diagnosis(signature, production, top_n=top_n)
            outcome = DiagnosisOutcome(
                dictionary=dictionary,
                probes=tuple(float(f) for f in probes),
                production=production,
                signature=signature,
                diagnosis=diagnosis,
            )
            return self._result(
                "diagnose",
                name,
                channels.diagnose_channels(diagnosis, probes, inject),
                outcome,
                counters,
            )

    # ------------------------------------------------------------------
    # Dynamic range
    # ------------------------------------------------------------------
    def dynamic_range(
        self,
        m_periods: int = 1000,
        carrier_amplitude: float = 0.4,
        vref: float = 0.5,
        harmonic: int = 3,
        levels_dbc: Sequence[float] = (
            -30.0, -40.0, -50.0, -60.0, -70.0, -80.0, -90.0,
        ),
        threshold_db: float = 3.0,
        name: str = "dynamic_range",
    ) -> SessionResult:
        """Weak-tone detectability of the evaluator (Fig. 9 style);
        ``raw`` is a :class:`~repro.core.dynamic_range.DynamicRangeResult`.

        The probes are synthetic and deterministic — no DUT, no
        calibration — so only the session's worker pool is involved.
        """
        from ..core.dynamic_range import evaluator_dynamic_range

        counters = self._counters()
        with self._span("dynamic_range", name):
            result = evaluator_dynamic_range(
                m_periods=m_periods,
                carrier_amplitude=carrier_amplitude,
                vref=vref,
                harmonic=harmonic,
                levels_dbc=levels_dbc,
                threshold_db=threshold_db,
                runner=self.runner,
            )
            return self._result(
                "dynamic_range",
                name,
                channels.dynamic_range_channels(result),
                result,
                counters,
                backend="reference",  # probe jobs have no vectorized form
            )

    # ------------------------------------------------------------------
    # Whole scenarios
    # ------------------------------------------------------------------
    def run_scenario(self, spec: ScenarioSpec) -> SessionResult:
        """Compile and execute a scenario on this session's resources.

        The spec's own ``backend``/``n_workers`` defaults are ignored in
        favour of the session's policy (exactly the engine's equivalence
        contract: the numbers do not depend on the execution strategy).
        ``raw`` is the :class:`~repro.scenarios.result.ScenarioResult`
        the golden-baseline harness records and checks.
        """
        from ..scenarios.compiler import compile_scenario

        counters = self._counters()
        with self._span("scenario", spec.name):
            result = compile_scenario(spec).run(session=self)
            return self._result(
                "scenario",
                spec.name,
                channels.scenario_channels(result),
                result,
                counters,
            )
