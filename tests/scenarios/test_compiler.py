"""Scenario compiler: lowering semantics and result structure."""

import pytest

from repro.api import Session
from repro.engine import CalibrationCache
from repro.errors import ConfigError
from repro.scenarios import (
    AnalyzerSettings,
    CoverageStep,
    DiagnoseStep,
    Drift,
    DriftReport,
    ScenarioResult,
    ScenarioSpec,
    StepResult,
    SweepStep,
    YieldStep,
    compile_scenario,
    diff,
    run_scenario,
)

SMALL = AnalyzerSettings(m_periods=20)


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="unit",
        analyzer=SMALL,
        steps=(SweepStep(name="bode", f_start=500.0, f_stop=2000.0, n_points=3),),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestCompile:
    def test_compile_runs_no_measurement(self, monkeypatch):
        """Compilation is the cheap phase: no calibration is acquired."""

        def explode(*args, **kwargs):  # pragma: no cover - must not fire
            raise AssertionError("compile phase acquired a calibration")

        monkeypatch.setattr(CalibrationCache, "get_or_acquire", explode)
        compiled = compile_scenario(small_spec())  # must not measure
        assert compiled.n_jobs == 3
        monkeypatch.undo()
        run_scenario(small_spec())  # ...while running of course does

    def test_job_accounting(self):
        spec = small_spec(
            steps=(
                SweepStep(name="bode", f_start=500.0, f_stop=2000.0, n_points=5),
                YieldStep(name="lot", n_devices=7),
                CoverageStep(name="cov", deviations=(0.5,)),  # 10 faults + good
            )
        )
        compiled = compile_scenario(spec)
        assert [s.n_jobs for s in compiled.steps] == [5, 7, 11]

    def test_unknown_inject_label_is_a_compile_error(self):
        spec = small_spec(
            steps=(DiagnoseStep(name="dx", inject="r9+500%", deviations=(0.5,)),)
        )
        with pytest.raises(ConfigError, match="inject"):
            compile_scenario(spec)

    def test_more_probes_than_candidates_is_a_compile_error(self):
        spec = small_spec(
            steps=(
                DiagnoseStep(
                    name="dx", n_candidate_points=3, n_probes=5, deviations=(0.5,)
                ),
            )
        )
        with pytest.raises(ConfigError, match="n_probes"):
            compile_scenario(spec)


class TestRun:
    def test_result_structure(self):
        result = run_scenario(small_spec())
        assert result.scenario == "unit"
        assert result.backend == "reference"
        step = result.step("bode")
        assert step.kind == "sweep"
        assert len(step.exact["signature_counts"]) == 3
        assert all(len(counts) == 4 for counts in step.exact["signature_counts"])
        assert all(
            isinstance(c, int)
            for counts in step.exact["signature_counts"]
            for c in counts
        )
        assert len(step.floats["gain_db"]) == 3

    def test_missing_step_lookup_raises(self):
        result = run_scenario(small_spec())
        with pytest.raises(ConfigError, match="no step"):
            result.step("nope")

    def test_calibration_shared_across_steps(self):
        """Steps at the same (config, fwave, M) pay one calibration."""
        spec = small_spec(
            steps=(
                SweepStep(name="a", f_start=500.0, f_stop=2000.0, n_points=3),
                SweepStep(name="b", f_start=500.0, f_stop=2000.0, n_points=3),
            )
        )
        with Session() as session:
            run_scenario(spec, session=session)
        assert session.cache.misses == 1
        assert session.cache.hits >= 1

    def test_spec_backend_honored_and_recorded(self):
        result = run_scenario(small_spec(backend="vectorized"))
        assert result.backend == "vectorized"

    def test_backend_override(self):
        result = run_scenario(small_spec(), backend="vectorized")
        assert result.backend == "vectorized"

    def test_dut_q_reaches_the_yield_step(self):
        """The yield lot must be built from the spec's DUT, q included."""
        from repro.scenarios import DUTSpec

        steps = (YieldStep(name="lot", n_devices=5, component_sigma=0.05),)
        butterworth = run_scenario(small_spec(steps=steps))
        peaky = run_scenario(
            small_spec(steps=steps, dut=DUTSpec(cutoff=1000.0, q=2.5))
        )
        assert butterworth.step("lot") != peaky.step("lot")

    def test_seed_changes_yield_lot(self):
        steps = (YieldStep(name="lot", n_devices=6, component_sigma=0.08),)
        a = run_scenario(small_spec(steps=steps, seed=1))
        b = run_scenario(small_spec(steps=steps, seed=2))
        c = run_scenario(small_spec(steps=steps, seed=1))
        assert a.step("lot") == c.step("lot")  # same seed, same lot
        assert a.step("lot").exact["truly_good"] != b.step("lot").exact["truly_good"]


class TestDiff:
    def base(self) -> ScenarioResult:
        return ScenarioResult(
            scenario="d",
            backend="reference",
            steps=(
                StepResult(
                    "sweep",
                    "bode",
                    {"signature_counts": [[1, 2, 3, 4]]},
                    {"gain_db": [-3.0], "test_yield": 0.5},
                ),
            ),
        )

    def replace_step(self, result, **changes) -> ScenarioResult:
        step = result.steps[0]
        fields = dict(
            kind=step.kind, name=step.name, exact=step.exact, floats=step.floats
        )
        fields.update(changes)
        return ScenarioResult(
            scenario=result.scenario,
            backend=result.backend,
            steps=(StepResult(**fields),),
        )

    def test_identical_results_no_drift(self):
        report = diff(self.base(), self.base())
        assert report.ok
        assert "baseline OK" in report.report()

    def test_exact_drift_names_step_and_field(self):
        perturbed = self.replace_step(
            self.base(), exact={"signature_counts": [[1, 2, 3, 5]]}
        )
        report = diff(self.base(), perturbed)
        assert not report.ok
        assert report.drifts[0].step == "bode"
        assert report.drifts[0].field == "signature_counts"
        assert "'bode'" in report.report()
        assert "signature_counts" in report.report()

    def test_float_within_tolerance_is_clean(self):
        perturbed = self.replace_step(
            self.base(), floats={"gain_db": [-3.0 * (1 + 1e-12)], "test_yield": 0.5}
        )
        assert diff(self.base(), perturbed).ok

    def test_float_beyond_tolerance_drifts(self):
        perturbed = self.replace_step(
            self.base(), floats={"gain_db": [-3.001], "test_yield": 0.5}
        )
        report = diff(self.base(), perturbed)
        assert not report.ok
        assert report.drifts[0].field == "gain_db"
        assert "tolerance" in report.drifts[0].detail

    def test_missing_step_drifts(self):
        other = ScenarioResult(
            scenario="d",
            backend="reference",
            steps=(StepResult("yield", "lot", {}, {"test_yield": 1.0}),),
        )
        report = diff(self.base(), other)
        assert not report.ok
        assert any(d.field == "steps" for d in report.drifts)

    def test_non_finite_floats_rejected_in_results(self):
        with pytest.raises(ConfigError, match="non-finite"):
            StepResult("sweep", "bode", {}, {"gain_db": [float("nan")]})

    def test_drift_str_names_both(self):
        drift = Drift("lot", "test_yield", "recorded 0.5, replayed 0.25")
        assert "lot" in str(drift) and "test_yield" in str(drift)

    def test_report_counts_drifts(self):
        report = DriftReport(
            "d", (Drift("a", "x", "boom"), Drift("b", "y", "bang"))
        )
        assert "2 drift(s)" in report.report()
