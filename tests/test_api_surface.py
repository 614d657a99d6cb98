"""Public API surface: the names README and examples rely on."""

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_core_entry_points(self):
        for name in (
            "NetworkAnalyzer",
            "AnalyzerConfig",
            "CalibrationResult",
            "BodeResult",
            "FrequencySweepPlan",
            "measure_distortion",
            "measure_thd",
            "evaluator_dynamic_range",
            "system_dynamic_range",
            "BoundedValue",
        ):
            assert hasattr(repro, name), name

    def test_session_layer_exported(self):
        for name in (
            "Session",
            "ExecutionPolicy",
            "Result",
            "SessionResult",
            "SessionStats",
        ):
            assert hasattr(repro, name), name

    def test_error_hierarchy_exported(self):
        for name in (
            "ReproError",
            "ConfigError",
            "TimingError",
            "EvaluationError",
            "CalibrationError",
            "FaultError",
        ):
            assert hasattr(repro, name), name

    def test_all_is_accurate(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestSubpackageExports:
    def test_dut_catalog(self):
        from repro import dut

        for name in (
            "ActiveRCLowpass",
            "StateSpaceDUT",
            "PassthroughDUT",
            "WienerDUT",
            "polynomial_for_distortion",
            "fault_catalog",
        ):
            assert hasattr(dut, name), name

    def test_evaluator_names(self):
        from repro import evaluator

        for name in (
            "SinewaveEvaluator",
            "SignatureDSP",
            "FirstOrderSigmaDelta",
            "amplitude_error_budget",
            "periods_for_amplitude_sigma",
        ):
            assert hasattr(evaluator, name), name

    def test_generator_names(self):
        from repro import generator

        for name in (
            "SinewaveGenerator",
            "PAPER_CAPACITORS",
            "PROTOTYPE_SWITCH_NONLINEARITY",
            "multistep",
        ):
            assert hasattr(generator, name), name

    def test_bist_names(self):
        from repro import bist

        for name in ("BISTProgram", "SpecMask", "fault_coverage", "run_yield_analysis"):
            assert hasattr(bist, name), name

    def test_api_names(self):
        from repro import api

        for name in (
            "Session",
            "ExecutionPolicy",
            "Result",
            "SessionResult",
            "DiagnosisOutcome",
            "policy_to_payload",
            "sweep_channels",
        ):
            assert hasattr(api, name), name

    def test_testbench_names(self):
        from repro import testbench

        for name in ("DigitalATE", "DemonstratorBoard", "SpectrumScope"):
            assert hasattr(testbench, name), name
