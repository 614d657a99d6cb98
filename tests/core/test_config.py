"""Analyzer configuration validation and factories."""

import math

import pytest

from repro.core.config import AnalyzerConfig
from repro.errors import ConfigError
from repro.reporting.export import scenario_from_json, scenario_to_json
from repro.scenarios import ScenarioSpec, SweepStep, compile_scenario
from repro.sc.mismatch import MismatchModel


class TestValidation:
    def test_defaults_valid(self):
        cfg = AnalyzerConfig()
        assert cfg.m_periods == 200  # the paper's Fig. 10 window

    def test_odd_m_with_chopping_rejected(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig(m_periods=201)

    def test_odd_m_without_chopping_allowed(self):
        cfg = AnalyzerConfig(m_periods=201, chopped=False)
        assert cfg.m_periods == 201

    def test_stimulus_must_fit_modulator_range(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig(stimulus_amplitude=0.6, vref=0.5)

    def test_bad_vref(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig(vref=0.0)

    def test_bad_settle(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig(generator_settle_periods=-1)
        with pytest.raises(ConfigError):
            AnalyzerConfig(dut_settle_tolerance=1.0)

    def test_bad_budget_gain(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig(image_budget_gain=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "vref",
            "sd_gain",
            "epsilon",
            "stimulus_amplitude",
            "dut_settle_tolerance",
            "evaluator_offset2",
            "image_budget_gain",
        ],
    )
    def test_non_finite_numbers_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            AnalyzerConfig.ideal(**{field: value})

    def test_non_finite_spec_value_rejected_by_name(self):
        text = scenario_to_json(
            ScenarioSpec(name="nan", steps=(SweepStep(name="bode"),))
        ).replace('"stimulus_amplitude": 0.3', '"stimulus_amplitude": NaN')
        assert "NaN" in text
        with pytest.raises(ConfigError, match="stimulus_amplitude"):
            compile_scenario(scenario_from_json(text))


class TestFactories:
    def test_ideal_has_no_nonidealities(self):
        cfg = AnalyzerConfig.ideal()
        assert cfg.generator_opamp is None
        assert cfg.mismatch is None
        assert cfg.noise_seed is None

    def test_typical_has_everything(self):
        cfg = AnalyzerConfig.typical(seed=7)
        assert cfg.generator_opamp is not None
        assert isinstance(cfg.mismatch, MismatchModel)
        assert cfg.mismatch.seed == 7
        assert cfg.noise_seed == 7
        assert cfg.random_modulator_state

    def test_typical_overrides(self):
        cfg = AnalyzerConfig.typical(m_periods=50)
        assert cfg.m_periods == 50


class TestCopies:
    def test_with_m_periods(self):
        cfg = AnalyzerConfig().with_m_periods(400)
        assert cfg.m_periods == 400

    def test_with_amplitude(self):
        cfg = AnalyzerConfig().with_amplitude(0.1)
        assert cfg.stimulus_amplitude == 0.1

    def test_copies_are_validated(self):
        with pytest.raises(ConfigError):
            AnalyzerConfig().with_m_periods(13)

    def test_frozen(self):
        with pytest.raises(Exception):
            AnalyzerConfig().m_periods = 5
