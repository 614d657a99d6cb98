"""Non-finite amplifier noise and offset are refused, naming the field.

NaN compares false with everything, so a ``< 0`` check lets it through:
a NaN analyzer noise used to compile to a noise-free analyzer (the
compiler tests ``> 0``), and an infinite one failed late with unrelated
errors.  ``AnalyzerSettings`` and ``OpAmpModel`` check finiteness first;
``dc_gain`` and ``v_sat`` stay allowed to be infinite (the ideal
amplifier).
"""

import json

import pytest

from repro.api import ExecutionPolicy, Session
from repro.errors import ConfigError
from repro.scenarios.spec import AnalyzerSettings, ScenarioSpec, SweepStep
from repro.sc.opamp import OpAmpModel

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["evaluator_noise_rms", "generator_noise_rms"])
def test_analyzer_settings_reject_non_finite_noise(field, value):
    with pytest.raises(ConfigError, match=rf"analyzer: {field} must be finite"):
        AnalyzerSettings(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["noise_rms", "offset"])
def test_opamp_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=rf"{field} must be finite"):
        OpAmpModel(**{field: value})


def test_ideal_amplifier_stays_infinite():
    amp = OpAmpModel(dc_gain=float("inf"), v_sat=float("inf"))
    assert amp.inverse_gain == 0.0
    assert OpAmpModel(offset=-2e-3, noise_rms=0.0).offset == -2e-3


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_session_refuses_a_non_finite_noisy_scenario(backend, literal):
    """A wire spec with a NaN or infinite evaluator noise never runs."""
    spec = ScenarioSpec(
        name="noisy",
        steps=(SweepStep(name="sweep", n_points=2),),
        analyzer=AnalyzerSettings(m_periods=4, evaluator_noise_rms=1e-4),
    )
    payload = json.loads(spec.to_json())
    payload["analyzer"]["evaluator_noise_rms"] = "@"
    text = json.dumps(payload).replace('"@"', literal)
    with Session(policy=ExecutionPolicy(backend=backend)) as session:
        with pytest.raises(ConfigError, match="evaluator_noise_rms must be finite"):
            session.run_scenario(ScenarioSpec.from_json(text))
