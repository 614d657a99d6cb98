"""Non-finite numbers are refused at the yield edges, naming the field.

NaN compares false with everything, so range checks alone let it
through, and ``json.loads`` accepts ``NaN`` and ``Infinity`` literals, so
such values can arrive over the wire.  The scenario step, the runner and
the component draw each check finiteness first.
"""

import json

import numpy as np
import pytest

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.errors import ConfigError
from repro.scenarios.spec import YieldStep

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["component_sigma", "tolerance_db", "frequency_ratios"])
def test_yield_step_rejects_non_finite(field, value):
    kwargs = {field: (1.0, value) if field == "frequency_ratios" else value}
    with pytest.raises(ConfigError, match=rf"step 'lot': {field} must be finite"):
        YieldStep(name="lot", **kwargs)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_wire_literals_reach_the_check(literal):
    """What ``json.loads`` lets through still stops at the step."""
    fields = json.loads(f'{{"name": "lot", "component_sigma": {literal}}}')
    with pytest.raises(ConfigError, match="component_sigma must be finite"):
        YieldStep(**fields)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_session_yield_lot_rejects_non_finite_sigma(backend, value):
    nominal = design_mfb_lowpass(1000.0)
    frequencies = [300.0, 1000.0]
    mask = SpecMask.from_golden(ActiveRCLowpass(nominal), frequencies, tolerance_db=2.0)
    program = BISTProgram(mask, frequencies, m_periods=4)
    with Session(
        config=AnalyzerConfig.ideal(m_periods=4),
        policy=ExecutionPolicy(backend=backend),
    ) as session:
        with pytest.raises(ConfigError, match="component_sigma must be finite"):
            session.yield_lot(
                nominal, mask, program, n_devices=3, component_sigma=value
            )


def test_finite_step_still_accepted():
    step = YieldStep(name="lot", component_sigma=0.0, frequency_ratios=(np.float64(0.5),))
    assert step.frequency_ratios == (0.5,)
