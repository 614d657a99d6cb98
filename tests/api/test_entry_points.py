"""One way in: the plain entry points are a default ``Session`` and nothing more.

``NetworkAnalyzer.bode``, ``bist.run_yield_analysis``,
``bist.coverage.fault_coverage``, ``FaultCampaign.run``,
``faults.measure_signature`` and ``evaluator_dynamic_range`` each run on
a plain ``Session()`` (serial, reference backend).  Two contracts are
pinned here:

* a plain call is bit-identical to the same workload on an explicit
  default ``Session`` — integer counts *and* float intervals — under a
  noisy evaluator, so the per-job seeding (the part that could silently
  diverge between paths) is exercised;
* the execution kwargs the entry points used to carry (``n_workers=``/
  ``backend=``/``runner=`` on the workloads, ``runner=``/``cache=`` on
  the scenario layer) stay gone, and none is swallowed through
  ``**kwargs``: resources are shared through ``Session`` alone.
"""

import inspect

import pytest

import repro.api
import repro.bist
from repro.api import Session
from repro.bist.coverage import fault_coverage
from repro.bist.limits import SpecMask
from repro.bist.montecarlo import run_yield_analysis
from repro.bist.program import BISTProgram
from repro.core.analyzer import NetworkAnalyzer
from repro.core.config import AnalyzerConfig
from repro.core.dynamic_range import evaluator_dynamic_range
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog
from repro.faults.campaign import FaultCampaign, measure_signature
from repro.reporting.export import dictionary_to_json
from repro.sc.opamp import OpAmpModel
from repro.scenarios import baseline
from repro.scenarios.compiler import CompiledScenario, run_scenario

#: Noisy evaluator, fixed seed: deterministic but seeding-sensitive.
NOISY = AnalyzerConfig.ideal(
    m_periods=20,
    evaluator_opamp=OpAmpModel(noise_rms=100e-6),
    noise_seed=7,
)

FREQUENCIES = [500.0, 2000.0, 1000.0]


@pytest.fixture
def golden():
    return ActiveRCLowpass.from_specs(cutoff=1000.0)


def _program(golden):
    frequencies = [300.0, 1000.0, 2000.0]
    mask = SpecMask.from_golden(golden, frequencies, tolerance_db=2.0)
    return BISTProgram(mask, frequencies, m_periods=20)


class TestPlainCallEqualsDefaultSession:
    def test_bode(self, golden):
        analyzer = NetworkAnalyzer(golden, NOISY)
        cal = analyzer.calibrate(fwave=1000.0)
        plain = analyzer.bode(FREQUENCIES)
        with Session(golden, NOISY) as session:
            explicit = session.sweep(FREQUENCIES, calibration=cal).raw
        assert plain == explicit  # full dataclass equality

    def test_run_yield_analysis(self):
        nominal = design_mfb_lowpass(1000.0)
        program = _program(ActiveRCLowpass(nominal))
        plain = run_yield_analysis(
            nominal, program.mask, program,
            n_devices=5, component_sigma=0.05, seed=3, config=NOISY,
        )
        with Session(config=NOISY) as session:
            explicit = session.yield_lot(
                nominal, program.mask, program,
                n_devices=5, component_sigma=0.05, seed=3,
            ).raw
        assert plain == explicit

    def test_fault_coverage(self, golden):
        program = _program(golden)
        catalog = fault_catalog([-0.5, 0.5])
        plain = fault_coverage(golden, catalog, program, config=NOISY)
        with Session(golden, NOISY) as session:
            explicit = session.fault_coverage(catalog, program).raw
        assert plain == explicit

    def test_fault_campaign(self, golden):
        campaign = FaultCampaign(
            golden, fault_catalog([-0.5, 0.5]), FREQUENCIES,
            config=NOISY, m_periods=20,
        )
        plain = campaign.run()
        with Session() as session:
            explicit = campaign.run(session=session)
        # Serialized form pins every interval byte of every signature.
        assert dictionary_to_json(plain) == dictionary_to_json(explicit)

    def test_measure_signature(self, golden):
        plain = measure_signature(golden, FREQUENCIES, config=NOISY, m_periods=20)
        with Session() as session:
            explicit = measure_signature(
                golden, FREQUENCIES, config=NOISY, m_periods=20,
                session=session,
            )
        assert plain == explicit

    def test_evaluator_dynamic_range(self):
        plain = evaluator_dynamic_range(m_periods=10, levels_dbc=(-30.0, -60.0))
        with Session() as session:
            explicit = session.dynamic_range(
                m_periods=10, levels_dbc=(-30.0, -60.0)
            ).raw
        assert plain == explicit


#: Every entry point with the execution kwargs it no longer takes.
REMOVED_KWARGS = [
    pytest.param(NetworkAnalyzer.bode, ("n_workers", "backend"), id="bode"),
    pytest.param(
        run_yield_analysis, ("n_workers", "runner", "backend"),
        id="run_yield_analysis",
    ),
    pytest.param(
        fault_coverage, ("n_workers", "runner", "backend"),
        id="fault_coverage",
    ),
    pytest.param(
        FaultCampaign.run, ("n_workers", "runner", "backend"),
        id="FaultCampaign.run",
    ),
    pytest.param(
        measure_signature, ("runner", "backend"), id="measure_signature"
    ),
    pytest.param(
        evaluator_dynamic_range, ("n_workers", "backend"),
        id="evaluator_dynamic_range",
    ),
    pytest.param(CompiledScenario.run, ("runner", "cache"), id="CompiledScenario.run"),
    pytest.param(run_scenario, ("runner", "cache"), id="run_scenario"),
    pytest.param(baseline.record, ("runner", "cache"), id="baseline.record"),
    pytest.param(baseline.check, ("runner", "cache"), id="baseline.check"),
]


@pytest.mark.parametrize("entry_point, removed", REMOVED_KWARGS)
def test_entry_point_takes_no_execution_kwarg_of_its_own(entry_point, removed):
    parameters = inspect.signature(entry_point).parameters
    assert not set(removed) & set(parameters)
    assert all(
        p.kind is not inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def test_legacy_session_left_the_api():
    assert not hasattr(repro.api, "legacy_session")
    assert "legacy_session" not in repro.api.__all__


def test_yield_analysis_wrapper_left_bist():
    import repro.bist.montecarlo

    assert not hasattr(repro.bist.montecarlo, "yield_analysis")
    assert not hasattr(repro.bist, "yield_analysis")
    assert "yield_analysis" not in getattr(repro.bist, "__all__", ())
