"""Monte-Carlo yield analysis."""

import dataclasses

import pytest

from repro.bist.limits import SpecMask
from repro.bist.montecarlo import YieldReport, run_yield_analysis
from repro.bist.program import BISTProgram
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.errors import ConfigError

FREQS = [300.0, 1000.0, 2000.0]


@pytest.fixture(scope="module")
def setup():
    nominal = design_mfb_lowpass(1000.0)
    golden = ActiveRCLowpass(nominal)
    mask = SpecMask.from_golden(golden, FREQS, tolerance_db=2.0)
    program = BISTProgram(mask, FREQS, m_periods=40)
    return nominal, mask, program


class TestYield:
    def test_tight_lot_all_pass(self, setup):
        nominal, mask, program = setup
        report = run_yield_analysis(
            nominal, mask, program, n_devices=8, component_sigma=0.002, seed=1
        )
        assert report.test_yield == 1.0
        assert report.true_yield == 1.0
        assert report.escape_rate == 0.0

    def test_loose_lot_loses_yield(self, setup):
        nominal, mask, program = setup
        tight = run_yield_analysis(
            nominal, mask, program, n_devices=12, component_sigma=0.002, seed=2
        )
        loose = run_yield_analysis(
            nominal, mask, program, n_devices=12, component_sigma=0.08, seed=2
        )
        assert loose.test_yield < tight.test_yield

    def test_verdicts_track_truth(self, setup):
        """With a competent test, escapes + overkill stay a small
        fraction of the lot even at meaningful spread."""
        nominal, mask, program = setup
        report = run_yield_analysis(
            nominal, mask, program, n_devices=16, component_sigma=0.03, seed=3
        )
        assert report.escape_rate + report.overkill_rate <= 0.25

    def test_ambiguous_policy(self, setup):
        nominal, mask, program = setup
        strict = run_yield_analysis(
            nominal, mask, program, n_devices=10, component_sigma=0.04,
            seed=4, ambiguous_passes=False,
        )
        lenient = dataclasses.replace(strict, ambiguous_passes=True)
        assert lenient.test_yield >= strict.test_yield

    def test_reproducible(self, setup):
        nominal, mask, program = setup
        a = run_yield_analysis(nominal, mask, program, n_devices=5,
                               component_sigma=0.02, seed=7)
        b = run_yield_analysis(nominal, mask, program, n_devices=5,
                               component_sigma=0.02, seed=7)
        assert [t.verdict for t in a.trials] == [t.verdict for t in b.trials]

    def test_validation(self, setup):
        nominal, mask, program = setup
        with pytest.raises(ConfigError):
            run_yield_analysis(nominal, mask, program, n_devices=0)
        with pytest.raises(ConfigError):
            run_yield_analysis(nominal, mask, program, component_sigma=-0.1)


class TestReportArithmetic:
    def test_empty_report(self):
        report = YieldReport(verdicts=(), truly_good=(), ambiguous_passes=False)
        assert report.test_yield == 0.0
        assert report.escape_rate == 0.0
        assert report.ambiguous_rate == 0.0


class TestReportColumns:
    def test_trials_are_derived_from_the_columns(self):
        report = YieldReport(
            verdicts=("pass", "ambiguous", "fail"),
            truly_good=(True, False, True),
            ambiguous_passes=True,
        )
        assert [(t.device_index, t.verdict, t.truly_good) for t in report.trials] == [
            (0, "pass", True), (1, "ambiguous", False), (2, "fail", True)
        ]
        pairs = [("pass", True), ("ambiguous", False), ("fail", True)]
        assert YieldReport.from_trials(pairs, True) == report
        assert report.n_devices == 3
        assert report.test_yield == 2 / 3
        assert report.escape_rate == 1 / 3
        assert report.overkill_rate == 1 / 3
        assert report.ambiguous_rate == 1 / 3


def lot_session(backend):
    from repro.api import ExecutionPolicy, Session
    from repro.core.config import AnalyzerConfig

    return Session(
        config=AnalyzerConfig.ideal(m_periods=4),
        policy=ExecutionPolicy(backend=backend),
    )


class TestLotCount:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("n_devices", [2.5, True, 3.0, 0], ids=repr)
    def test_non_count_is_refused_by_name(self, setup, backend, n_devices):
        nominal, mask, program = setup
        with lot_session(backend) as session:
            with pytest.raises(ConfigError, match="n_devices must be an integer"):
                session.yield_lot(nominal, mask, program, n_devices=n_devices)


#: Bytes a finished lot's result may keep alive per device: its exact
#: channel's verdict and truly-good lists and the report's two columns
#: are four pointers (32 bytes) per device.  Per-device trial objects
#: kept about 150.
RETAINED_BYTES_PER_DEVICE = 48


def test_lot_result_retains_columns_not_objects(setup):
    import gc
    import tracemalloc

    nominal, mask, _ = setup
    program = BISTProgram(mask, [1000.0], m_periods=4)
    n = 3000
    with lot_session("vectorized") as session:
        session.yield_lot(nominal, mask, program, n_devices=8, seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = session.yield_lot(nominal, mask, program, n_devices=n, seed=2)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert result.raw.n_devices == n
    assert retained / n < RETAINED_BYTES_PER_DEVICE, retained / n
