"""Fault-coverage evaluation of a BIST program."""

import pytest

from repro.api import ExecutionPolicy, Session
from repro.bist.coverage import fault_coverage
from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass
from repro.dut.faults import ParametricFault
from repro.errors import ConfigError

FREQS = [300.0, 1000.0, 2000.0]


@pytest.fixture(scope="module")
def setup():
    golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
    mask = SpecMask.from_golden(golden, FREQS, tolerance_db=2.0)
    program = BISTProgram(mask, FREQS, m_periods=40)
    return golden, program


class TestCoverage:
    def test_gross_faults_covered(self, setup):
        golden, program = setup
        faults = [
            ParametricFault("c2", 0.5),
            ParametricFault("c2", -0.5),
            ParametricFault("r3", 0.5),
            ParametricFault("r2", 0.5),
        ]
        report = fault_coverage(golden, faults, program)
        assert report.coverage >= 0.75
        assert report.good_verdict in ("pass", "ambiguous")

    def test_tiny_faults_escape(self, setup):
        """A 1 % component shift barely moves the response: expected to
        escape a +/-1 dB mask — coverage is a function of fault size."""
        golden, program = setup
        faults = [ParametricFault("c1", 0.01)]
        report = fault_coverage(golden, faults, program)
        assert report.coverage == 0.0
        assert len(report.escapes) == 1

    def test_flagged_includes_ambiguous(self, setup):
        golden, program = setup
        faults = [ParametricFault("c2", 0.5)]
        report = fault_coverage(golden, faults, program)
        assert report.flagged >= report.coverage


class TestEngineExecution:
    """fault_coverage is a thin wrapper over a FaultCampaign."""

    def test_parallel_matches_serial(self, setup):
        golden, program = setup
        faults = [
            ParametricFault("c2", 0.5),
            ParametricFault("r3", 0.5),
            ParametricFault("r2", -0.5),
            ParametricFault("c1", 0.3),
        ]
        serial = fault_coverage(golden, faults, program)
        with Session(golden, policy=ExecutionPolicy(n_workers=2)) as session:
            parallel = session.fault_coverage(faults, program).raw
        assert serial == parallel  # every trial's bounds, not just verdicts

    def test_calibration_paid_once_for_the_catalog(self, setup):
        golden, program = setup
        faults = [ParametricFault("c2", 0.5), ParametricFault("r3", 0.5)]
        with Session(golden) as session:
            session.fault_coverage(faults, program)
        assert session.cache.misses == 1
        # The fail-fast good-device measurement is adopted by the
        # campaign: the catalog batch holds exactly one job per fault.
        assert session.runner.last_stats.n_jobs == len(faults)

    def test_program_with_repeated_frequency_still_works(self):
        """A program may list a frequency twice; the campaign measures
        it once and scores it at every program position."""
        golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
        mask = SpecMask.from_golden(golden, [1000.0, 2000.0], tolerance_db=2.0)
        program = BISTProgram(
            mask, [1000.0, 2000.0, 1000.0], m_periods=20
        )
        report = fault_coverage(golden, [ParametricFault("c2", 0.5)], program)
        assert report.good_verdict in ("pass", "ambiguous")
        assert len(report.trials) == 1

    def test_miscentred_mask_fails_fast(self):
        """The good-device check raises before the catalog is measured."""
        golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
        wrong = ActiveRCLowpass.from_specs(cutoff=300.0)
        mask = SpecMask.from_golden(wrong, [1000.0], tolerance_db=0.5)
        program = BISTProgram(mask, [1000.0], m_periods=20)
        with Session(golden) as session:
            with pytest.raises(ConfigError, match="inconsistent"):
                session.fault_coverage([ParametricFault("c1", 0.2)], program)
        # Only the good device was dispatched, not the catalog.
        assert session.runner.last_stats.n_jobs == 1

    def test_catastrophic_faults_all_detected(self, setup):
        """Shorts and opens are gross: a +/-2 dB mask must fail every
        one of them outright."""
        from repro.dut.faults import catastrophic_catalog

        golden, program = setup
        report = fault_coverage(golden, catastrophic_catalog(), program)
        assert report.coverage == 1.0


class TestValidation:
    def test_empty_faults(self, setup):
        golden, program = setup
        with pytest.raises(ConfigError):
            fault_coverage(golden, [], program)

    def test_inconsistent_mask_detected(self):
        golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
        wrong_golden = ActiveRCLowpass.from_specs(cutoff=300.0)
        mask = SpecMask.from_golden(wrong_golden, [1000.0], tolerance_db=0.5)
        program = BISTProgram(mask, [1000.0], m_periods=20)
        with pytest.raises(ConfigError, match="inconsistent"):
            fault_coverage(golden, [ParametricFault("c1", 0.2)], program)
