"""Fault campaigns on the batch engine."""

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.config import AnalyzerConfig
from repro.core.sweep import FrequencySweepPlan
from repro.dut.active_rc import ActiveRCLowpass
from repro.dut.faults import ParametricFault, fault_catalog
from repro.errors import ConfigError
from repro.faults import NOMINAL_LABEL, FaultCampaign, measure_signature

FREQS = (300.0, 1000.0, 3000.0)
M = 20


@pytest.fixture(scope="module")
def dut():
    return ActiveRCLowpass.from_specs(1000.0)


@pytest.fixture(scope="module")
def catalog():
    return fault_catalog(deviations=(-0.5, 0.5))


def _flatten(dictionary):
    return [
        (p.gain_db.value, p.gain_db.lower, p.gain_db.upper,
         p.phase_deg.value, p.phase_deg.lower, p.phase_deg.upper)
        for sig in (dictionary.nominal, *dictionary.entries)
        for p in sig.points
    ]


class TestCampaign:
    def test_builds_dictionary_with_all_labels(self, dut, catalog):
        campaign = FaultCampaign(dut, catalog, FREQS, m_periods=M)
        dictionary = campaign.run()
        assert dictionary.labels == tuple(f.label for f in catalog)
        assert dictionary.nominal.label == NOMINAL_LABEL
        assert dictionary.frequencies == FREQS

    def test_accepts_sweep_plan(self, dut, catalog):
        plan = FrequencySweepPlan(300.0, 3000.0, 4)
        dictionary = FaultCampaign(dut, catalog, plan, m_periods=M).run()
        assert len(dictionary.frequencies) == 4

    def test_serial_vs_parallel_bit_identical(self, dut, catalog):
        """The acceptance criterion: identical numbers at any worker
        count — with a noisy config, where scheduling could bite."""
        config = AnalyzerConfig.typical(seed=7, m_periods=M)
        campaign = FaultCampaign(dut, catalog, FREQS, config=config, m_periods=M)
        serial = campaign.run()
        with Session(policy=ExecutionPolicy(n_workers=3)) as session:
            parallel = campaign.run(session=session)
        assert _flatten(serial) == _flatten(parallel)

    def test_calibration_paid_once(self, dut, catalog):
        with Session() as session:
            FaultCampaign(dut, catalog, FREQS, m_periods=M).run(session=session)
        assert session.cache.misses == 1
        stats = session.runner.last_stats
        assert stats.n_jobs == len(catalog) + 1  # catalog + nominal

    def test_precomputed_nominal_skips_its_job_and_matches(self, dut, catalog):
        """Adopting an already-measured nominal saves one job and yields
        a bit-identical dictionary (seed indices are preserved)."""
        config = AnalyzerConfig.typical(seed=7, m_periods=M)
        campaign = FaultCampaign(dut, catalog, FREQS, config=config, m_periods=M)
        full = campaign.run()
        with Session() as session:
            nominal = measure_signature(
                dut, FREQS, config=config, m_periods=M, session=session
            )
            adopted = campaign.run(nominal, session=session)
        assert session.runner.last_stats.n_jobs == len(catalog)  # no nominal job
        assert _flatten(adopted) == _flatten(full)

    def test_precomputed_nominal_on_wrong_grid_rejected(self, dut, catalog):
        campaign = FaultCampaign(dut, catalog, FREQS, m_periods=M)
        wrong = measure_signature(dut, (500.0, 2000.0), m_periods=M)
        with pytest.raises(ConfigError, match="probes"):
            campaign.run(nominal=wrong)

    def test_shared_runner_reuses_calibration_across_campaigns(self, dut, catalog):
        campaign = FaultCampaign(dut, catalog, FREQS, m_periods=M)
        with Session() as session:
            campaign.run(session=session)
            campaign.run(session=session)
        assert session.cache.misses == 1
        assert session.cache.hits >= 1


class TestValidation:
    def test_empty_catalog_rejected(self, dut):
        with pytest.raises(ConfigError, match="empty"):
            FaultCampaign(dut, [], FREQS)

    def test_duplicate_labels_rejected(self, dut):
        faults = [ParametricFault("r1", 0.2), ParametricFault("r1", 0.2)]
        with pytest.raises(ConfigError, match="duplicate"):
            FaultCampaign(dut, faults, FREQS)

    def test_empty_frequencies_rejected(self, dut, catalog):
        with pytest.raises(ConfigError, match="empty"):
            FaultCampaign(dut, catalog, [])

    def test_duplicate_frequencies_rejected(self, dut, catalog):
        with pytest.raises(ConfigError, match="distinct"):
            FaultCampaign(dut, catalog, [1000.0, 1000.0])


class TestMeasureSignature:
    def test_matches_campaign_entry_for_ideal_config(self, dut, catalog):
        """Diagnosis-time acquisition reproduces the dictionary entry
        exactly in the noise-free configuration."""
        dictionary = FaultCampaign(dut, catalog, FREQS, m_periods=M).run()
        fault = catalog[0]
        signature = measure_signature(
            fault.apply(dut), FREQS, m_periods=M, label=fault.label
        )
        entry = dictionary.entry(fault.label)
        assert signature.points == entry.points
