"""Calibration cache: reuse, invalidation, accounting, concurrency."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.analyzer import NetworkAnalyzer
from repro.core.config import AnalyzerConfig
from repro.dut.base import PassthroughDUT
from repro.engine.cache import CalibrationCache, acquire_calibration
from repro.errors import ConfigError


@pytest.fixture
def cache():
    return CalibrationCache()


CFG = AnalyzerConfig.ideal(m_periods=20)


class TestReuse:
    def test_first_lookup_is_a_miss(self, cache):
        cache.get_or_acquire(CFG, 1000.0)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1

    def test_second_lookup_is_a_hit(self, cache):
        first = cache.get_or_acquire(CFG, 1000.0)
        second = cache.get_or_acquire(CFG, 1000.0)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_equal_config_objects_share_an_entry(self, cache):
        """Keying is by config *value*, not identity: a re-built equal
        config must hit."""
        cache.get_or_acquire(AnalyzerConfig.ideal(m_periods=20), 1000.0)
        cache.get_or_acquire(AnalyzerConfig.ideal(m_periods=20), 1000.0)
        assert cache.hits == 1

    def test_matches_direct_calibration(self, cache):
        """The cached result is the same calibration a NetworkAnalyzer
        acquires itself (the cache is transparent)."""
        cached = cache.get_or_acquire(CFG, 1000.0)
        an = NetworkAnalyzer(PassthroughDUT(), CFG)
        direct = an.calibrate(1000.0)
        assert cached.amplitude.value == direct.amplitude.value
        assert cached.phase.value == direct.phase.value


class TestInvalidation:
    def test_changed_amplitude_misses(self, cache):
        cache.get_or_acquire(CFG, 1000.0)
        cache.get_or_acquire(CFG.with_amplitude(0.2), 1000.0)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_changed_window_misses(self, cache):
        cache.get_or_acquire(CFG, 1000.0)
        cache.get_or_acquire(CFG, 1000.0, m_periods=40)
        assert cache.misses == 2

    def test_changed_frequency_misses(self, cache):
        cache.get_or_acquire(CFG, 1000.0)
        cache.get_or_acquire(CFG, 2000.0)
        assert cache.misses == 2

    def test_changed_die_misses(self, cache):
        cache.get_or_acquire(AnalyzerConfig.typical(seed=1, m_periods=20), 1000.0)
        cache.get_or_acquire(AnalyzerConfig.typical(seed=2, m_periods=20), 1000.0)
        assert cache.misses == 2

    def test_clear(self, cache):
        cache.get_or_acquire(CFG, 1000.0)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_bad_frequency_rejected(self, cache):
        with pytest.raises(ConfigError):
            cache.get_or_acquire(CFG, -5.0)


class TestConcurrentAccess:
    """A fault campaign's dispatchers may share one cache across
    threads; hit/miss accounting must stay exact."""

    N_THREADS = 8
    LOOKUPS_PER_THREAD = 5

    def test_shared_entry_accounting_is_exact(self, cache):
        """Many concurrent lookups of one key: exactly one miss (the
        single acquisition), everything else hits, and every lookup is
        accounted once."""
        total = self.N_THREADS * self.LOOKUPS_PER_THREAD

        def worker(_):
            results = []
            for _ in range(self.LOOKUPS_PER_THREAD):
                results.append(cache.get_or_acquire(CFG, 1000.0))
            return results

        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            all_results = [
                r for chunk in pool.map(worker, range(self.N_THREADS))
                for r in chunk
            ]

        assert len(cache) == 1
        assert cache.misses == 1
        assert cache.hits == total - 1
        assert cache.hits + cache.misses == total
        # Every thread got the very same calibration object.
        assert all(r is all_results[0] for r in all_results)

    def test_distinct_keys_account_one_miss_each(self, cache):
        frequencies = [500.0, 1000.0, 2000.0, 4000.0]

        def worker(f):
            for _ in range(self.LOOKUPS_PER_THREAD):
                cache.get_or_acquire(CFG, f)

        with ThreadPoolExecutor(max_workers=len(frequencies)) as pool:
            list(pool.map(worker, frequencies * 2))

        assert len(cache) == len(frequencies)
        assert cache.misses == len(frequencies)
        lookups = 2 * len(frequencies) * self.LOOKUPS_PER_THREAD
        assert cache.hits + cache.misses == lookups

    def test_campaign_jobs_sharing_one_entry(self, cache):
        """The satellite scenario end to end: a fault campaign's jobs all
        lean on one cached calibration while campaigns run concurrently
        on threads sharing the cache."""
        from repro.api import Session
        from repro.dut.active_rc import ActiveRCLowpass
        from repro.dut.faults import fault_catalog
        from repro.faults import FaultCampaign

        dut = ActiveRCLowpass.from_specs(1000.0)
        campaign = FaultCampaign(
            dut, fault_catalog(deviations=(0.5,)), (500.0, 2000.0), m_periods=10
        )

        def run_campaign(_):
            with Session(cache=cache) as session:
                return campaign.run(session=session)

        n_campaigns = 4
        with ThreadPoolExecutor(max_workers=n_campaigns) as pool:
            dictionaries = list(pool.map(run_campaign, range(n_campaigns)))

        # One acquisition total; one accounted lookup per campaign.
        assert cache.misses == 1
        assert cache.hits == n_campaigns - 1
        # And the shared entry changes nothing about the results.
        assert all(d == dictionaries[0] for d in dictionaries)


class TestAcquireCalibration:
    def test_noisy_calibration_is_reproducible(self):
        cfg = AnalyzerConfig.typical(seed=4, m_periods=20)
        a = acquire_calibration(cfg, 1000.0, 20)
        b = acquire_calibration(cfg, 1000.0, 20)
        assert a.amplitude.value == b.amplitude.value
        assert a.phase.value == b.phase.value


class TestBoundedGrowth:
    """Long multi-configuration campaigns must not grow memory without
    limit: the cache is an LRU bounded at ``max_entries``."""

    def test_capacity_is_enforced(self):
        cache = CalibrationCache(max_entries=3)
        for f in (500.0, 1000.0, 2000.0, 4000.0, 8000.0):
            cache.get_or_acquire(CFG, f)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.misses == 5

    def test_least_recently_used_is_evicted(self):
        cache = CalibrationCache(max_entries=2)
        first = cache.get_or_acquire(CFG, 500.0)
        cache.get_or_acquire(CFG, 1000.0)
        # Refresh 500 Hz: 1000 Hz becomes the LRU entry.
        assert cache.get_or_acquire(CFG, 500.0) is first
        cache.get_or_acquire(CFG, 2000.0)  # evicts 1000 Hz
        assert cache.evictions == 1
        # 500 Hz survived the eviction...
        assert cache.get_or_acquire(CFG, 500.0) is first
        assert cache.misses == 3
        # ...and 1000 Hz re-acquires (a fresh miss), evicting again.
        cache.get_or_acquire(CFG, 1000.0)
        assert cache.misses == 4
        assert cache.evictions == 2

    def test_accounting_stays_exact_under_eviction(self):
        cache = CalibrationCache(max_entries=1)
        lookups = 0
        for _ in range(3):
            for f in (500.0, 1000.0):
                cache.get_or_acquire(CFG, f)
                lookups += 1
        # Thrashing: every lookup re-acquires, all accounted.
        assert cache.hits + cache.misses == lookups
        assert cache.misses == lookups
        assert cache.evictions == lookups - 1
        assert len(cache) == 1

    def test_clear_resets_eviction_count(self):
        cache = CalibrationCache(max_entries=1)
        cache.get_or_acquire(CFG, 500.0)
        cache.get_or_acquire(CFG, 1000.0)
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationCache(max_entries=0)
        with pytest.raises(ConfigError):
            CalibrationCache(max_entries=2.5)

    def test_concurrent_lookups_with_tiny_capacity_stay_exact(self):
        """Thread-safety under eviction pressure: every lookup is
        accounted exactly once even while entries churn."""
        cache = CalibrationCache(max_entries=2)
        frequencies = [500.0, 1000.0, 2000.0, 4000.0]
        per_thread = 5

        def worker(f):
            for _ in range(per_thread):
                cache.get_or_acquire(CFG, f)

        with ThreadPoolExecutor(max_workers=len(frequencies)) as pool:
            list(pool.map(worker, frequencies * 2))

        lookups = 2 * len(frequencies) * per_thread
        assert cache.hits + cache.misses == lookups
        assert len(cache) <= 2
        # Evictions follow insertions: every miss beyond the first two
        # live entries displaced something.
        assert cache.evictions == cache.misses - len(cache)
