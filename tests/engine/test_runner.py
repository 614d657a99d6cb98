"""BatchRunner: parallel-equals-serial determinism and fallbacks."""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.montecarlo import default_yield_config, run_yield_analysis
from repro.bist.program import BISTProgram
from repro.core.analyzer import NetworkAnalyzer
from repro.core.bode import BodeResult
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.engine import BatchRunner, CalibrationCache
from repro.errors import CalibrationError, ConfigError

FREQS = [250.0, 700.0, 1000.0, 2400.0, 6000.0]


@pytest.fixture(scope="module")
def dut():
    return ActiveRCLowpass.from_specs(cutoff=1000.0)


@pytest.fixture(scope="module")
def mc_setup():
    nominal = design_mfb_lowpass(1000.0)
    golden = ActiveRCLowpass(nominal)
    frequencies = [300.0, 1000.0, 2000.0]
    mask = SpecMask.from_golden(golden, frequencies, tolerance_db=2.0)
    program = BISTProgram(mask, frequencies, m_periods=20)
    return nominal, mask, program


def _sweep_values(points):
    return [(p.fwave, p.gain.value, p.phase_rad.value) for p in points]


class TestSweepDeterminism:
    def test_parallel_equals_serial_ideal(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        serial = BatchRunner(n_workers=1).run_sweep(dut, cfg, FREQS)
        parallel = BatchRunner(n_workers=4).run_sweep(dut, cfg, FREQS)
        assert _sweep_values(serial) == _sweep_values(parallel)

    def test_parallel_equals_serial_noisy(self, dut):
        """Per-job seed derivation must make even noisy configurations
        independent of worker count (bit-identical, not just close)."""
        cfg = AnalyzerConfig.typical(seed=5, m_periods=20)
        serial = BatchRunner(n_workers=1).run_sweep(dut, cfg, FREQS)
        parallel = BatchRunner(n_workers=3).run_sweep(dut, cfg, FREQS)
        assert _sweep_values(serial) == _sweep_values(parallel)

    def test_results_in_request_order(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        shuffled = [1000.0, 250.0, 6000.0]
        points = BatchRunner(n_workers=2).run_sweep(dut, cfg, shuffled)
        assert [p.fwave for p in points] == shuffled

    def test_matches_analyzer_bode(self, dut):
        """The engine sweep and the serial NetworkAnalyzer.bode wrapper
        are the same measurement."""
        cfg = AnalyzerConfig.ideal(m_periods=20)
        an = NetworkAnalyzer(dut, cfg)
        cal = an.calibrate(FREQS[0])
        direct = an.bode(FREQS)
        engine = BatchRunner().run_sweep(dut, cfg, FREQS, calibration=cal)
        assert _sweep_values(direct) == _sweep_values(engine)

    def test_bode_n_workers_identical(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        an = NetworkAnalyzer(dut, cfg)
        cal = an.calibrate(1000.0)
        with Session(dut, cfg, ExecutionPolicy(n_workers=2)) as session:
            parallel = session.sweep(FREQS, calibration=cal).raw
        assert _sweep_values(an.bode(FREQS)) == _sweep_values(parallel)

    def test_run_bode_sorts_and_packages(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        bode = BatchRunner().run_bode(dut, cfg, [1000.0, 250.0, 6000.0])
        assert isinstance(bode, BodeResult)
        assert list(bode.frequencies()) == [250.0, 1000.0, 6000.0]


class TestSerialFallback:
    def test_one_worker_uses_no_pool(self, dut, monkeypatch):
        """n_workers=1 must execute inline: poison the pool to prove it
        is never touched."""
        import repro.engine.runner as runner_mod

        def _boom(*a, **k):
            raise AssertionError("process pool used in serial mode")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _boom)
        cfg = AnalyzerConfig.ideal(m_periods=20)
        points = BatchRunner(n_workers=1).run_sweep(dut, cfg, FREQS)
        assert len(points) == len(FREQS)

    def test_single_job_batch_stays_inline(self, dut, monkeypatch):
        import repro.engine.runner as runner_mod

        def _boom(*a, **k):
            raise AssertionError("process pool used for a single job")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _boom)
        cfg = AnalyzerConfig.ideal(m_periods=20)
        points = BatchRunner(n_workers=8).run_sweep(dut, cfg, [1000.0])
        assert len(points) == 1


class TestPoolLifecycle:
    def test_stats_report_effective_workers(self, dut):
        """A 1-job batch on an 8-worker runner runs inline; the stats
        must say so instead of echoing the configured maximum."""
        cfg = AnalyzerConfig.ideal(m_periods=20)
        runner = BatchRunner(n_workers=8)
        runner.run_sweep(dut, cfg, [1000.0])
        assert runner.last_stats.n_workers == 1
        runner.run_sweep(dut, cfg, FREQS)
        assert runner.last_stats.n_workers == min(8, len(FREQS))

    def test_pool_reused_across_batches(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        with BatchRunner(n_workers=2) as runner:
            runner.run_sweep(dut, cfg, FREQS)
            first_pool = runner._executor
            runner.run_sweep(dut, cfg, FREQS)
            assert runner._executor is first_pool
        assert runner._executor is None  # context exit released it

    def test_close_is_idempotent_and_reopenable(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        runner = BatchRunner(n_workers=2)
        runner.close()  # nothing created yet: no-op
        runner.run_sweep(dut, cfg, FREQS)
        runner.close()
        points = runner.run_sweep(dut, cfg, FREQS)  # lazily re-creates
        assert len(points) == len(FREQS)
        runner.close()


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ConfigError):
            BatchRunner(n_workers=0)

    def test_cli_sweep_rejects_bad_repeat(self):
        from repro.cli import main

        # Rejected at the parser, like every other >= 1 count option.
        with pytest.raises(SystemExit):
            main(["sweep", "--points", "2", "--m-periods", "10", "--repeat", "0"])

    def test_empty_frequency_list(self, dut):
        with pytest.raises(ConfigError):
            BatchRunner().run_sweep(dut, AnalyzerConfig.ideal(m_periods=20), [])

    def test_bode_still_requires_calibration(self, dut):
        an = NetworkAnalyzer(dut, AnalyzerConfig.ideal(m_periods=20))
        with pytest.raises(CalibrationError):
            an.bode(FREQS)


class TestCalibrationSharing:
    def test_repeated_sweeps_hit_the_cache(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        runner = BatchRunner(n_workers=1)
        runner.run_sweep(dut, cfg, FREQS)
        runner.run_sweep(dut, cfg, FREQS)
        runner.run_sweep(dut, cfg, FREQS)
        assert runner.cache.misses == 1
        assert runner.cache.hits == 2
        assert runner.last_stats.cache_hit_rate == 1.0

    def test_shared_cache_across_runners(self, dut):
        cfg = AnalyzerConfig.ideal(m_periods=20)
        cache = CalibrationCache()
        BatchRunner(n_workers=1, cache=cache).run_sweep(dut, cfg, FREQS)
        BatchRunner(n_workers=2, cache=cache).run_sweep(dut, cfg, FREQS)
        assert cache.misses == 1
        assert cache.hits == 1


def _session_lot(mc_setup, n_workers, **kwargs):
    """The lot on a ``Session`` of ``n_workers``, configured exactly as
    the plain :func:`run_yield_analysis` configures it."""
    nominal, mask, program = mc_setup
    config = default_yield_config(program)
    with Session(policy=ExecutionPolicy(n_workers=n_workers)) as session:
        return session.yield_lot(
            nominal, mask, program, config=config, **kwargs
        ).raw


class TestYieldDeterminism:
    def test_parallel_equals_serial(self, mc_setup):
        nominal, mask, program = mc_setup
        kwargs = dict(n_devices=8, component_sigma=0.03, seed=3)
        serial = run_yield_analysis(nominal, mask, program, **kwargs)
        parallel = _session_lot(mc_setup, 4, **kwargs)
        assert serial.trials == parallel.trials

    def test_lot_is_a_function_of_seed(self, mc_setup):
        """The drawn lot depends on the seed alone, not on scheduling:
        the same seed reproduces the same trials at any worker count."""
        nominal, mask, program = mc_setup
        a = run_yield_analysis(
            nominal, mask, program, n_devices=5, component_sigma=0.08, seed=1
        )
        b = _session_lot(mc_setup, 3, n_devices=5, component_sigma=0.08, seed=1)
        assert a.trials == b.trials

    def test_shared_runner_reuses_calibration(self, mc_setup):
        nominal, mask, program = mc_setup
        config = default_yield_config(program)
        with Session(runner=BatchRunner(n_workers=1)) as session:
            for seed in (1, 2):
                session.yield_lot(
                    nominal, mask, program, n_devices=3,
                    component_sigma=0.02, seed=seed, config=config,
                )
        assert session.cache.misses == 1
        assert session.cache.hits == 1

    def test_validation(self, mc_setup):
        nominal, mask, program = mc_setup
        with pytest.raises(ConfigError):
            run_yield_analysis(nominal, mask, program, n_devices=0)
        with pytest.raises(ConfigError):
            run_yield_analysis(nominal, mask, program, component_sigma=-0.1)


class TestVectorizedFastPath:
    """The evaluator fast path the engine's throughput rests on."""

    def test_fast_and_loop_paths_agree_on_signatures(self):
        from repro.evaluator.dsp import SignatureDSP
        from repro.evaluator.evaluator import SinewaveEvaluator

        n = 96 * 40
        x = 0.25 * np.sin(2 * np.pi * np.arange(n) / 96 + 0.4)
        fast = SinewaveEvaluator()
        slow = SinewaveEvaluator()
        slow.channel1.vectorized = False
        slow.channel2.vectorized = False
        dsp = SignatureDSP()
        a = dsp.amplitude(fast.measure(x, harmonic=1, m_periods=40))
        b = dsp.amplitude(slow.measure(x, harmonic=1, m_periods=40))
        # Bits may differ at exact float ties; both encodings stay
        # inside the same guaranteed bounds around the true amplitude.
        assert a.value == pytest.approx(b.value, abs=a.halfwidth)
        assert a.contains(0.25) and b.contains(0.25)

    def test_fast_path_bits_identical_on_generic_input(self):
        from repro.evaluator.sigma_delta import FirstOrderSigmaDelta

        rng = np.random.default_rng(11)
        w = rng.uniform(-0.45, 0.45, size=4000)
        fast = FirstOrderSigmaDelta().modulate(w, np.ones(4000), u0=0.03)
        slow = FirstOrderSigmaDelta(vectorized=False).modulate(
            w, np.ones(4000), u0=0.03
        )
        assert np.array_equal(fast.bits, slow.bits)
        assert fast.u_final == pytest.approx(slow.u_final, abs=1e-9)

    def test_overload_falls_back_to_loop(self):
        from repro.evaluator.sigma_delta import FirstOrderSigmaDelta

        w = np.full(10, 0.7)  # beyond vref = 0.5
        result = FirstOrderSigmaDelta(vref=0.5).modulate(w, np.ones(10))
        assert result.overload_count == 10  # loop path counted them
