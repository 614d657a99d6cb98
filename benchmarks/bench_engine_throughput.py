"""Experiment ENG — batch engine throughput: sweeps/second at scale.

Not a paper figure: this bench records the production-throughput gains
of the batch execution engine (PR "Batch execution engine for sweeps &
Monte-Carlo") on top of the paper's measurement pipeline:

* the vectorized evaluator fast path versus the reference sample loop
  (the per-point hot loop — ~70 % of a gain/phase measurement);
* serial versus process-parallel sweep execution at 4 workers, with the
  bit-identity guarantee checked on the side;
* the calibration cache hit rate over repeated sweeps (the paper's
  "calibration only needs to be performed once", enforced by the
  engine);
* the **vectorized population backend**
  (:mod:`repro.engine.vectorized`) versus the serial reference backend
  on a fault-campaign population, in devices/second.  This is the
  single-core scaling lever: on a 1-CPU host process parallelism cannot
  help, while the population batch evaluates the whole catalog as
  stacked array operations.  The >= 5x devices/s target is asserted
  unconditionally — it is hardware-independent (both sides run on one
  core) — together with the exact-signature equivalence contract;
* the same backend comparison on a **noisy-generator population** — the
  configuration class that previously forced the reference fallback.
  The batched per-device stimulus render must beat the reference per-job
  render by >= 3x while keeping every integer signature bit-identical;
* a **chunked million-device lot** (``test_chunked_lot``): device-axis
  sharding must keep the exact channel independent of chunking and the
  peak footprint bounded by the chunk, not the lot.

Parallel speedup is hardware-dependent (it needs free cores); the bench
records the measured figure and only asserts the >= 2x target when the
host actually has >= 4 CPUs.  Vectorization and caching gains are
hardware-independent and asserted unconditionally.
"""

import os
import resource
import time
import tracemalloc

import numpy as np

from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog
from repro.engine import BatchRunner, CalibrationCache
from repro.evaluator.sigma_delta import FirstOrderSigmaDelta
from repro.sc.opamp import OpAmpModel

M_PERIODS = 100
N_POINTS = 16
N_WORKERS = 4

#: Population shape of the backend comparison: a parametric fault
#: catalog around the demonstrator DUT, measured at three probe tones.
POPULATION_DEVIATIONS = (-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5)
POPULATION_FREQS = (300.0, 1000.0, 2000.0)
POPULATION_M = 40
POPULATION_SPEEDUP_TARGET = 5.0

#: The noisy-generator comparison: same population, but every job draws
#: its stimulus noise from a private seeded substream.  The reference
#: path renders each device's stimulus in a Python sample loop; the
#: vectorized path renders the whole slot as device-axis array steps.
NOISY_GENERATOR_RMS = 50e-6
NOISY_SPEEDUP_TARGET = 3.0

#: The chunked-lot experiment: a million Monte-Carlo devices streamed
#: through bounded memory.  The cheapest valid program (one probe tone,
#: M = 2) keeps the full-size run in minutes; the memory contract is
#: what the experiment is about.
LOT_DEVICES = 1_000_000
LOT_CHUNK = 20_000
LOT_M = 2
LOT_SIGMA = 0.03
LOT_SEED = 5
LOT_MAXRSS_MB = 2048.0


def _time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_population_backend(
    m_periods: int = POPULATION_M,
    deviations=POPULATION_DEVIATIONS,
) -> dict:
    """Reference vs vectorized backend on one fault-campaign population.

    Both backends run serially on one core with a pre-warmed
    calibration cache, so the recorded devices/s ratio is pure backend
    efficiency.  Signature equality is checked on the side (the
    equivalence contract of :mod:`repro.engine.vectorized`).
    """
    golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
    duts = [golden] + [f.apply(golden) for f in fault_catalog(deviations)]
    config = AnalyzerConfig.ideal(m_periods=m_periods)
    reference = BatchRunner(n_workers=1)
    vectorized = BatchRunner(n_workers=1, backend="vectorized")
    for runner in (reference, vectorized):
        runner.calibration_for(config, POPULATION_FREQS[0], m_periods)

    def campaign(runner):
        return runner.run_fault_trials(
            duts, config, POPULATION_FREQS, m_periods=m_periods
        )

    t_reference, trials_reference = _time(lambda: campaign(reference))
    t_vectorized, trials_vectorized = _time(lambda: campaign(vectorized))
    signatures_equal = all(
        a.output.signature == b.output.signature
        for trial_a, trial_b in zip(trials_reference, trials_vectorized)
        for a, b in zip(trial_a, trial_b)
    )
    return {
        "population_devices": len(duts),
        "reference_devices_per_s": len(duts) / t_reference,
        "vectorized_devices_per_s": len(duts) / t_vectorized,
        "population_speedup": t_reference / t_vectorized,
        "population_signatures_equal": signatures_equal,
    }


def run_noisy_population(
    m_periods: int = POPULATION_M,
    deviations=POPULATION_DEVIATIONS,
) -> dict:
    """Reference vs vectorized backend on a noisy-generator population.

    Same protocol as :func:`run_population_backend`, but the analyzer
    draws per-job generator noise (the configuration class that used to
    force the reference fallback).  The vectorized backend renders the
    noise-perturbed stimulus as one batched device-axis recurrence,
    consuming each job's substream in the reference order — so the
    signatures must still match bit for bit.
    """
    golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
    duts = [golden] + [f.apply(golden) for f in fault_catalog(deviations)]
    config = AnalyzerConfig.ideal(
        m_periods=m_periods,
        generator_opamp=OpAmpModel(noise_rms=NOISY_GENERATOR_RMS),
        noise_seed=7,
    )
    reference = BatchRunner(n_workers=1)
    vectorized = BatchRunner(n_workers=1, backend="vectorized")
    for runner in (reference, vectorized):
        runner.calibration_for(config, POPULATION_FREQS[0], m_periods)

    def campaign(runner):
        return runner.run_fault_trials(
            duts, config, POPULATION_FREQS, m_periods=m_periods
        )

    t_reference, trials_reference = _time(lambda: campaign(reference))
    t_vectorized, trials_vectorized = _time(lambda: campaign(vectorized))
    signatures_equal = all(
        a.output.signature == b.output.signature
        for trial_a, trial_b in zip(trials_reference, trials_vectorized)
        for a, b in zip(trial_a, trial_b)
    )
    fell_back = vectorized.last_stats.backend != "vectorized"
    return {
        "noisy_devices": len(duts),
        "noisy_reference_devices_per_s": len(duts) / t_reference,
        "noisy_vectorized_devices_per_s": len(duts) / t_vectorized,
        "noisy_speedup": t_reference / t_vectorized,
        "noisy_signatures_equal": signatures_equal,
        "noisy_fell_back": fell_back,
    }


def run_engine_throughput(
    m_periods: int = M_PERIODS,
    n_points: int = N_POINTS,
    population_m: int = POPULATION_M,
    population_deviations=POPULATION_DEVIATIONS,
) -> tuple[str, dict]:
    dut = ActiveRCLowpass.from_specs(cutoff=1000.0)
    config = AnalyzerConfig.ideal(m_periods=m_periods)
    frequencies = np.geomspace(100.0, 20_000.0, n_points)

    # --- evaluator fast path vs reference loop ------------------------
    n = 96 * m_periods
    x = 0.3 * np.sin(2 * np.pi * np.arange(n) / 96)
    q = np.ones(n)
    fast_mod = FirstOrderSigmaDelta()
    loop_mod = FirstOrderSigmaDelta(vectorized=False)
    t_fast, _ = _time(lambda: fast_mod.modulate(x, q), repeats=5)
    t_loop, _ = _time(lambda: loop_mod.modulate(x, q), repeats=5)
    vec_speedup = t_loop / t_fast

    # --- serial vs parallel sweep -------------------------------------
    serial = BatchRunner(n_workers=1)
    parallel = BatchRunner(n_workers=N_WORKERS)
    t_serial, points_serial = _time(
        lambda: serial.run_sweep(dut, config, frequencies)
    )
    t_parallel, points_parallel = _time(
        lambda: parallel.run_sweep(dut, config, frequencies)
    )
    par_speedup = t_serial / t_parallel
    bit_identical = [
        (a.gain.value, a.phase_rad.value) for a in points_serial
    ] == [(b.gain.value, b.phase_rad.value) for b in points_parallel]

    # --- calibration cache over repeated sweeps -----------------------
    cache = CalibrationCache()
    runner = BatchRunner(n_workers=1, cache=cache)
    n_sweeps = 5
    t_cached, _ = _time(
        lambda: [runner.run_sweep(dut, config, frequencies) for _ in range(n_sweeps)],
        repeats=1,
    )
    hit_rate = cache.hit_rate

    figures = {
        "vectorized_speedup": vec_speedup,
        "parallel_speedup": par_speedup,
        "bit_identical": bit_identical,
        "cache_hit_rate": hit_rate,
        "serial_sweep_s": t_serial,
        "parallel_sweep_s": t_parallel,
        "cpus": os.cpu_count() or 1,
    }
    figures.update(
        run_population_backend(
            m_periods=population_m, deviations=population_deviations
        )
    )
    figures.update(
        run_noisy_population(
            m_periods=population_m, deviations=population_deviations
        )
    )
    text = (
        f"ENG - engine throughput ({n_points} points, M = {m_periods})\n\n"
        f"evaluator fast path vs loop : {vec_speedup:8.1f} x\n"
        f"serial sweep                : {t_serial * 1e3:8.1f} ms\n"
        f"parallel sweep ({N_WORKERS} workers)  : {t_parallel * 1e3:8.1f} ms"
        f"  ({par_speedup:.2f} x, {figures['cpus']} CPU(s) available)\n"
        f"parallel == serial          : {bit_identical}\n"
        f"calibration cache hit rate  : {hit_rate:8.2f}"
        f"  over {n_sweeps} repeated sweeps\n"
        f"\npopulation backend ({figures['population_devices']} devices x "
        f"{len(POPULATION_FREQS)} tones, M = {population_m}):\n"
        f"reference backend           : "
        f"{figures['reference_devices_per_s']:8.1f} devices/s\n"
        f"vectorized backend          : "
        f"{figures['vectorized_devices_per_s']:8.1f} devices/s"
        f"  ({figures['population_speedup']:.2f} x on one core)\n"
        f"signatures identical        : "
        f"{figures['population_signatures_equal']}\n"
        f"\nnoisy-generator population (same shape, per-job noise "
        f"substreams):\n"
        f"reference backend           : "
        f"{figures['noisy_reference_devices_per_s']:8.1f} devices/s\n"
        f"vectorized backend          : "
        f"{figures['noisy_vectorized_devices_per_s']:8.1f} devices/s"
        f"  ({figures['noisy_speedup']:.2f} x on one core)\n"
        f"signatures identical        : "
        f"{figures['noisy_signatures_equal']}"
        f"  (fallback: {figures['noisy_fell_back']})\n"
    )
    return text, figures


def run_chunked_lot(
    n_devices: int = LOT_DEVICES,
    chunk_size: int = LOT_CHUNK,
    probe_devices: int = 30_000,
    probe_chunk: int = 5_000,
    invariance_devices: int = 10_000,
) -> tuple[str, dict]:
    """A million-device Monte-Carlo lot streamed through bounded memory.

    Three claims, measured in order:

    * **chunk invariance** — the exact channel (device index, verdict,
      golden classification) is identical across backends and chunk
      sizes, including none;
    * **chunk-bounded footprint** — tracemalloc peak of a chunked
      mid-size lot scales with the chunk, not the lot (contrasted
      against the unchunked peak on the same lot);
    * **the full lot** — ``n_devices`` devices complete chunked, under
      a process-RSS high-water bound.  tracemalloc would multiply the
      minutes-long run, so the full row is bounded by ``ru_maxrss``
      instead; the mid-size tracemalloc contrast carries the precise
      scaling claim.

    Component draws come from one seeded RNG in device order, so the
    first ``invariance_devices`` of the full lot are the *same devices*
    as the small invariance lot — replaying the prefix checks the full
    run's exact channel against the unchunked reference backend.
    """
    nominal = design_mfb_lowpass(1000.0)
    frequencies = [1000.0]
    mask = SpecMask.from_golden(
        ActiveRCLowpass(nominal), frequencies, tolerance_db=2.0
    )
    program = BISTProgram(mask, frequencies, m_periods=LOT_M)
    config = AnalyzerConfig.ideal(m_periods=LOT_M)

    def lot(backend, chunk, n):
        runner = BatchRunner(backend=backend, chunk_size=chunk)
        runner.calibration_for(config, frequencies[0], LOT_M)
        return runner.run_trials(
            nominal,
            mask,
            program,
            n_devices=n,
            component_sigma=LOT_SIGMA,
            seed=LOT_SEED,
            config=config,
        )

    # --- exact channel vs chunking ------------------------------------
    baseline = lot("reference", None, invariance_devices)
    chunk_invariant = all(
        lot(backend, chunk, invariance_devices) == baseline
        for backend, chunk in (
            ("reference", invariance_devices // 7),
            ("vectorized", None),
            ("vectorized", invariance_devices // 3),
        )
    )

    # --- tracemalloc contrast at mid size -----------------------------
    def traced_peak_mb(chunk):
        tracemalloc.start()
        lot("vectorized", chunk, probe_devices)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 1e6

    peak_chunked_mb = traced_peak_mb(probe_chunk)
    peak_unchunked_mb = traced_peak_mb(None)

    # --- the full lot -------------------------------------------------
    start = time.perf_counter()
    trials = lot("vectorized", chunk_size, n_devices)
    lot_s = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lot_yield = sum(1 for verdict, _ in trials if verdict == "pass") / len(trials)
    prefix_identical = trials[:invariance_devices] == baseline

    figures = {
        "lot_devices": n_devices,
        "lot_chunk": chunk_size,
        "lot_s": lot_s,
        "lot_devices_per_s": n_devices / lot_s,
        "lot_yield": lot_yield,
        "lot_maxrss_mb": maxrss_mb,
        "chunk_invariant": chunk_invariant,
        "prefix_identical": prefix_identical,
        "probe_devices": probe_devices,
        "probe_chunk": probe_chunk,
        "peak_chunked_mb": peak_chunked_mb,
        "peak_unchunked_mb": peak_unchunked_mb,
    }
    text = (
        f"ENG - chunked lot ({n_devices} devices, chunk = {chunk_size}, "
        f"M = {LOT_M})\n\n"
        f"full lot                    : {lot_s:8.1f} s"
        f"  ({figures['lot_devices_per_s']:.0f} devices/s)\n"
        f"lot yield                   : {lot_yield:8.3f}\n"
        f"process RSS high water      : {maxrss_mb:8.1f} MB"
        f"  (bound {LOT_MAXRSS_MB:.0f} MB)\n"
        f"traced peak, chunked        : {peak_chunked_mb:8.1f} MB"
        f"  ({probe_devices} devices, chunk = {probe_chunk})\n"
        f"traced peak, unchunked      : {peak_unchunked_mb:8.1f} MB"
        f"  (same lot)\n"
        f"exact channel vs chunking   : {chunk_invariant}\n"
        f"full-lot prefix == baseline : {prefix_identical}\n"
    )
    return text, figures


def test_engine_throughput(benchmark, record_result, smoke):
    if smoke:
        text, figures = run_engine_throughput(
            m_periods=20,
            n_points=6,
            population_m=20,
            population_deviations=(-0.5, 0.5),
        )
        record_result("engine_throughput", text, figures)
        # Correctness invariants hold at any size; timing targets do not.
        assert figures["bit_identical"]
        assert figures["population_signatures_equal"]
        assert figures["noisy_signatures_equal"]
        assert not figures["noisy_fell_back"]
        return
    text, figures = benchmark.pedantic(run_engine_throughput, rounds=1, iterations=1)
    record_result("engine_throughput", text, figures)

    # Parallelism must never change the numbers.
    assert figures["bit_identical"]
    # The vectorized fast path carries the per-point cost; anything less
    # than 2x would mean the fast path is not engaged.
    assert figures["vectorized_speedup"] >= 2.0
    # One miss (the first sweep's calibration), hits ever after.
    assert figures["cache_hit_rate"] >= 0.75
    # The population backend must not change a single signature count...
    assert figures["population_signatures_equal"]
    # ...and must beat the serial reference by 5x on one core — the
    # whole point of the backend on hosts where parallelism cannot help.
    assert figures["population_speedup"] >= POPULATION_SPEEDUP_TARGET
    # Noisy-generator lots vectorize now (no fallback): bit-identical
    # signatures, and the batched stimulus render must pay for itself.
    assert figures["noisy_signatures_equal"]
    assert not figures["noisy_fell_back"]
    assert figures["noisy_speedup"] >= NOISY_SPEEDUP_TARGET
    # The scaling target only stands where cores exist to scale onto.
    if (os.cpu_count() or 1) >= N_WORKERS:
        assert figures["parallel_speedup"] >= 2.0


def test_chunked_lot(benchmark, record_result, smoke):
    if smoke:
        text, figures = run_chunked_lot(
            n_devices=1_500,
            chunk_size=400,
            probe_devices=600,
            probe_chunk=100,
            invariance_devices=300,
        )
        record_result("engine_chunked_lot", text, figures)
        # The exactness contract holds at any size; memory bounds are
        # only meaningful at full size.
        assert figures["chunk_invariant"]
        assert figures["prefix_identical"]
        return
    text, figures = benchmark.pedantic(run_chunked_lot, rounds=1, iterations=1)
    record_result("engine_chunked_lot", text, figures)

    # Chunking must never change the exact channel — across backends,
    # chunk sizes, and between the full lot and its replayed prefix.
    assert figures["chunk_invariant"]
    assert figures["prefix_identical"]
    # The footprint contract: a chunked lot's traced peak undercuts the
    # unchunked peak on the same lot (the working set follows the
    # chunk), and the million-device run stays under the RSS bound —
    # unchunked it would need several GB of response slabs alone.
    assert figures["peak_chunked_mb"] < 0.5 * figures["peak_unchunked_mb"]
    assert figures["lot_maxrss_mb"] < LOT_MAXRSS_MB
