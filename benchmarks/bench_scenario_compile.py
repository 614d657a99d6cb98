"""Experiment SCN — scenario layer overhead: compile + dispatch cost.

Not a paper figure: this bench records the cost the declarative
scenario layer (PR "Declarative scenario subsystem") adds on top of the
engine it lowers onto.  The layer's contract is that a spec is *free*
at measurement time — all the simulation cost stays in the engine jobs
— so three figures are recorded:

* **parse + compile throughput** — scenario specs lowered per second
  (JSON parse -> strict validation -> catalogs/masks/plans built),
  measured on a multi-step spec;
* **compile overhead per step** — microseconds per lowered step;
* **dispatch overhead** — the wall-clock difference between running a
  compiled scenario and issuing the identical engine calls by hand,
  expressed as a fraction of the hand-written run (must stay within a
  few percent; the scenario layer only *routes* work).

The structural invariants (compiled job accounting, result equivalence
with the hand-written engine run) are asserted at any size; the
overhead ceiling only at full size.
"""

import time

from repro.engine import BatchRunner
from repro.scenarios import (
    AnalyzerSettings,
    ScenarioSpec,
    SweepStep,
    YieldStep,
    compile_scenario,
    run_scenario,
)

N_COMPILE_REPEATS = 200
#: The scenario layer may add at most this fraction of dispatch overhead
#: over hand-written engine calls (full-size runs only).
DISPATCH_OVERHEAD_CEILING = 0.15


def _spec(n_points: int, n_devices: int, m_periods: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench",
        description="scenario-layer overhead bench",
        seed=11,
        analyzer=AnalyzerSettings(m_periods=m_periods),
        steps=(
            SweepStep(name="bode", f_start=300.0, f_stop=3000.0,
                      n_points=n_points),
            YieldStep(name="lot", n_devices=n_devices, component_sigma=0.03),
        ),
    )


def _hand_written(spec: ScenarioSpec):
    """The same workload issued directly against the engine."""
    from repro.bist.limits import SpecMask
    from repro.bist.montecarlo import YieldReport
    from repro.bist.program import BISTProgram
    from repro.core.sweep import FrequencySweepPlan
    from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
    from repro.scenarios.compiler import base_config

    config = base_config(spec)
    sweep_step, yield_step = spec.steps
    dut = ActiveRCLowpass.from_specs(cutoff=spec.dut.cutoff, q=spec.dut.q)
    plan = FrequencySweepPlan(
        sweep_step.f_start, sweep_step.f_stop, sweep_step.n_points
    )
    nominal = design_mfb_lowpass(spec.dut.cutoff)
    golden = ActiveRCLowpass(nominal)
    frequencies = [spec.dut.cutoff * r for r in yield_step.frequency_ratios]
    mask = SpecMask.from_golden(
        golden, frequencies, tolerance_db=yield_step.tolerance_db
    )
    program = BISTProgram(mask, frequencies, m_periods=config.m_periods)
    with BatchRunner() as runner:
        measurements = runner.run_sweep(
            dut, config, [float(f) for f in plan.frequencies()],
            m_periods=config.m_periods,
        )
        trials = runner.run_trials(
            nominal, mask, program,
            n_devices=yield_step.n_devices,
            component_sigma=yield_step.component_sigma,
            seed=spec.seed, config=config,
        )
        report = YieldReport.from_trials(trials, ambiguous_passes=False)
    return measurements, report


def run_scenario_compile_bench(
    n_points: int = 12, n_devices: int = 24, m_periods: int = 40,
    n_compile_repeats: int = N_COMPILE_REPEATS,
):
    spec = _spec(n_points, n_devices, m_periods)
    text_form = spec.to_json()

    # --- parse + compile throughput -----------------------------------
    start = time.perf_counter()
    for _ in range(n_compile_repeats):
        compiled = compile_scenario(ScenarioSpec.from_json(text_form))
    t_compile = (time.perf_counter() - start) / n_compile_repeats
    per_step_us = t_compile / len(spec.steps) * 1e6

    # --- dispatch overhead vs hand-written engine calls ---------------
    t0 = time.perf_counter()
    measurements, report = _hand_written(spec)
    t_hand = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = run_scenario(spec)
    t_layer = time.perf_counter() - t0
    overhead = (t_layer - t_hand) / t_hand

    # Equivalence: the layer must not change a single number.
    sweep = result.step("bode")
    signatures_equal = sweep.exact["signature_counts"] == [
        [m.output.signature.i1, m.output.signature.i2,
         m.reference.signature.i1, m.reference.signature.i2]
        for m in measurements
    ]
    yields_equal = (
        result.step("lot").floats["test_yield"] == report.test_yield
    )

    figures = {
        "compiles_per_s": 1.0 / t_compile,
        "per_step_us": per_step_us,
        "t_hand_ms": t_hand * 1e3,
        "t_layer_ms": t_layer * 1e3,
        "dispatch_overhead": overhead,
        "n_jobs": compiled.n_jobs,
        "signatures_equal": signatures_equal,
        "yields_equal": yields_equal,
    }
    text = (
        f"SCN - scenario layer overhead ({n_points}-point sweep + "
        f"{n_devices}-device lot, M = {m_periods})\n\n"
        f"parse + compile             : {figures['compiles_per_s']:8.0f} specs/s"
        f"  ({per_step_us:.0f} us/step, {compiled.n_jobs} engine jobs planned)\n"
        f"hand-written engine calls   : {figures['t_hand_ms']:8.1f} ms\n"
        f"compiled scenario run       : {figures['t_layer_ms']:8.1f} ms"
        f"  ({overhead * 100:+.1f} % dispatch overhead)\n"
        f"signatures identical        : {signatures_equal}\n"
        f"yield figures identical     : {yields_equal}\n"
    )
    return text, figures


def test_scenario_compile_overhead(benchmark, record_result, smoke):
    if smoke:
        text, figures = run_scenario_compile_bench(
            n_points=3, n_devices=4, m_periods=20, n_compile_repeats=5
        )
        record_result("scenario_compile", text)
        # Correctness invariants hold at any size; overhead targets need
        # full-size runs (tiny workloads amplify constant costs).
        assert figures["signatures_equal"]
        assert figures["yields_equal"]
        return
    text, figures = benchmark.pedantic(
        run_scenario_compile_bench, rounds=1, iterations=1
    )
    record_result("scenario_compile", text)
    assert figures["signatures_equal"]
    assert figures["yields_equal"]
    # Compilation is the cheap phase: a spec must lower in well under a
    # millisecond per step or the "free at measurement time" contract
    # is broken.
    assert figures["per_step_us"] < 1000.0
    assert figures["dispatch_overhead"] <= DISPATCH_OVERHEAD_CEILING
