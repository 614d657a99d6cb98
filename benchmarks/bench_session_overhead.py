"""Experiment API — session-layer overhead: Session dispatch vs direct engine calls.

Not a paper figure: this bench records the cost the unified session
layer (PR "Unified repro.api session layer") adds on top of the engine
it routes onto.  The api layer's contract is that it only *decides* —
policy, seeding, calibration reuse — while every simulated second stays
in the engine jobs, so its dispatch overhead must be within noise of
hand-written engine calls.  Figures recorded:

* **sweep dispatch** — N repeated Bode sweeps through
  ``Session.sweep`` vs the identical ``BatchRunner.run_sweep`` calls,
  per-call overhead in microseconds and as a fraction;
* **yield dispatch** — the same comparison for Monte-Carlo lots
  (``Session.yield_lot`` vs ``BatchRunner.run_trials``);
* **equivalence** — the session path must not change a single integer
  signature count relative to the direct path.

The equivalence invariant is asserted at any size; the overhead ceiling
only at full size (tiny workloads amplify constant costs).
"""

import time

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.montecarlo import YieldReport
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.core.sweep import FrequencySweepPlan
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.engine import BatchRunner

#: The session layer may add at most this fraction of dispatch overhead
#: over hand-written engine calls (full-size runs only); an absolute
#: per-call allowance keeps the check meaningful when the workload
#: itself is only tens of milliseconds.
DISPATCH_OVERHEAD_CEILING = 0.10
PER_CALL_ALLOWANCE_US = 500.0


def _workloads(n_points: int, n_devices: int, m_periods: int):
    config = AnalyzerConfig.ideal(m_periods=m_periods)
    dut = ActiveRCLowpass.from_specs(cutoff=1000.0)
    plan = FrequencySweepPlan(300.0, 3000.0, n_points)
    frequencies = [float(f) for f in plan.frequencies()]
    nominal = design_mfb_lowpass(1000.0)
    golden = ActiveRCLowpass(nominal)
    test_points = [1000.0 * r for r in (0.3, 1.0, 2.0)]
    mask = SpecMask.from_golden(golden, test_points, tolerance_db=2.0)
    program = BISTProgram(mask, test_points, m_periods=m_periods)
    return config, dut, frequencies, nominal, mask, program


def _timed(repeats: int, fn):
    start = time.perf_counter()
    for _ in range(repeats):
        result = fn()
    return (time.perf_counter() - start) / repeats, result


def run_session_overhead_bench(
    n_points: int = 16,
    n_devices: int = 16,
    m_periods: int = 40,
    repeats: int = 8,
):
    config, dut, frequencies, nominal, mask, program = _workloads(
        n_points, n_devices, m_periods
    )

    # --- direct engine calls (the floor) ------------------------------
    with BatchRunner() as runner:
        runner.run_sweep(dut, config, frequencies, m_periods=m_periods)  # warm
        t_sweep_direct, direct_sweep = _timed(
            repeats,
            lambda: runner.run_sweep(dut, config, frequencies, m_periods=m_periods),
        )
        t_yield_direct, direct_trials = _timed(
            repeats,
            lambda: runner.run_trials(
                nominal, mask, program, n_devices=n_devices,
                component_sigma=0.03, seed=0, config=config,
            ),
        )
        direct_yield = YieldReport.from_trials(direct_trials, ambiguous_passes=False)

    # --- the same workloads through the session facade ----------------
    with Session(dut, config, ExecutionPolicy()) as session:
        session.sweep(frequencies, m_periods=m_periods)  # warm
        t_sweep_session, session_sweep = _timed(
            repeats,
            lambda: session.sweep(frequencies, m_periods=m_periods),
        )
        t_yield_session, session_yield = _timed(
            repeats,
            lambda: session.yield_lot(
                nominal, mask, program, n_devices=n_devices,
                component_sigma=0.03, seed=0,
            ),
        )

    from repro.api import sweep_channels, yield_channels

    signatures_equal = (
        session_sweep.exact
        == sweep_channels(frequencies, direct_sweep)[0]
    )
    yields_equal = session_yield.exact == yield_channels(direct_yield)[0]

    def figures_for(t_direct, t_session):
        return {
            "direct_ms": t_direct * 1e3,
            "session_ms": t_session * 1e3,
            "overhead": (t_session - t_direct) / t_direct,
            "overhead_us": (t_session - t_direct) * 1e6,
        }

    sweep_fig = figures_for(t_sweep_direct, t_sweep_session)
    yield_fig = figures_for(t_yield_direct, t_yield_session)
    figures = {
        "sweep": sweep_fig,
        "yield": yield_fig,
        "signatures_equal": signatures_equal,
        "yields_equal": yields_equal,
    }

    def line(label, fig):
        return (
            f"{label:<28}: {fig['direct_ms']:8.1f} ms direct, "
            f"{fig['session_ms']:8.1f} ms session "
            f"({fig['overhead'] * 100:+.2f} %, "
            f"{fig['overhead_us']:+.0f} us/call)\n"
        )

    text = (
        f"API - session dispatch overhead ({n_points}-point sweep, "
        f"{n_devices}-device lot, M = {m_periods}, {repeats} repeats)\n\n"
        + line("sweep dispatch", sweep_fig)
        + line("yield dispatch", yield_fig)
        + f"signatures identical        : {signatures_equal}\n"
        + f"yield channels identical    : {yields_equal}\n"
    )
    return text, figures


def _overhead_within_noise(fig) -> bool:
    return (
        fig["overhead"] <= DISPATCH_OVERHEAD_CEILING
        or fig["overhead_us"] <= PER_CALL_ALLOWANCE_US
    )


def test_session_dispatch_overhead(benchmark, record_result, smoke):
    if smoke:
        text, figures = run_session_overhead_bench(
            n_points=3, n_devices=3, m_periods=20, repeats=2
        )
        record_result("session_overhead", text)
        # Equivalence holds at any size; the overhead ceiling needs
        # full-size runs (tiny workloads amplify constant costs).
        assert figures["signatures_equal"]
        assert figures["yields_equal"]
        return
    text, figures = benchmark.pedantic(
        run_session_overhead_bench, rounds=1, iterations=1
    )
    record_result("session_overhead", text)
    assert figures["signatures_equal"]
    assert figures["yields_equal"]
    assert _overhead_within_noise(figures["sweep"]), figures["sweep"]
    assert _overhead_within_noise(figures["yield"]), figures["yield"]
