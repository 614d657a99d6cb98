"""Command-line interface: drive the analyzer from a shell.

Thirteen subcommands mirror the library's main flows::

    python -m repro design
        Print the Table I design summary.

    python -m repro bode --cutoff 1000 --points 11 [--csv out.csv]
        Characterize an active-RC low-pass DUT (Fig. 10a/b style).

    python -m repro sweep --points 25 --workers 4 [--csv out.csv]
        The same characterization with engine statistics printed:
        parallel sweep points, cached calibration, identical numbers at
        any worker count.

    python -m repro yield --devices 50 --sigma 0.03 --workers 4
        Monte-Carlo yield analysis of a production lot through a
        go/no-go BIST program.

    python -m repro coverage --catastrophic --workers 4
        Fault coverage of a go/no-go program over a fault catalog,
        batch-executed as an engine fault campaign.

    python -m repro prbist --lfsr-width 10 --patterns 6 --catastrophic
        Pseudorandom BIST: LFSR-placed stimulus tones, each device's
        quantized response folded into an n-bit MISR signature and
        compared exactly against golden (coverage, aliasing, escapes).

    python -m repro diagnose --inject r2+50% --probes 3 --workers 4
        Build a fault dictionary, select the most discriminating probe
        frequencies, and diagnose an injected fault from its measured
        signature (ranked candidates + ambiguity group).

    python -m repro distortion --hd2 -57 --hd3 -64.5 --workers 2
        The Fig. 10c harmonic-distortion experiment, one engine job per
        stimulus frequency (pass several --fwave values).

    python -m repro dynamic-range --m-periods 200 --workers 4
        Evaluator + system dynamic range (the 70 dB claim); the
        evaluator's weak-tone probes run as engine jobs.

    python -m repro scenarios run examples/scenarios/production_test.json
    python -m repro scenarios record spec.json --out baseline.json
    python -m repro scenarios check baseline.json [--update]
        Declarative scenarios: whole test programs as JSON specs,
        compiled onto the engine, with golden-baseline record/check
        regression testing (see :mod:`repro.scenarios`).

    python -m repro lint [src tests benchmarks] [--list-rules]
        Repo-aware static analysis: the REP001–REP005 contract rules
        (determinism, execution seam, error discipline, canonical
        serialization, lock discipline) with precise file:line:col
        findings, inline justified suppressions and a committed
        grandfather baseline — see :mod:`repro.analysis`.

    python -m repro serve --port 7351 --max-running 4
        Long-running analyzer-as-a-service: accept scenario submissions
        over a newline-delimited canonical-JSON socket protocol, with a
        priority job queue, fault-tolerant lot sharding and per-step
        result streaming (``--status`` queries a running server) — see
        :mod:`repro.service`.

    python -m repro trace summarize run.jsonl
        Per-span wall-time/count summary of a recorded trace.  Every
        measurement subcommand accepts ``--trace PATH.jsonl`` and writes
        the invocation's span tree (session calls, scenario steps,
        campaigns, engine batches, calibrations) as canonical JSON lines
        — see :mod:`repro.obs`.

Execution is decided in exactly one place: every measurement subcommand
shares the same ``--workers`` / ``--backend`` / ``--policy policy.json``
arguments (one argparse parent parser), mapped onto a validated
:class:`~repro.api.policy.ExecutionPolicy` and executed through one
:class:`~repro.api.session.Session` per invocation — shared calibration
cache, one batch runner, identical numbers on either backend at any
worker count.  A policy file (written by
``ExecutionPolicy(...).to_json()``) pins the execution strategy next to
the scenario specs it runs; explicit flags override its fields.

The CLI builds everything from the public API — it doubles as an
executable usage example.  Every subcommand documents its own usage in
``--help`` (``python -m repro <command> --help``); README.md walks
through all thirteen.
"""

from __future__ import annotations

import argparse
import sys
import time

from .api import ExecutionPolicy, Session
from .obs import TraceRecorder
from .bist.limits import SpecMask
from .bist.montecarlo import default_yield_config
from .bist.program import BISTProgram
from .core.analyzer import NetworkAnalyzer
from .core.config import AnalyzerConfig
from .core.dynamic_range import system_dynamic_range
from .core.sweep import FrequencySweepPlan
from .dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from .dut.base import PassthroughDUT
from .dut.faults import fault_catalog, full_catalog
from .dut.nonlinear import WienerDUT, polynomial_for_distortion
from .errors import ConfigError
from .generator.design import design_summary
from .reporting.export import (
    bode_to_csv,
    distortion_sweep_to_csv,
    write_csv,
    write_json,
)
from .reporting.series import format_series
from .reporting.tables import ascii_table
from .sc.opamp import OpAmpModel


def _wall_clock() -> float:
    """Monotonic seconds for the CLI's ``elapsed`` footer lines.

    The one sanctioned clock read in this module: elapsed times are
    operator-facing display only and never enter a result or a baseline
    (structured timing belongs to the ``repro.obs`` timing channel).
    """
    return time.perf_counter()  # repro: allow[REP001]: wall-clock display only; never enters results


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (e.g. ``--workers``).

    Rejecting zero/negative values at the parser gives every subcommand
    the same clear usage error instead of a deep ``ConfigError``
    traceback from whichever layer first validates.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ----------------------------------------------------------------------
# Execution policy plumbing (shared by every measurement subcommand)
# ----------------------------------------------------------------------

def _execution_parent() -> argparse.ArgumentParser:
    """The one definition of the execution arguments.

    Every subcommand that runs measurements inherits exactly these
    flags, so ``--workers``/``--backend``/``--policy`` parse and
    validate identically everywhere.  Defaults are ``None`` (not the
    policy defaults) so explicit flags can be told apart from absent
    ones: flags override a ``--policy`` file, which overrides the
    built-in :class:`~repro.api.policy.ExecutionPolicy` defaults (or,
    for scenarios, the spec's own defaults).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution policy")
    group.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker processes (results identical at any count)")
    group.add_argument(
        "--backend", choices=("reference", "vectorized"), default=None,
        help="execution backend: 'reference' runs one job per "
             "measurement (parallelizable with --workers); 'vectorized' "
             "batches the whole population as in-process array "
             "operations — the single-core throughput path, "
             "result-equivalent to the reference backend")
    group.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="N",
        help="device-axis shard size for population batches: lots "
             "stream through the engine N jobs at a time, bounding "
             "peak memory with bit-identical results (per-job seeds "
             "are indexed by absolute lot position, not chunk)")
    group.add_argument(
        "--policy", type=str, default=None, metavar="POLICY_JSON",
        help="execution-policy file (ExecutionPolicy(...).to_json()); "
             "explicit --workers/--backend flags override its fields. "
             "The scenario subcommands take backend/workers from the "
             "file but always keep the spec's own seed (a recorded "
             "baseline replays only under its own seed)")
    group.add_argument(
        "--trace", type=str, default=None, metavar="TRACE_JSONL",
        help="record the invocation's span tree (session calls, "
             "campaigns, engine batches, calibrations) to this JSONL "
             "file; inspect it with 'python -m repro trace summarize'")
    return parent


def _policy_from_args(args) -> ExecutionPolicy:
    """The validated execution policy one invocation runs under."""
    if getattr(args, "policy", None):
        policy = ExecutionPolicy.from_json(
            _read_text(args.policy, what="execution policy")
        )
    else:
        policy = ExecutionPolicy()
    overrides = {}
    if getattr(args, "workers", None) is not None:
        overrides["n_workers"] = args.workers
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "chunk_size", None) is not None:
        overrides["chunk_size"] = args.chunk_size
    return policy.replace(**overrides) if overrides else policy


def _session_from_args(args, dut=None, config=None) -> Session:
    """One session per invocation: the single execution decision point."""
    return Session(
        dut=dut,
        config=config,
        policy=_policy_from_args(args),
        obs=getattr(args, "_obs", None),
    )


def _cmd_design(_args) -> int:
    """Print the derived Table I design summary.

    Usage example::

        python -m repro design
    """
    summary = design_summary()
    rows = [[key, value] for key, value in summary.items()]
    print(ascii_table(["design figure", "value"], rows,
                      title="Table I derived design summary"))
    return 0


def _cmd_bode(args) -> int:
    """Bode characterization of an active-RC low-pass DUT.

    Calibrates once at the cutoff (served from the session's cache),
    then measures gain and phase with guaranteed error bands at each
    sweep point (paper Fig. 10a/b).

    Usage example::

        python -m repro bode --cutoff 1000 --points 11 --csv bode.csv
    """
    dut = ActiveRCLowpass.from_specs(cutoff=args.cutoff, q=args.q)
    config = AnalyzerConfig.ideal(m_periods=args.m_periods)
    plan = FrequencySweepPlan(args.f_start, args.f_stop, args.points)
    with _session_from_args(args, dut=dut, config=config) as session:
        bode = session.bode(
            plan.frequencies(), calibration_fwave=args.cutoff
        ).raw
    _print_bode(bode)
    if args.csv:
        write_csv(args.csv, bode_to_csv(bode))
        print(f"wrote {args.csv}")
    return 0


def _cmd_sweep(args) -> int:
    """Engine-batched Bode sweep: the production-throughput path.

    Identical measurement to ``bode`` but with the engine accounting
    printed: the calibration is served from the session cache and the
    sweep points run as parallel jobs.  Deterministic per-job seeding
    makes the numbers bit-identical at any ``--workers`` count.

    Usage example::

        python -m repro sweep --points 25 --workers 4 --repeat 2
    """
    dut = ActiveRCLowpass.from_specs(cutoff=args.cutoff, q=args.q)
    config = AnalyzerConfig.ideal(m_periods=args.m_periods)
    plan = FrequencySweepPlan(args.f_start, args.f_stop, args.points)
    with _session_from_args(args, dut=dut, config=config) as session:
        started = _wall_clock()
        for _ in range(args.repeat):
            result = session.bode(
                plan.frequencies(), calibration_fwave=args.cutoff
            )
        elapsed = _wall_clock() - started
        bode = result.raw
        _print_bode(bode)
        stats = session.runner.last_stats
        print(
            f"{args.repeat} sweep(s) x {stats.n_jobs} points on "
            f"{stats.n_workers} worker(s) ({stats.backend} backend) in "
            f"{elapsed:.2f} s; calibration cache "
            f"{session.cache.hits} hit(s) / {session.cache.misses} miss(es)"
        )
    if args.csv:
        write_csv(args.csv, bode_to_csv(bode))
        print(f"wrote {args.csv}")
    return 0


def _print_bode(bode) -> None:
    lo, hi = bode.gain_db_bounds()
    print(
        format_series(
            {
                "f (Hz)": bode.frequencies(),
                "gain dB": bode.gain_db(),
                "lo": lo,
                "hi": hi,
                "phase deg": bode.phase_deg(),
            },
            digits=4,
        )
    )


def _cmd_yield(args) -> int:
    """Monte-Carlo yield analysis of a lot through a BIST program.

    Draws ``--devices`` devices with Gaussian component spread around a
    nominal design, runs each through a go/no-go gain-mask program, and
    reports test yield against true (analytic) yield — escapes, overkill
    and ambiguous outcomes included.  Trials are engine jobs:
    ``--workers N`` parallelizes the lot with bit-identical results.

    Usage example::

        python -m repro yield --devices 50 --sigma 0.03 --workers 4
    """
    nominal = design_mfb_lowpass(args.cutoff)
    golden = ActiveRCLowpass(nominal)
    frequencies = [args.cutoff * r for r in (0.3, 1.0, 2.0)]
    mask = SpecMask.from_golden(golden, frequencies, tolerance_db=args.tolerance_db)
    program = BISTProgram(mask, frequencies, m_periods=args.m_periods)
    config = default_yield_config(program)
    with _session_from_args(args, config=config) as session:
        started = _wall_clock()
        result = session.yield_lot(
            nominal,
            mask,
            program,
            n_devices=args.devices,
            component_sigma=args.sigma,
            ambiguous_passes=args.ambiguous_passes,
        )
        elapsed = _wall_clock() - started
        report = result.raw
        rows = [
            ["devices", report.n_devices],
            ["test yield", f"{report.test_yield:.3f}"],
            ["true yield", f"{report.true_yield:.3f}"],
            ["escape rate", f"{report.escape_rate:.3f}"],
            ["overkill rate", f"{report.overkill_rate:.3f}"],
            ["ambiguous rate", f"{report.ambiguous_rate:.3f}"],
            ["wall time (s)", f"{elapsed:.2f}"],
            ["workers", session.policy.n_workers],
            ["backend", result.stats.backend],
        ]
    print(ascii_table(["figure", "value"], rows, title="Monte-Carlo yield"))
    return 0


def _cmd_distortion(args) -> int:
    """Measure HD2/HD3 of a mildly nonlinear DUT (paper Fig. 10c).

    Builds a Wiener DUT with programmable distortion, measures its
    harmonics with the analyzer, and compares against the oscilloscope
    stand-in.  Each requested stimulus frequency is an independent
    engine job, so several ``--fwave`` values plus ``--workers N``
    parallelize the experiment with bit-identical numbers.

    Usage example::

        python -m repro distortion --hd2 -57 --hd3 -64.5 --csv hd.csv
        python -m repro distortion --fwave 800 1600 3200 --workers 3
    """
    linear = ActiveRCLowpass.from_specs(cutoff=args.cutoff)
    # The polynomial is a property of the device: tune it once, at the
    # first requested operating point.
    level = args.amplitude * linear.gain_at(args.fwave[0])
    dut = WienerDUT(linear, polynomial_for_distortion(level, args.hd2, args.hd3))
    config = AnalyzerConfig.ideal(
        stimulus_amplitude=args.amplitude,
        evaluator_opamp=OpAmpModel(noise_rms=50e-6),
        noise_seed=1,
    )
    with _session_from_args(args, dut=dut, config=config) as session:
        started = _wall_clock()
        reports = session.distortion(args.fwave, m_periods=args.m_periods).raw
        elapsed = _wall_clock() - started
        n_workers = session.runner.last_stats.n_workers
    rows = [
        [f"{report.fwave:g}", f"HD{r.harmonic}", r.level_dbc.value,
         r.reference_dbc, r.agreement_db]
        for report in reports
        for r in report.rows
    ]
    print(
        ascii_table(
            ["fwave (Hz)", "harmonic", "analyzer (dBc)", "scope (dBc)",
             "|delta| (dB)"],
            rows,
            title="Harmonic distortion measurement",
        )
    )
    print(
        f"{len(reports)} experiment(s) on {n_workers} "
        f"worker(s) in {elapsed:.2f} s"
    )
    if args.csv:
        write_csv(args.csv, distortion_sweep_to_csv(reports))
        print(f"wrote {args.csv}")
    return 0


def _cmd_dynamic_range(args) -> int:
    """Report the evaluator and whole-system dynamic range figures.

    Reproduces the abstract's headline claim (over 70 dB of dynamic
    range) from the weak-tone resolution of the evaluator and the
    residual floor of the full system.  The evaluator's weak-tone
    probes are independent engine jobs: ``--workers N`` runs them in
    parallel with identical numbers.

    Usage example::

        python -m repro dynamic-range --m-periods 200 --workers 4
    """
    with _session_from_args(args) as session:
        started = _wall_clock()
        evaluator = session.dynamic_range(
            m_periods=(
                args.m_periods if args.m_periods % 2 == 0 else args.m_periods + 1
            ),
        ).raw
        analyzer = NetworkAnalyzer(
            PassthroughDUT(), AnalyzerConfig.ideal(m_periods=200)
        )
        system = system_dynamic_range(analyzer, args.fwave)
        elapsed = _wall_clock() - started
        rows = [
            ["evaluator weak-tone range (dB)", evaluator.dynamic_range_db],
            [f"system residual range @ {args.fwave:g} Hz (dB)", system],
            ["wall time (s)", f"{elapsed:.2f}"],
            ["workers", session.policy.n_workers],
        ]
    print(ascii_table(["figure", "value"], rows, title="Dynamic range"))
    return 0


def _build_catalog(args):
    """The fault catalog implied by --deviations / --catastrophic."""
    deviations = sorted(
        {s * d for d in args.deviations for s in (-1.0, 1.0)}
    )
    if args.catastrophic:
        return full_catalog(deviations)
    return fault_catalog(deviations)


def _cmd_coverage(args) -> int:
    """Fault coverage of a go/no-go program over a fault catalog.

    Builds the demonstrator DUT, derives a gain mask from it, then runs
    the whole catalog (parametric deviations, plus shorts/opens with
    ``--catastrophic``) as an engine fault campaign — one cached
    calibration for the entire catalog, ``--workers N`` parallel, with
    bit-identical results at any worker count.

    Usage example::

        python -m repro coverage --deviations 0.2 0.5 --catastrophic --workers 4
    """
    golden = ActiveRCLowpass.from_specs(cutoff=args.cutoff)
    frequencies = [args.cutoff * r for r in (0.3, 1.0, 2.0)]
    mask = SpecMask.from_golden(golden, frequencies, tolerance_db=args.tolerance_db)
    program = BISTProgram(mask, frequencies, m_periods=args.m_periods)
    catalog = _build_catalog(args)
    with _session_from_args(args, dut=golden) as session:
        started = _wall_clock()
        result = session.fault_coverage(catalog, program)
        elapsed = _wall_clock() - started
        report = result.raw
        summary_tail = [
            ["wall time (s)", f"{elapsed:.2f}"],
            ["workers", session.policy.n_workers],
            ["backend", result.stats.backend],
        ]
    rows = [[t.fault.label, t.verdict] for t in report.trials]
    print(ascii_table(["fault", "verdict"], rows, title="Fault trials"))
    summary = [
        ["faults", len(report.trials)],
        ["coverage (fail)", f"{report.coverage:.3f}"],
        ["flagged (fail+ambiguous)", f"{report.flagged:.3f}"],
        ["escapes", len(report.escapes)],
        ["good device verdict", report.good_verdict],
    ] + summary_tail
    print(ascii_table(["figure", "value"], summary, title="Fault coverage"))
    return 0


def _cmd_prbist(args) -> int:
    """Pseudorandom BIST over a fault catalog with MISR compaction.

    An LFSR on a tabulated primitive polynomial draws ``--patterns``
    pseudorandom words, each selecting an in-band stimulus tone; every
    catalog device's quantized response folds into an n-bit MISR
    signature compared exactly against golden.  One cached calibration
    serves the whole campaign; signatures are bit-identical on either
    backend at any worker count.

    Usage example::

        python -m repro prbist --lfsr-width 10 --patterns 6 --catastrophic
        python -m repro prbist --form galois --misr-width 8 --workers 4
    """
    from .prbist import LFSRConfig, MISRConfig, PseudorandomPlan, derive_lfsr_seed

    golden = ActiveRCLowpass.from_specs(cutoff=args.cutoff)
    catalog = _build_catalog(args)
    config = AnalyzerConfig.ideal(m_periods=args.m_periods)
    with _session_from_args(args, dut=golden, config=config) as session:
        plan = PseudorandomPlan(
            LFSRConfig(
                width=args.lfsr_width,
                form=args.form,
                seed=derive_lfsr_seed(session.policy.seed, args.lfsr_width),
            ),
            n_patterns=args.patterns,
        )
        started = _wall_clock()
        result = session.pseudorandom_coverage(
            catalog, plan, misr=MISRConfig(width=args.misr_width)
        )
        elapsed = _wall_clock() - started
        report = result.raw
        summary_tail = [
            ["wall time (s)", f"{elapsed:.2f}"],
            ["workers", session.policy.n_workers],
            ["backend", result.stats.backend],
        ]
    rows = [
        [t.label, f"0x{t.signature:0{(report.misr.width + 3) // 4}x}",
         "yes" if t.responding else "no",
         "aliased" if t.aliased else ("detected" if t.detected else "escape")]
        for t in report.trials
    ]
    print(ascii_table(["fault", "signature", "responding", "verdict"], rows,
                      title="Pseudorandom fault trials"))
    summary = [
        ["faults", len(report.trials)],
        ["patterns (tones)", len(report.frequencies)],
        ["LFSR", f"{plan.lfsr.width}-bit {plan.lfsr.form}"],
        ["golden signature",
         f"0x{report.golden_signature:0{(report.misr.width + 3) // 4}x}"],
        ["coverage", f"{report.coverage:.3f}"],
        ["response rate", f"{report.response_rate:.3f}"],
        ["aliasing rate", f"{report.aliasing_rate:.4f}"],
        ["aliasing bound (2^-n)", f"{report.aliasing_bound:.2e}"],
        ["escapes", len(report.escapes)],
    ] + summary_tail
    print(ascii_table(["figure", "value"], summary,
                      title="Pseudorandom BIST coverage"))
    return 0


def _cmd_diagnose(args) -> int:
    """Dictionary-based fault diagnosis of an injected fault.

    Measures a fault dictionary over a candidate sweep plan (an engine
    fault campaign), greedily selects the ``--probes`` most
    discriminating frequencies, then measures the device with the
    ``--inject`` fault at those probes and ranks the dictionary
    candidates against the signature.  Ambiguity is reported honestly:
    faults the intervals cannot separate come back as a group.

    Usage example::

        python -m repro diagnose --inject r2+50% --probes 3 --workers 4
        python -m repro diagnose --catastrophic --inject r2:open
    """
    golden = ActiveRCLowpass.from_specs(cutoff=args.cutoff)
    catalog = _build_catalog(args)
    plan = FrequencySweepPlan.around(
        args.cutoff, decades=args.decades, n_points=args.points
    )
    with _session_from_args(args, dut=golden) as session:
        started = _wall_clock()
        outcome = session.diagnose(
            catalog=catalog,
            frequencies=plan,
            inject=args.inject,
            n_probes=args.probes,
            top_n=args.top,
            m_periods=args.m_periods,
        ).raw
        elapsed = _wall_clock() - started
        n_workers = session.policy.n_workers
    result = outcome.diagnosis

    rows = [
        [c.label, f"{c.separation:.3f}", f"{c.estimate_distance:.3f}",
         "yes" if c.consistent else "no"]
        for c in result.candidates
    ]
    print(
        ascii_table(
            ["candidate", "interval gap", "estimate distance", "consistent"],
            rows,
            title=f"Diagnosis of injected fault {args.inject!r}",
        )
    )
    summary = [
        ["best candidate", result.best.label],
        ["ambiguity group", ", ".join(result.ambiguity_group)],
        ["conclusive", "yes" if result.conclusive else "no"],
        ["correct", "yes" if result.names(args.inject) else "no"],
        ["dictionary faults", len(outcome.dictionary)],
        ["probe frequencies", ", ".join(f"{f:.0f} Hz" for f in outcome.probes)],
        ["wall time (s)", f"{elapsed:.2f}"],
        ["workers", n_workers],
    ]
    print(ascii_table(["figure", "value"], summary, title="Diagnosis summary"))
    if args.dictionary:
        write_json(args.dictionary, outcome.production.to_json())
        print(f"wrote {args.dictionary}")
    return 0


def _cmd_scenarios(args) -> int:
    """Declarative scenarios: run, record and check whole test programs.

    A scenario is a JSON spec of typed steps (sweep, yield, coverage,
    distortion, diagnose, dynamic_range, pseudorandom, signature_check)
    compiled onto the batch engine
    (see :mod:`repro.scenarios`).  ``run`` executes a spec and prints a
    per-step summary; ``record`` writes the golden baseline artifact;
    ``check`` replays a baseline — on any ``--backend``, at any
    ``--workers`` count, or under a ``--policy`` file — and reports
    drift by step and field (``--update`` re-records after an
    intentional change).

    Usage examples::

        python -m repro scenarios run examples/scenarios/production_test.json
        python -m repro scenarios run spec.json --backend vectorized
        python -m repro scenarios record spec.json --out baseline.json
        python -m repro scenarios check baseline.json --workers 2
        python -m repro scenarios check baseline.json --update
    """
    from .scenarios import check, record, run_scenario
    from .scenarios.spec import ScenarioSpec

    backend, workers, chunk = _scenario_overrides(args)
    obs = getattr(args, "_obs", None)

    if args.scenarios_command == "check":
        report = check(
            args.baseline, backend=backend, n_workers=workers,
            update=args.update, obs=obs, chunk_size=chunk,
        )
        print(report.report())
        return 0 if (report.ok or report.updated) else 1

    spec = ScenarioSpec.from_json(_read_text(args.spec))
    started = _wall_clock()
    if args.scenarios_command == "record":
        out = args.out if args.out else f"{spec.name}.json"
        result = record(spec, out, backend=backend, n_workers=workers,
                        obs=obs, chunk_size=chunk)
        elapsed = _wall_clock() - started
        print(f"recorded baseline for scenario {spec.name!r} -> {out}")
    else:  # run
        result = run_scenario(spec, backend=backend, n_workers=workers,
                              obs=obs, chunk_size=chunk)
        elapsed = _wall_clock() - started
    rows = [[s.kind, s.name, s.headline()] for s in result.steps]
    rows.append(["", "wall time (s)", f"{elapsed:.2f}"])
    rows.append(["", "backend", result.backend])
    print(ascii_table(["step", "name", "result"], rows,
                      title=f"Scenario {spec.name!r}"))
    return 0


def _cmd_lint(args) -> int:
    """Run the repo-aware static-analysis rules over source trees.

    Findings print in the classic ``path:line:col: CODE message``
    compiler format; the exit status is 0 for a clean tree, 1 when
    findings remain, 2 for a usage error (bad path, malformed baseline).
    Intentional violations are kept with an inline
    ``# repro: allow[CODE]: justification`` comment; inherited debt is
    grandfathered in a committed baseline that only shrinks
    (``--write-baseline`` records the current findings; a stale entry
    is reported so it can be deleted).

    Usage examples::

        python -m repro lint                      # src tests benchmarks
        python -m repro lint src/repro/engine
        python -m repro lint --list-rules
        python -m repro lint --baseline lint-baseline.json
        python -m repro lint --write-baseline lint-baseline.json
    """
    from .analysis import (
        load_baseline,
        lint_paths,
        rule_catalog,
        write_baseline,
    )

    if args.list_rules:
        print(rule_catalog())
        return 0

    paths = args.paths or ["src", "tests", "benchmarks"]
    try:
        baseline = load_baseline(args.baseline) if args.baseline else None
        report = lint_paths(paths, baseline=baseline)
    except ConfigError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, report.findings)
        print(
            f"wrote baseline {args.write_baseline} "
            f"({len(report.findings)} grandfathered finding(s))"
        )
        return 0

    print(report.format())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Serve the analyzer as a long-running localhost job service.

    Boots an :class:`~repro.service.AnalyzerService` behind a
    newline-delimited canonical-JSON socket
    (:class:`~repro.service.AnalyzerServer`): clients submit scenario
    specs with execution policies, jobs flow through a priority queue
    with bounded concurrency and in-flight dedupe, population lots shard
    across a fault-tolerant worker pool, and step results stream back as
    they finish — byte-identical to a synchronous run (see
    :mod:`repro.service`).  ``--port 0`` (the default) binds an
    ephemeral port and prints it; ``--status`` instead queries a
    *running* server and prints its health snapshot as canonical JSON.

    Usage examples::

        python -m repro serve --port 7351
        python -m repro serve --max-running 4
        python -m repro serve --status --port 7351
    """
    import asyncio

    from .reporting.export import canonical_json
    from .service import ServiceClient
    from .service.server import serve

    if args.status:
        if not args.port:
            print(
                "repro serve: --status needs the running server's --port",
                file=sys.stderr,
            )
            return 2
        client = ServiceClient(port=args.port, host=args.host)
        try:
            status = client.status()
        except OSError as exc:
            print(
                f"repro serve: no server at {args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            return 1
        print(canonical_json(status), end="")
        return 0

    def announce(host: str, port: int) -> None:
        print(f"repro service listening on {host}:{port}", flush=True)

    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                max_running=args.max_running,
                announce=announce,
            )
        )
    except KeyboardInterrupt:
        print("repro service stopped")
    return 0


def _cmd_trace(args) -> int:
    """Inspect a recorded trace file.

    ``summarize`` reads the canonical JSONL written by any measurement
    subcommand's ``--trace`` flag and renders a per-span table —
    occurrence count, total and self wall time, mean duration —
    aggregated over repeated span patterns (``job[17]`` folds into
    ``job[*]``), ordered by where the time actually went.

    Usage example::

        python -m repro sweep --points 25 --trace sweep.jsonl
        python -m repro trace summarize sweep.jsonl
    """
    from .obs import summary_table
    from .reporting.export import trace_from_jsonl

    trace = trace_from_jsonl(_read_text(args.trace_file, what="trace"))
    header, rows = summary_table(trace)
    print(ascii_table(header, rows,
                      title=f"Trace summary ({len(trace)} spans)"))
    return 0


def _scenario_overrides(args) -> tuple[str | None, int | None, int | None]:
    """Backend/worker/chunk overrides for the scenario subcommands.

    ``None`` means "use the spec's own default".  A ``--policy`` file
    pins only the fields it actually writes down, so a hand-trimmed
    file (say ``{"n_workers": 2}`` plus the format header) overrides
    exactly what it names — note that ``ExecutionPolicy(...).to_json()``
    writes *every* field and therefore pins all of them.  Explicit
    flags win over the file.  The file's ``seed`` is deliberately
    ignored here: a scenario's seed is part of the spec's
    reproducibility contract (a recorded baseline replays only under
    its own seed), unlike the other subcommands where ``--policy``
    supplies the lot seed.
    """
    import json

    backend, workers = args.backend, args.workers
    chunk = getattr(args, "chunk_size", None)
    if args.policy:
        text = _read_text(args.policy, what="execution policy")
        policy = ExecutionPolicy.from_json(text)  # full strict validation
        present = set(json.loads(text))
        if backend is None and "backend" in present:
            backend = policy.backend
        if workers is None and "n_workers" in present:
            workers = policy.n_workers
        if chunk is None and "chunk_size" in present:
            chunk = policy.chunk_size
    return backend, workers, chunk


def _read_text(path: str, what: str = "scenario spec") -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _add_sweep_grid(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the ``bode`` and ``sweep`` grids."""
    parser.add_argument("--cutoff", type=float, default=1000.0,
                        help="DUT cutoff frequency in Hz (default 1000)")
    parser.add_argument("--q", type=float, default=0.7071,
                        help="DUT quality factor (default Butterworth)")
    parser.add_argument("--f-start", type=float, default=100.0,
                        help="sweep start frequency in Hz")
    parser.add_argument("--f-stop", type=float, default=20_000.0,
                        help="sweep stop frequency in Hz")
    parser.add_argument("--points", type=int, default=11,
                        help="number of log-spaced sweep points")
    parser.add_argument("--m-periods", type=int, default=100,
                        help="evaluation window M in signal periods")
    parser.add_argument("--csv", type=str, default=None,
                        help="also export the sweep as CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2008 analog-BIST network analyzer (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    sub.add_parser("design", help="print the Table I design summary")

    bode = sub.add_parser(
        "bode", help="Bode characterization of an RC low-pass",
        parents=[execution],
    )
    _add_sweep_grid(bode)

    sweep = sub.add_parser(
        "sweep",
        help="engine-batched Bode sweep (parallel workers, cached calibration)",
        parents=[execution],
    )
    _add_sweep_grid(sweep)
    sweep.add_argument("--repeat", type=_positive_int, default=1,
                       help="re-run the sweep N times (exercises the calibration cache)")

    yld = sub.add_parser(
        "yield", help="Monte-Carlo yield analysis through a BIST program",
        parents=[execution],
    )
    yld.add_argument("--cutoff", type=float, default=1000.0,
                     help="nominal DUT cutoff frequency in Hz")
    yld.add_argument("--devices", type=int, default=25,
                     help="number of Monte-Carlo devices in the lot")
    yld.add_argument("--sigma", type=float, default=0.03,
                     help="relative 1-sigma component spread")
    yld.add_argument("--tolerance-db", type=float, default=2.0,
                     help="gain mask half-width around the golden device (dB)")
    yld.add_argument("--m-periods", type=int, default=40,
                     help="evaluation window M per test point")
    yld.add_argument("--seed", type=int, default=None,
                     help="lot seed (fixes every component draw; "
                          "default: the policy's seed, 0)")
    yld.add_argument("--ambiguous-passes", action="store_true",
                     help="disposition ambiguous devices as passing")

    coverage = sub.add_parser(
        "coverage", help="fault coverage of a BIST program (engine campaign)",
        parents=[execution],
    )
    _add_fault_catalog(coverage)
    coverage.add_argument("--tolerance-db", type=float, default=2.0,
                          help="gain mask half-width around the golden device (dB)")

    prbist = sub.add_parser(
        "prbist",
        help="pseudorandom BIST: LFSR stimulus + MISR signature coverage",
        parents=[execution],
    )
    _add_fault_catalog(prbist)
    prbist.add_argument("--lfsr-width", type=int, default=10,
                        help="LFSR register width in bits (tabulated "
                             "primitive polynomials: 2..16)")
    prbist.add_argument("--form", choices=("fibonacci", "galois"),
                        default="fibonacci",
                        help="LFSR feedback structure (same m-sequence)")
    prbist.add_argument("--patterns", type=_positive_int, default=6,
                        help="pseudorandom patterns (stimulus tones) to draw")
    prbist.add_argument("--misr-width", type=int, default=16,
                        help="MISR signature width in bits (aliasing "
                             "probability is bounded by 2^-width)")
    prbist.add_argument("--seed", type=int, default=None,
                        help="campaign seed (fixes the LFSR start state; "
                             "default: the policy's seed, 0)")

    diagnose_cmd = sub.add_parser(
        "diagnose", help="dictionary-based fault diagnosis of an injected fault",
        parents=[execution],
    )
    _add_fault_catalog(diagnose_cmd)
    diagnose_cmd.add_argument("--inject", type=str, default="r2+50%",
                              help="catalog label of the fault to inject "
                                   "('nominal' for the good device)")
    diagnose_cmd.add_argument("--points", type=int, default=8,
                              help="candidate sweep points for the dictionary")
    diagnose_cmd.add_argument("--decades", type=float, default=1.5,
                              help="candidate sweep span around the cutoff")
    diagnose_cmd.add_argument("--probes", type=int, default=3,
                              help="probe frequencies the diagnosis measures")
    diagnose_cmd.add_argument("--top", type=int, default=5,
                              help="ranked candidates to print")
    diagnose_cmd.add_argument("--dictionary", type=str, default=None,
                              help="also export the production dictionary "
                                   "as JSON to this path")

    distortion = sub.add_parser(
        "distortion", help="HD2/HD3 measurement", parents=[execution]
    )
    distortion.add_argument("--cutoff", type=float, default=1000.0)
    distortion.add_argument("--fwave", type=float, nargs="+", default=[1600.0],
                            help="stimulus frequencies (one engine job each)")
    distortion.add_argument("--amplitude", type=float, default=0.4)
    distortion.add_argument("--hd2", type=float, default=-57.0)
    distortion.add_argument("--hd3", type=float, default=-64.5)
    distortion.add_argument("--m-periods", type=int, default=400)
    distortion.add_argument("--csv", type=str, default=None)

    dynamic = sub.add_parser(
        "dynamic-range", help="dynamic range figures", parents=[execution]
    )
    dynamic.add_argument("--m-periods", type=int, default=200)
    dynamic.add_argument("--fwave", type=float, default=1000.0)

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative scenarios: run/record/check whole test programs",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )

    run_p = scenarios_sub.add_parser(
        "run", help="compile and execute a scenario spec", parents=[execution]
    )
    run_p.add_argument("spec", help="path to a scenario spec (JSON)")

    record_p = scenarios_sub.add_parser(
        "record", help="run a spec and write its golden baseline artifact",
        parents=[execution],
    )
    record_p.add_argument("spec", help="path to a scenario spec (JSON)")
    record_p.add_argument("--out", default=None,
                          help="baseline path (default: <scenario name>.json)")

    check_p = scenarios_sub.add_parser(
        "check", help="replay a recorded baseline and report drift",
        parents=[execution],
    )
    check_p.add_argument("baseline", help="path to a recorded baseline (JSON)")
    check_p.add_argument("--update", action="store_true",
                         help="re-record the baseline in place when drift "
                              "is found (after an intentional change)")

    lint_p = sub.add_parser(
        "lint",
        help="repo-aware static analysis (REP001-REP005 contract rules)",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src tests benchmarks)")
    lint_p.add_argument(
        "--baseline", default=None, metavar="BASELINE_JSON",
        help="grandfather baseline file; its entries absorb matching "
             "findings (multiset) and stale entries are reported")
    lint_p.add_argument(
        "--write-baseline", default=None, metavar="BASELINE_JSON",
        help="record the current findings as the new baseline and exit 0")
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (codes + one-line summaries) and exit")

    serve_p = sub.add_parser(
        "serve",
        help="serve the analyzer as a localhost job service "
             "(see repro.service)",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = ephemeral, printed "
                              "on startup)")
    serve_p.add_argument("--max-running", type=int, default=2,
                         help="jobs executing concurrently (default 2)")
    serve_p.add_argument("--status", action="store_true",
                         help="query a running server's health snapshot "
                              "(canonical JSON) and exit")

    trace_p = sub.add_parser(
        "trace",
        help="inspect trace files recorded with --trace (see repro.obs)",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    summarize_p = trace_sub.add_parser(
        "summarize",
        help="per-span wall-time/count table of a recorded trace",
    )
    summarize_p.add_argument(
        "trace_file", help="path to a trace written by --trace PATH.jsonl"
    )

    return parser


def _add_fault_catalog(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the fault-campaign subcommands."""
    parser.add_argument("--cutoff", type=float, default=1000.0,
                        help="nominal DUT cutoff frequency in Hz")
    parser.add_argument("--deviations", type=float, nargs="+", default=[0.2, 0.5],
                        help="parametric deviation magnitudes (each applied +/-)")
    parser.add_argument("--catastrophic", action="store_true",
                        help="also include short/open faults for every component")
    parser.add_argument("--m-periods", type=int, default=40,
                        help="evaluation window M per probe point")


_COMMANDS = {
    "design": _cmd_design,
    "bode": _cmd_bode,
    "sweep": _cmd_sweep,
    "yield": _cmd_yield,
    "coverage": _cmd_coverage,
    "prbist": _cmd_prbist,
    "diagnose": _cmd_diagnose,
    "distortion": _cmd_distortion,
    "dynamic-range": _cmd_dynamic_range,
    "scenarios": _cmd_scenarios,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


class _InvocationRecorder(TraceRecorder):
    """A trace recorder that keeps every metric registry attached to it
    alive.  A :class:`~repro.obs.TraceRecorder` holds registries weakly,
    and the sessions a subcommand builds are gone by the time the
    invocation's trace is written; one invocation attaches few."""

    def __init__(self) -> None:
        super().__init__()
        self._kept: list = []

    def attach_metrics(self, registry) -> None:
        super().attach_metrics(registry)
        self._kept.append(registry)


def main(argv=None) -> int:
    """Entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return _COMMANDS[args.command](args)

    from .reporting.export import trace_to_jsonl

    # One recorder for the whole invocation: the session (or scenario
    # harness) the subcommand builds picks it up via args._obs, and the
    # file is written even when the command fails partway — a trace of
    # a failed run is exactly when you want one.
    recorder = _InvocationRecorder()
    args._obs = recorder
    try:
        return _COMMANDS[args.command](args)
    finally:
        with open(trace_path, "w") as handle:
            handle.write(trace_to_jsonl(recorder.trace()))
        print(f"wrote trace {trace_path}")


if __name__ == "__main__":
    sys.exit(main())
