"""Production go/no-go BIST with fault coverage — the paper's motivation.

Section I frames the analyzer as a BIST block: move the frequency-
response test on chip, keep only a slow digital interface to the ATE.
This example closes that loop:

1. derive a spec mask from the golden DUT (+/-2 dB at three test tones);
2. run the go/no-go program on a good device -> pass;
3. run it on devices with injected parametric faults -> fail;
4. sweep a standard fault catalog and report coverage.

Run:  python examples/bist_go_nogo.py
"""

from repro import AnalyzerConfig, NetworkAnalyzer
from repro.bist import BISTProgram, SpecMask, fault_coverage
from repro.dut import ActiveRCLowpass
from repro.dut.faults import fault_catalog

TEST_FREQUENCIES = [300.0, 1000.0, 2000.0]


def main() -> None:
    golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
    mask = SpecMask.from_golden(golden, TEST_FREQUENCIES, tolerance_db=2.0)
    program = BISTProgram(mask, TEST_FREQUENCIES, m_periods=40)
    print(
        f"test program: {len(TEST_FREQUENCIES)} tones, M = 40 periods each, "
        f"+/-2 dB limits"
    )

    # Good device.
    analyzer = NetworkAnalyzer(golden, AnalyzerConfig.ideal(m_periods=40))
    report = program.run(analyzer)
    print(f"\ngood device verdict: {report.verdict.upper()}")
    for point in report.points:
        print(
            f"  {point.frequency:7.0f} Hz: measured "
            f"[{point.gain_db_lower:+6.2f}, {point.gain_db_upper:+6.2f}] dB "
            f"within [{point.limit_lo_db:+6.2f}, {point.limit_hi_db:+6.2f}] "
            f"-> {point.verdict}"
        )

    # One obviously bad device.
    faulty = golden.with_fault("c2", 0.5)
    report_bad = program.run(NetworkAnalyzer(faulty, AnalyzerConfig.ideal(m_periods=40)))
    print(f"\nfaulty device ({faulty.name}) verdict: {report_bad.verdict.upper()}")
    for point in report_bad.failed_points:
        print(
            f"  FAIL at {point.frequency:.0f} Hz: "
            f"[{point.gain_db_lower:+6.2f}, {point.gain_db_upper:+6.2f}] dB "
            f"outside [{point.limit_lo_db:+6.2f}, {point.limit_hi_db:+6.2f}]"
        )

    # Coverage over the standard catalog (+/-20 %, +/-50 % per component).
    catalog = fault_catalog()
    print(f"\nevaluating coverage over {len(catalog)} single-component faults...")
    coverage = fault_coverage(golden, catalog, program)
    print(
        f"fault coverage: {coverage.coverage:.0%} hard-fail, "
        f"{coverage.flagged:.0%} flagged (fail or inconclusive)"
    )
    if coverage.escapes:
        escaped = ", ".join(t.fault.label for t in coverage.escapes)
        print(f"test escapes (small parametric shifts): {escaped}")

    # Monte-Carlo production lot: yield, escapes, overkill.
    from repro.bist import run_yield_analysis

    print("\nsimulating a 24-device lot with 6% component spread...")
    lot = run_yield_analysis(
        golden.components,
        mask,
        program,
        n_devices=24,
        component_sigma=0.06,
        seed=5,
    )
    print(
        f"test yield {lot.test_yield:.0%} vs true yield {lot.true_yield:.0%}; "
        f"escapes {lot.escape_rate:.0%}, overkill {lot.overkill_rate:.0%}, "
        f"inconclusive {lot.ambiguous_rate:.0%}"
    )


if __name__ == "__main__":
    main()
