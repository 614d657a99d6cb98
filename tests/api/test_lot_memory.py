"""What a retained yield lot costs in memory.

A lot's result keeps its per-device columns once: the exact channel
holds the :class:`~repro.bist.montecarlo.YieldReport`'s own lists, and
every verdict is one of three shared strings.  Two pointers per device
is the floor for two JSON list columns, so the bound below allows
little more than that.
"""

import gc
import tracemalloc

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass

DEVICES = 1500
FREQS = [300.0, 1000.0, 2000.0]


def lot(session, nominal, mask, program, n_devices, seed):
    return session.yield_lot(
        nominal, mask, program, n_devices=n_devices, component_sigma=0.04, seed=seed
    )


def test_a_lot_keeps_one_copy_of_its_columns():
    nominal = design_mfb_lowpass(1000.0)
    mask = SpecMask.from_golden(ActiveRCLowpass(nominal), FREQS, tolerance_db=2.0)
    program = BISTProgram(mask, FREQS, m_periods=8)
    session = Session(
        config=AnalyzerConfig.ideal(m_periods=8),
        policy=ExecutionPolicy(backend="vectorized"),
    )
    lot(session, nominal, mask, program, 40, seed=1)  # warm every cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = lot(session, nominal, mask, program, DEVICES, seed=2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    report = result.raw
    assert result.exact["verdicts"] is report.verdicts
    assert result.exact["truly_good"] is report.truly_good
    assert {id(v) for v in report.verdicts} <= {id(v) for v in ("pass", "fail", "ambiguous")}
    assert retained < 20 * DEVICES + 16_384, retained
