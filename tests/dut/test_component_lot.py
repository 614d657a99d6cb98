"""A component lot in arrays against per-device builds, bit for bit.

The vectorized backend draws each chunk of a yield lot as one ``(n x 5)``
component array and goes straight to the stacked model
(:func:`repro.dut.active_rc.lot_population`); the reference backend
builds one :class:`ActiveRCLowpass` per device.  The draws, the MFB
matrices, the poles, the settling times and the truly-good verdicts must
be the very floats the per-device path produces, the RNG must end in the
same state, and a draw that goes non-positive must fail with the same
error at the same chunk on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bist.limits import SpecMask
from repro.bist.montecarlo import _truly_good
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import (
    ActiveRCLowpass,
    FilterComponents,
    design_mfb_lowpass,
    lot_population,
    mfb_state_space,
)
from repro.dut.statespace import stack_population
from repro.engine import runner as runner_module
from repro.engine import vectorized
from repro.engine.runner import BatchRunner
from repro.errors import ConfigError

NOMINAL = design_mfb_lowpass(1000.0)
LOW_Q = design_mfb_lowpass(1000.0, q=0.5)  # spreads across real and complex poles
PROBES = (300.0, 1000.0, 2000.0)
TOLERANCES = (1e-6, 1e-8, 0.01)


def per_device_lot(nominal, sigma, rng, n):
    return [ActiveRCLowpass(nominal.with_tolerance(sigma, rng)) for _ in range(n)]


def assert_same_state(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


class TestDraw:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.integers(1, 9), min_size=1, max_size=5),
        sigma=st.sampled_from([0.0, 0.01, 0.04, 0.1]),
    )
    def test_chunked_draws_match_with_tolerance(self, seed, chunks, sigma):
        """Chunk after chunk from one RNG gives the per-device draws, and
        those are one scalar ``normal`` call per component."""
        lot_rng = np.random.default_rng(seed)
        device_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        names = FilterComponents._NAMES
        drawn = np.vstack([NOMINAL.draw_lot(sigma, lot_rng, n) for n in chunks])
        devices = [NOMINAL.with_tolerance(sigma, device_rng) for _ in range(sum(chunks))]
        scalar = [
            [getattr(NOMINAL, k) * (1.0 + scalar_rng.normal(0.0, sigma)) for k in names]
            for _ in range(sum(chunks))
        ]
        assert drawn.tolist() == scalar
        assert [[getattr(c, k) for k in names] for c in devices] == scalar
        assert_same_state(lot_rng, device_rng)
        assert_same_state(lot_rng, scalar_rng)

    def test_with_tolerance_returns_python_floats(self):
        comps = NOMINAL.with_tolerance(0.05, np.random.default_rng(0))
        assert all(type(getattr(comps, k)) is float for k in FilterComponents._NAMES)


class TestStackedModel:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        nominal=st.sampled_from([NOMINAL, LOW_Q]),
        tolerance=st.sampled_from(TOLERANCES),
    )
    def test_matches_per_device_builds(self, seed, n, nominal, tolerance):
        values = nominal.draw_lot(0.05, np.random.default_rng(seed), n)
        duts = per_device_lot(nominal, 0.05, np.random.default_rng(seed), n)
        stack = mfb_state_space(values)
        poles = np.linalg.eigvals(stack.a)
        population = lot_population(values, tolerance)
        [(rows, lot_stack)] = population.stacks
        assert rows.tolist() == list(range(n))
        for field in ("a", "b", "c", "d"):
            assert getattr(lot_stack, field).tobytes() == getattr(stack, field).tobytes()
        for i, dut in enumerate(duts):
            model = dut.state_space()
            assert stack.a[i].tobytes() == model.a.tobytes()
            assert stack.b[i].tobytes() == model.b.tobytes()
            assert stack.c[i].tobytes() == model.c.tobytes()
            assert stack.d[i] == model.d
            assert np.array_equal(poles[i], model.poles)
            assert population.settle[i] == dut.settling_time(tolerance)
        assert population.continuous.all() and not population.others

    def test_mixes_real_and_complex_poles(self):
        values = LOW_Q.draw_lot(0.05, np.random.default_rng(2), 23)
        poles = np.linalg.eigvals(mfb_state_space(values).a)
        real = ~np.any(poles.imag, axis=1)
        assert real.any() and not real.all()

    def test_population_matches_stacked_dut_list(self):
        values = NOMINAL.draw_lot(0.06, np.random.default_rng(4), 30)
        duts = per_device_lot(NOMINAL, 0.06, np.random.default_rng(4), 30)
        lot = lot_population(values, 1e-6)
        stacked = stack_population(duts, 1e-6)
        [(_, a)], [(_, b)] = lot.stacks, stacked.stacks
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert lot.settle.tobytes() == stacked.settle.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           tolerance_db=st.sampled_from([0.5, 1.0, 2.0]))
    def test_truly_good_matches_per_device(self, seed, n, tolerance_db):
        mask = SpecMask.from_golden(
            ActiveRCLowpass(NOMINAL), PROBES, tolerance_db=tolerance_db
        )
        values = NOMINAL.draw_lot(0.06, np.random.default_rng(seed), n)
        duts = per_device_lot(NOMINAL, 0.06, np.random.default_rng(seed), n)
        expected = [
            _truly_good(stack_population([dut], 1e-6), mask, PROBES)[0]
            for dut in duts
        ]
        assert _truly_good(lot_population(values, 1e-6), mask, PROBES) == expected

    def test_one_row_build_is_the_stacked_formula(self):
        dut = ActiveRCLowpass(NOMINAL, polarity=-1)
        row = np.array([[getattr(NOMINAL, k) for k in FilterComponents._NAMES]])
        stack = mfb_state_space(row, polarity=-1)
        assert stack.c[0].tolist() == [0.0, 1.0]
        assert stack.a[0].tobytes() == dut.state_space().a.tobytes()
        assert stack.c[0].tobytes() == dut.state_space().c.tobytes()


class TestErrors:
    def test_unstable_row_names_lot_index(self):
        values = NOMINAL.draw_lot(0.01, np.random.default_rng(0), 5)
        values[2, 2] = -values[2, 2]  # negative r3: a positive real pole
        values[4, 2] = -values[4, 2]
        with pytest.raises(ConfigError, match=r"^device #42: continuous system"):
            lot_population(values, 1e-6, start=40)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_draw_rejects_bad_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be"):
            NOMINAL.draw_lot(sigma, np.random.default_rng(0), 3)
        with pytest.raises(ConfigError, match="sigma must be"):
            NOMINAL.with_tolerance(sigma, np.random.default_rng(0))

    # (seed, first non-positive device): the first bad component is c2
    # (not r1) for seed 18, so the r1..c2 order is exercised.
    @pytest.mark.parametrize("seed,bad_device", [(18, 11), (16, 19)])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_non_positive_draw_fails_alike(self, monkeypatch, seed, bad_device, chunk_size):
        sigma, n_devices = 0.45, 30
        rng = np.random.default_rng(seed)
        for _ in range(bad_device):
            NOMINAL.with_tolerance(sigma, rng)
        with pytest.raises(ConfigError) as per_device:
            NOMINAL.with_tolerance(sigma, rng)
        message = str(per_device.value)
        assert message.startswith("component ")
        assert "np.float64" not in message

        measured = {"reference": 0, "vectorized": 0}
        execute = runner_module.execute_device_trial
        run_vectorized = vectorized.run_trials_vectorized

        def counted_execute(job):
            measured["reference"] += 1
            return execute(job)

        def counted_vectorized(population, *args, **kwargs):
            measured["vectorized"] += len(population)
            return run_vectorized(population, *args, **kwargs)

        monkeypatch.setattr(runner_module, "execute_device_trial", counted_execute)
        monkeypatch.setattr(vectorized, "run_trials_vectorized", counted_vectorized)
        mask = SpecMask.from_golden(ActiveRCLowpass(NOMINAL), PROBES, tolerance_db=2.0)
        program = BISTProgram(mask, PROBES, m_periods=4)
        config = AnalyzerConfig.ideal(m_periods=4)
        for backend in ("reference", "vectorized"):
            runner = BatchRunner(backend=backend, chunk_size=chunk_size)
            with pytest.raises(ConfigError) as lot:
                runner.run_trials(
                    NOMINAL, mask, program, n_devices=n_devices,
                    component_sigma=sigma, seed=seed, config=config,
                )
            assert str(lot.value) == message
        before = 0 if chunk_size is None else bad_device // chunk_size * chunk_size
        assert measured == {"reference": before, "vectorized": before}
