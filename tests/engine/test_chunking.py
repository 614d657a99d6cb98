"""Device-axis chunking: sharded batches change nothing but the footprint.

The contract under test (see :class:`repro.engine.runner.BatchRunner`):
``chunk_size`` shards a batch along its population axis to bound peak
memory, and must be invisible everywhere else — the exact channel
(integer signatures, verdicts) is bit-identical for every chunk size on
every backend, per-job substreams stay pinned to absolute job indices,
and an unchunked run's trace is byte-identical to the pre-chunking
layout (chunk spans appear only when chunking is requested).
"""

import numpy as np
import pytest

from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog
from repro.engine import BatchRunner
from repro.errors import ConfigError
from repro.evaluator import sigma_delta
from repro.obs import TraceRecorder
from repro.sc.opamp import OpAmpModel

from tests.engine.conftest import BLOCK_AT, SPLIT_AT

M = 8
FREQS = (300.0, 1000.0)
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)

#: Both noise sources on: every measurement consumes its job's private
#: substream, so any chunking slip that shifts a substream shows up as
#: a changed integer signature.
NOISY = AnalyzerConfig.ideal(
    m_periods=M,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    evaluator_opamp=OpAmpModel(noise_rms=100e-6),
    noise_seed=3,
)

#: Finite gain and incomplete settling in the evaluator: the only
#: channels the device-axis loop and the per-device modulator still
#: serve (noise-only ones take the verified speculation at every size).
#: Random power-up states and millivolt channel noise make every draw of
#: a job stream move its counts, so a slip in the order a looped call
#: draws its streams changes the exact channel.
LOOPED = AnalyzerConfig.ideal(
    m_periods=M,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    evaluator_opamp=OpAmpModel(dc_gain=3000.0, settling_error=1e-3, noise_rms=2e-3),
    noise_seed=3,
    random_modulator_state=True,
)


#: Ideal modulator channels on per-device noisy stimuli with random
#: power-up states: under ``slot_block`` every ``BLOCK_AT``-device block
#: draws its devices' renders and power-up states, and the drive is high
#: enough that catalog faults overload the modulator in later blocks.
BLOCKED = AnalyzerConfig.ideal(
    m_periods=M,
    stimulus_amplitude=0.48,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    noise_seed=3,
    random_modulator_state=True,
)


def catalog():
    deviations = [-0.4, -0.2, 0.2, 0.4]
    return [GOLDEN] + [f.apply(GOLDEN) for f in fault_catalog(deviations)]


def fault_signatures(trials):
    return [[m.output.signature for m in trial] for trial in trials]


#: Backend cases for the invariance tests: the vectorized backend runs
#: once with the shipped strategy boundary and once split at
#: ``SPLIT_AT`` (see ``conftest.py``), so chunked runs of the ``LOOPED``
#: analyzer put its slots on both sides of it (``NOISY`` slots take the
#: same path either way); ``blocked`` runs the ideal-channel
#: ``BLOCKED`` analyzer in ``BLOCK_AT``-device blocks, so chunk edges
#: fall mid-block and slots end in partial blocks.
BACKEND_CASES = pytest.mark.parametrize(
    ("backend", "config", "slot_split", "slot_block"),
    [
        ("reference", NOISY, None, None),
        ("vectorized", NOISY, None, None),
        ("vectorized", NOISY, SPLIT_AT, None),
        ("vectorized", BLOCKED, None, BLOCK_AT),
        ("reference", LOOPED, None, None),
        ("vectorized", LOOPED, None, None),
        ("vectorized", LOOPED, SPLIT_AT, None),
    ],
    ids=[
        "reference",
        "vectorized",
        "vectorized-split",
        "blocked",
        "looped-reference",
        "looped",
        "looped-split",
    ],
    indirect=["slot_split", "slot_block"],
)


class TestExactChannelInvariance:
    @BACKEND_CASES
    def test_fault_trials_chunking_invariant(
        self, backend, config, slot_split, slot_block
    ):
        duts = catalog()
        unchunked = fault_signatures(
            BatchRunner(backend=backend).run_fault_trials(
                duts, config, FREQS, m_periods=M
            )
        )
        for chunk in (1, 2, 3, len(duts), 100):
            chunked = fault_signatures(
                BatchRunner(backend=backend, chunk_size=chunk).run_fault_trials(
                    duts, config, FREQS, m_periods=M
                )
            )
            assert chunked == unchunked

    def test_blocked_catalog_overloads_in_a_later_block(self):
        """The ``blocked`` fault case reaches the ideal channels' scalar
        overload fallback beyond the first block, on the reference
        backend's own counts."""
        trials = BatchRunner().run_fault_trials(
            catalog(), BLOCKED, FREQS, m_periods=M
        )
        overloaded = [
            i
            for i, trial in enumerate(trials)
            if any(m.output.signature.overload_count for m in trial)
        ]
        assert any(i >= BLOCK_AT for i in overloaded), overloaded

    def test_fault_trials_cross_backend_cross_chunk(self, monkeypatch):
        """Any (backend, chunk) pair lands on the same exact channel,
        with the vectorized chunks on either modulator strategy."""
        duts = catalog()
        for config in (NOISY, LOOPED):
            reference = fault_signatures(
                BatchRunner(chunk_size=4).run_fault_trials(
                    duts, config, FREQS, m_periods=M
                )
            )
            for split in (sigma_delta._BATCH_MIN_DEVICES, SPLIT_AT):
                monkeypatch.setattr(sigma_delta, "_BATCH_MIN_DEVICES", split)
                chunked = fault_signatures(
                    BatchRunner(backend="vectorized", chunk_size=3).run_fault_trials(
                        duts, config, FREQS, m_periods=M
                    )
                )
                assert chunked == reference

    @BACKEND_CASES
    def test_sweep_chunking_invariant(
        self, backend, config, slot_split, slot_block
    ):
        frequencies = [200.0, 500.0, 1000.0, 2000.0, 4000.0]
        unchunked = [
            m.output.signature
            for m in BatchRunner(backend=backend).run_sweep(
                GOLDEN, config, frequencies, m_periods=M
            )
        ]
        for chunk in (1, 2, 3):
            chunked = [
                m.output.signature
                for m in BatchRunner(backend=backend, chunk_size=chunk).run_sweep(
                    GOLDEN, config, frequencies, m_periods=M
                )
            ]
            assert chunked == unchunked

    @BACKEND_CASES
    def test_monte_carlo_lot_chunking_invariant(
        self, backend, config, slot_split, slot_block
    ):
        nominal = design_mfb_lowpass(1000.0)
        frequencies = [1000.0]
        mask = SpecMask.from_golden(
            ActiveRCLowpass(nominal), frequencies, tolerance_db=2.0
        )
        program = BISTProgram(mask, frequencies, m_periods=M)
        kwargs = dict(
            n_devices=14, component_sigma=0.05, seed=11, config=config
        )

        unchunked = BatchRunner(backend=backend).run_trials(
            nominal, mask, program, **kwargs
        )
        for chunk in (1, 5, 14, 50):
            chunked = BatchRunner(backend=backend, chunk_size=chunk).run_trials(
                nominal, mask, program, **kwargs
            )
            assert chunked == unchunked

    @pytest.mark.parametrize(
        ("config", "slot_split"),
        [
            (AnalyzerConfig.ideal(m_periods=M), None),
            (NOISY, None),
            (NOISY, SPLIT_AT),
            (LOOPED, None),
            (LOOPED, SPLIT_AT),
        ],
        ids=["ideal", "noisy", "noisy-split", "looped", "looped-split"],
        indirect=["slot_split"],
    )
    def test_mixed_pole_lot_matches_reference(self, config, slot_split):
        """The stacked DUT kernel keeps a chunked lot on the reference's
        exact channel when real-pole and complex-pole devices share a
        stack (a critically damped nominal spreads across both)."""
        nominal = design_mfb_lowpass(1000.0, q=0.5)
        frequencies = [300.0, 1000.0, 2000.0]
        mask = SpecMask.from_golden(
            ActiveRCLowpass(nominal), frequencies, tolerance_db=0.5
        )
        program = BISTProgram(mask, frequencies, m_periods=M)
        n_devices, sigma, seed = 23, 0.05, 2
        rng = np.random.default_rng(seed)
        drawn = [
            ActiveRCLowpass(nominal.with_tolerance(sigma, rng))
            for _ in range(n_devices)
        ]
        real = [not np.any(d.state_space().poles.imag) for d in drawn]
        assert any(real) and not all(real)
        kwargs = dict(
            n_devices=n_devices, component_sigma=sigma, seed=seed, config=config
        )

        reference = BatchRunner(backend="reference").run_trials(
            nominal, mask, program, **kwargs
        )
        truly_good = [good for _, good in reference]
        assert any(truly_good) and not all(truly_good)
        for chunk in (1, 7, n_devices):
            vectorized = BatchRunner(
                backend="vectorized", chunk_size=chunk
            ).run_trials(nominal, mask, program, **kwargs)
            assert vectorized == reference

    def test_start_index_offsets_compose_with_chunking(self):
        """A sharded campaign slice stays on its absolute substreams."""
        duts = catalog()
        whole = fault_signatures(
            BatchRunner(backend="vectorized", chunk_size=2).run_fault_trials(
                duts, NOISY, FREQS, m_periods=M
            )
        )
        tail = fault_signatures(
            BatchRunner(backend="vectorized", chunk_size=2).run_fault_trials(
                duts[2:], NOISY, FREQS, m_periods=M, start_index=2
            )
        )
        assert tail == whole[2:]


class TestChunkSpans:
    def chunk_payloads(self, chunk_size):
        recorder = TraceRecorder()
        runner = BatchRunner(
            backend="vectorized", chunk_size=chunk_size, obs=recorder
        )
        runner.run_fault_trials(catalog()[:5], NOISY, FREQS, m_periods=M)
        return [
            (s["exact"]["index"], s["exact"]["start"], s["exact"]["n_jobs"])
            for s in recorder.trace().spans
            if s["kind"] == "engine.chunk"
        ]

    def test_chunked_batch_emits_chunk_spans(self):
        assert self.chunk_payloads(chunk_size=2) == [
            (0, 0, 2),
            (1, 2, 2),
            (2, 4, 1),
        ]

    def test_unchunked_trace_has_no_chunk_spans(self):
        """chunk_size=None reproduces the pre-chunking trace layout."""
        assert self.chunk_payloads(chunk_size=None) == []

    def test_oversized_chunk_covers_batch_in_one_span(self):
        assert self.chunk_payloads(chunk_size=100) == [(0, 0, 5)]


class TestValidation:
    @pytest.mark.parametrize("chunk", [0, -1, 2.5, "8", True])
    def test_runner_rejects_bad_chunk_size(self, chunk):
        with pytest.raises(ConfigError, match="chunk_size"):
            BatchRunner(chunk_size=chunk)

    def test_none_means_unchunked(self):
        assert BatchRunner().chunk_size is None
