"""The vectorized population backend: whole job sets as array batches.

The reference backend (:mod:`repro.engine.jobs`) simulates one Python
job per device — the right shape for process-parallel fan-out, but on a
single-CPU host the per-job Python overhead is the throughput ceiling.
This backend evaluates an entire population — a Monte-Carlo lot, a fault
catalog, a multi-point sweep — as stacked ``(devices x samples)`` array
operations:

* **One shared stimulus render per batch.**  The generator's sample
  values are clock-invariant (the whole analyzer scales with the master
  clock — the same fact that makes the paper's one-off calibration
  valid), so a single render serves every device and every sweep
  frequency; each job's lead-in is a prefix of the same sequence.
* **The probe axis.**  :meth:`PopulationMeasurer.measure` takes a
  population, a ``(probes x devices)`` tone table and the devices' job
  streams, and measures every ``probes * devices`` row in one call,
  probe-major: row ``p * devices + i`` is device ``i`` at probe ``p``.
  A fault or pseudorandom campaign chunk and a yield-lot chunk make one
  call for all their probe frequencies; a sweep chunk passes one probe
  row whose devices are its points.  The per-call work below (the
  stacked discretization, the interval and compensation chain) is
  therefore paid once per chunk, not once per probe.
* **Stacked DUT kernel.**  A call takes its devices as one
  :class:`~repro.dut.statespace.Population`, built once per chunk:
  state-space models stacked by order, each row's settling time and
  routing.  Sweeps and fault campaigns stack their DUT list
  (:func:`~repro.dut.statespace.stack_population`); a yield lot goes
  from its component draw straight to the stacked form
  (:func:`~repro.dut.active_rc.lot_population`), with no per-device
  DUT objects.  The exact-ZOH z-domain coefficients come from one
  :func:`~repro.dut.statespace.zoh_transfer` call per stack over every
  probe and the truly-good verdicts from one stacked solve per probe
  frequency — the arithmetic the reference backend runs per device,
  one row at a time.  On the per-row path each row then runs its own
  ``lfilter`` over the shared stimulus prefix (minus the final-state
  recovery the population path never observes), its coefficients
  indexed out of the stacked arrays; rows without a model go through
  :meth:`~repro.dut.base.DUT.batch_response`.
* **Closed-form window sums.**  A call without job streams whose two
  channels are ideal counts each state-space stack of at least
  ``_CLOSED_FORM_ROWS`` rows without filtering it
  (:meth:`PopulationMeasurer._closed_form_counts`): an ideal channel's
  count needs only the floors of two prefix sums of its window, and
  :class:`~repro.engine.window_sums.WindowSums` takes both for every
  row at once in closed form — the periodic steady state by Parseval
  over the stimulus period's DFT bins, one geometric transient per
  pole, and a bound, not a computation, for the stimulus's first
  periods.  Each sum comes with a rigorous bound on its distance from
  the per-row path's floating-point sum, and a row is counted from the
  closed form only when it is certainly in range and every floor it
  reads lies further from an integer than that bound.  Every other row
  of the stack (close or repeated poles, near-integer floor arguments,
  a possible overload), narrower stacks, rows without a model, and
  every call with noise streams or non-ideal channels take the per-row
  path.  The measurer's ``engine.closed_form.rows`` and
  ``engine.closed_form.fallback_rows`` counters say how many rows went
  each way.
* **Population-batched modulators.**  Each channel of a row block is
  one call of
  :meth:`~repro.evaluator.sigma_delta.FirstOrderSigmaDelta.signatures`,
  whose module states the branch rule and the kernels it picks.
* **Cache-sized blocks, counted time-major.**  The per-row path fills
  one reused ``(block x mn)`` buffer, one row each; each channel's ``q *``
  modulation writes its working copy transposed, ``(mn x block)``, so a
  time step is a contiguous row for both the closed form and the
  device-axis recurrence.  Ideal or noise-only channels are walked in
  blocks of ``_BLOCK_DEVICES`` probe-major rows, each block's power-up
  states and channel noise drawn and counts taken while its rows are
  still in cache, so no ``(rows x mn)`` matrix exists and the peak
  footprint follows the block, not the call.  The block rule: blocks
  run across probe boundaries, but a block never holds two rows of one
  job stream (with streams, at most ``devices`` rows), so each stream
  is still drawn probe by probe.  The device-axis recurrence of
  finite-gain or incompletely settling channels needs every device at
  once, so there each probe is one block.
* **Array interval arithmetic.**  Signatures become bounded gain/phase
  through :class:`~repro.intervals.BoundedArray` — one set of array
  expressions for every row of a call instead of per-device
  :class:`~repro.intervals.BoundedValue` chains.
  :meth:`PopulationMeasurer.measure` returns its rows in this array
  form; sweeps and fault campaigns box them into per-device
  measurements (:meth:`PopulationMeasurer.box`), while a yield lot
  judges the gain arrays, split per probe, with the go/no-go rule on
  arrays of dB endpoints whose every comparison with a limit is the
  scalar rule's (:func:`repro.bist.program.lot_verdicts`).

Equivalence contract
--------------------
The backend reproduces the reference path's *acquisition* exactly: the
per-job derived noise substreams are consumed in the same order (each
device owns its stream and no block holds two rows of one stream, so
block-by-block draws keep every stream's per-probe render, power-up
state, channel noise order; a call whose devices share a stream is
rejected), the shared stimulus prefix is
bit-identical to each job's private render, a count taken from
closed-form window sums is certified to be the one the per-row path's
``lfilter`` response gives (its floors lie further from an integer
than the bounded distance between the two paths' sums), and the
batched modulators produce bit-identical bitstreams — so the
integer signatures (and verdict-relevant counts) are **exactly equal**
to the reference backend's.  The derived float intervals go through
NumPy's elementwise ``arctan2``/``hypot`` instead of :mod:`math`'s,
which may differ in the last bit; results agree to within a few ulp
(asserted by the equivalence test suite).

Configurations whose *generator* consumes the noise stream (a noisy
``generator_opamp`` with ``noise_seed`` set) cannot share one stimulus
render — each job's stimulus is perturbed by its private substream.
Each device then renders its own stimulus with the row kernel the
reference backend runs, :meth:`~repro.sc.biquad.SCBiquad.render_row`:
its amplifier noise is drawn in bulk from its own job RNG in the
reference draw order, and the recurrence runs on Python floats (a
verified lean loop for ideal amplifiers) for exactly the steps that
device's lead-in needs.  The per-device stimuli
(and hence the integer signatures) are bit-identical to the reference
backend's, so every valid :class:`~repro.core.config.AnalyzerConfig`
runs on this backend.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from ..clocking.master import GENERATOR_STEPS, OVERSAMPLING_RATIO, ClockTree
from ..clocking.sequencer import ModulationSequence
from ..core import compensation
from ..core.calibration import CalibrationResult
from ..core.config import AnalyzerConfig
from ..core.measurement import GainPhaseMeasurement, StimulusMeasurement
from ..dut.statespace import Population, zoh_transfer
from ..errors import ConfigError
from ..evaluator.counters import SignatureCounter
from ..evaluator.dsp import SignatureDSP, correlation_gain, phase_offset
from ..evaluator.evaluator import SinewaveEvaluator
from ..evaluator.signatures import SignaturePair
from ..generator.design import PAPER_CAPACITORS
from ..generator.sinewave_generator import SinewaveGenerator
from ..intervals import BoundedArray, atan2_array, hypot_array
from ..obs.metrics import MetricRegistry
from ..sc.mismatch import MismatchModel
from .seeding import derive_seed
from .window_sums import WindowSums, floors_agree


def _job_rng(
    config: AnalyzerConfig, stream: str, index: int
) -> np.random.Generator | None:
    """The job's private noise generator (None for noise-free configs).

    Seeded exactly as the reference path seeds a fresh analyzer for the
    job (:func:`repro.engine.seeding.config_for_job`), so the substream
    consumed here is the substream the reference job would consume.
    """
    if config.noise_seed is None:
        return None
    return np.random.default_rng(derive_seed(config.noise_seed, stream, index))


def _build_evaluator(config: AnalyzerConfig) -> SinewaveEvaluator:
    """The analyzer's evaluator wiring, without a noise source.

    The same :func:`repro.core.analyzer.build_evaluator` the reference
    path uses; the RNG is deliberately absent — the population path
    draws each job's noise itself, in the reference consumption order.
    """
    from ..core.analyzer import build_evaluator

    return build_evaluator(config, rng=None)


def _modulated(q: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """``q * responses`` for device rows ``(devices x mn)``, written
    time-major ``(mn x devices)``: the modulators' working copy."""
    out = np.empty(responses.shape[::-1])
    np.multiply(responses.T, q[:, None], out=out)
    return out


#: Rows per block of ideal or noise-only channels (see
#: ``PopulationMeasurer._counts``): the block's response rows and the
#: per-channel time-major working copy stay cache-resident instead of
#: streaming a ``(devices x mn)`` matrix through memory.
#: Measured on ``PopulationMeasurer.measure`` for one 5000-device ideal
#: slot (yield_lot shape: m = 20, so mn = 1920; 2-vCPU Xeon with 2 MiB L2
#: per core, CPython 3.11.7, NumPy 2.4.6), median of 9 with the sizes
#: interleaved, block: slot ms / counts ms — 8: 447/199, 16: 418/163,
#: 32: 380/122, 48: 354/113, 64: 352/110, 96: 391/131, 128: 380/133,
#: 256: 379/139, 1024: 412/170, whole slot: 555/285.  48 and 64 tie
#: across repeated sweeps, so the optimum has not moved.
#: EXPERIMENTS.md has the context.
_BLOCK_DEVICES = 64

#: Fewest rows of one state-space stack for which an ideal call counts
#: that stack from closed-form window sums (:meth:`PopulationMeasurer._closed_form_counts`)
#: instead of one ``lfilter`` per row.  The closed form's cost is about
#: 1.7 ms per stack plus ~7 us per row, so narrow stacks lose to the
#: per-row path.  Measured on ``PopulationMeasurer.measure`` for
#: yield_lot-shaped calls (3 probes, m = 20; 2-vCPU Xeon, one BLAS
#: thread, CPython 3.11.7, NumPy 2.4.6), median closed/per-row time
#: ratio of 7 interleaved runs — 12 rows: 1.41, 24: 1.08-1.12, 30: 0.95,
#: 33: 0.92, 36: 0.87, 48: 0.75, 96: 0.53, 384: 0.33, 3000: 0.20.
#: EXPERIMENTS.md has the table.
_CLOSED_FORM_ROWS = 32


class _RowPlan(NamedTuple):
    """A call's rows before filtering: each row's lead-in in periods,
    and row ``r``'s coefficients as row ``position[r]`` of the ``(num,
    den)`` of stack ``stack_of[r]`` (-1: no state-space model).
    ``transfers`` holds each stack's ``(rows, (num, den))``."""

    leads: np.ndarray
    stack_of: np.ndarray
    position: np.ndarray
    transfers: list


class SlotArrays(NamedTuple):
    """One measured call in array form, one element per probe-major row:
    element ``p * devices + i`` is device ``i`` at probe ``p``."""

    tones: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    overload: np.ndarray
    amplitude: BoundedArray
    phase: BoundedArray
    gain: BoundedArray
    phase_rad: BoundedArray


class PopulationMeasurer:
    """Batched gain/phase measurement of a device population.

    One measurer is bound to ``(config, m_periods, calibration)`` — the
    invariants of a campaign — and measures a stacked
    :class:`~repro.dut.statespace.Population` at a ``(probes x
    devices)`` tone table, every row evaluated together as array
    batches.  A fault campaign or yield lot chunk makes one call with
    one probe row per frequency (the device axis is devices); a sweep
    passes one probe row whose devices are the sweep points themselves.

    Each device's ``rng`` is its job's private noise stream (or None);
    it is consumed probe by probe in exactly the order the reference
    per-job path consumes it, which is what makes the batched results
    match the reference backend.

    ``metrics`` receives the ``engine.closed_form.rows`` and
    ``engine.closed_form.fallback_rows`` counters (the runner passes its
    registry).
    """

    def __init__(
        self,
        config: AnalyzerConfig,
        m_periods: int | None,
        calibration: CalibrationResult,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.config = config
        self.m_periods = m_periods if m_periods is not None else config.m_periods
        calibration.check_amplitude_setting(config.stimulus_amplitude)
        self.calibration = calibration
        self.dsp = SignatureDSP(config.epsilon)
        self.evaluator = _build_evaluator(config)
        self.evaluator.validate_window(self.m_periods, 1)
        self.mn = self.m_periods * OVERSAMPLING_RATIO
        sequence = ModulationSequence(OVERSAMPLING_RATIO, 1)
        q1, q2 = sequence.pair(self.mn)
        if config.chopped:
            chop = SignatureCounter.chop_signs(self.mn)
            q1 = q1 * chop
            q2 = q2 * chop
        self._q1 = np.asarray(q1, dtype=float)
        self._q2 = np.asarray(q2, dtype=float)
        self._has_rng = config.noise_seed is not None
        self._noisy_generator = (
            self._has_rng
            and config.generator_opamp is not None
            and config.generator_opamp.noise_rms != 0.0
        )
        # Channels that are not leak-free step through time across every
        # column of a call: each probe is one block.
        channels = (self.evaluator.channel1, self.evaluator.channel2)
        self._looped_channels = not all(
            channel.is_leak_free() for channel in channels
        )
        # Both channels take the closed form for every in-range window
        # of a call without job streams: such calls count state-space
        # rows from closed-form window sums (see _counts).
        self._closed_channels = all(
            channel.vectorized
            and channel.is_ideal(False)
            and channel.vref == self.evaluator.vref
            for channel in channels
        )
        # Built on first use for the current render (_closed_form):
        # only calls with a wide enough stack need it.
        self._window_sums: WindowSums | None = None
        self._window_sums_lock = threading.Lock()
        metrics = metrics if metrics is not None else MetricRegistry()
        self._closed_rows = metrics.counter("engine.closed_form.rows")
        self._fallback_rows = metrics.counter("engine.closed_form.fallback_rows")
        self._generator: SinewaveGenerator | None = None
        self._stimulus = np.empty(0)

    # ------------------------------------------------------------------
    # Shared stimulus
    # ------------------------------------------------------------------
    def _build_generator(self) -> SinewaveGenerator:
        """The campaign's generator die (noise-free template).

        Built exactly as the reference analyzer builds one — same
        mismatched die (a fresh :class:`~repro.sc.mismatch.MismatchModel`
        from the config's template reproduces the seeded perturbations),
        same amplitude programming — but with no RNG: the noisy path
        draws each job's noise itself, in the reference order.
        """
        config = self.config
        template = config.mismatch
        mismatch = (
            MismatchModel(sigma_unit=template.sigma_unit, seed=template.seed)
            if template is not None
            else None
        )
        generator = SinewaveGenerator(
            ClockTree.from_fwave(1000.0),
            opamp1=config.generator_opamp,
            opamp2=config.generator_opamp,
            mismatch=mismatch,
            rng=None,
        )
        generator.set_amplitude(config.stimulus_amplitude)
        return generator

    def reserve(self, population: Population, fwaves) -> None:
        """Prepare the shared stimulus for a call: call before measuring.

        The generator's sample values depend only on the period count —
        not on the master clock (every internal rate is a fixed ratio of
        it) and, for noise-free generators, not on the job — and a
        longer render extends a shorter one sample-for-sample (the
        recurrences are causal).  One cached render of the worst
        lead-in of ``population`` at ``fwaves`` therefore serves every
        device, lead-in and probe of its calls as a prefix.  A noisy
        generator renders per device from the template die built here
        (see :meth:`_noisy_held`).

        This is the only method that changes the render: it only ever
        grows, so :meth:`measure` calls running concurrently on one
        measurer (the chunks of one batch on a thread pool) only read
        it, provided each call was reserved before it was handed out.
        The closed form's shared part for the render is built under a
        lock on first use (:meth:`_closed_form`).
        """
        fwaves = [float(f) for f in fwaves]
        if self._generator is None:
            self._generator = self._build_generator()
        if not fwaves or self._noisy_generator:
            return
        worst_seconds = float(population.settle.max()) if len(population) else 0.0
        n_periods = int(math.ceil(worst_seconds * max(fwaves))) + self.m_periods
        if len(self._stimulus) < n_periods * OVERSAMPLING_RATIO:
            self._stimulus = self._generator.render_held(
                n_periods=n_periods,
                settle_periods=self.config.generator_settle_periods,
            ).samples

    # ------------------------------------------------------------------
    # One batched call
    # ------------------------------------------------------------------
    def measure(self, population: Population, tones, rngs) -> SlotArrays:
        """Measure ``population`` at every probe of ``tones``, batched.

        ``tones`` is a ``(probes x devices)`` table (a flat sequence is
        one probe): row ``p`` holds each device's tone at probe ``p``.
        ``rngs[i]`` is device ``i``'s job noise stream (or None), drawn
        probe by probe in the reference order.  The result's rows are
        probe-major: row ``p * devices + i`` is device ``i`` at probe
        ``p``.  It stays in array form: sweeps and fault campaigns box
        it per row (:meth:`box`); a yield lot reads only the gain
        bounds, so it takes the arrays as they are.
        """
        tones = np.array(tones, dtype=float, ndmin=2)
        rngs = list(rngs)
        devices = len(population)
        if not devices:
            raise ConfigError("population slot is empty")
        if (
            tones.ndim != 2
            or not len(tones)
            or tones.shape[1] != devices
            or len(rngs) != devices
        ):
            raise ConfigError(
                f"population slot of {devices} devices got a {tones.shape} "
                f"tone table and {len(rngs)} noise streams"
            )
        streams = [rng for rng in rngs if rng is not None]
        if len({id(rng) for rng in streams}) != len(streams):
            # Each block draws its rows' streams (render, power-up
            # state, channel noise) before the next block's, at most one
            # row per device: that is each job's reference order only
            # if no two devices share a stream.
            raise ConfigError("population slot entries must not share a noise stream")
        probes = len(tones)
        i1, i2, overload = self._counts(population, tones, rngs)
        amplitude, phase = self._intervals(i1, i2)
        if self.config.image_compensation:
            amplitude, phase = self._compensate(
                amplitude, phase, np.tile(population.continuous, probes)
            )
        return SlotArrays(
            tones=tones.ravel(),
            i1=i1,
            i2=i2,
            overload=overload,
            amplitude=amplitude,
            phase=phase,
            gain=amplitude.div_scalar(self.calibration.amplitude).clamp_nonnegative(),
            phase_rad=phase.sub_scalar(self.calibration.phase),
        )

    def box(self, slot: SlotArrays) -> list[GainPhaseMeasurement]:
        """A measured call as one :class:`GainPhaseMeasurement` per row."""
        config = self.config
        results = []
        for i, fwave in enumerate(slot.tones.tolist()):
            signature = SignaturePair(
                i1=int(slot.i1[i]),
                i2=int(slot.i2[i]),
                harmonic=1,
                m_periods=self.m_periods,
                oversampling_ratio=OVERSAMPLING_RATIO,
                vref=config.vref,
                chopped=config.chopped,
                overload_count=int(slot.overload[i]),
            )
            output = StimulusMeasurement(
                fwave=fwave,
                amplitude=slot.amplitude.item(i),
                phase=slot.phase.item(i),
                signature=signature,
            )
            reference = StimulusMeasurement(
                fwave=fwave,
                amplitude=self.calibration.amplitude,
                phase=self.calibration.phase,
                signature=signature,
            )
            results.append(
                GainPhaseMeasurement(
                    fwave=fwave,
                    gain=slot.gain.item(i),
                    phase_rad=slot.phase_rad.item(i),
                    output=output,
                    reference=reference,
                )
            )
        return results

    def _counts(
        self, population: Population, tones: np.ndarray, rngs: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's signature and overload counts.

        In a call without job streams whose channels are both ideal,
        each state-space stack of at least ``_CLOSED_FORM_ROWS`` rows is
        counted from closed-form window sums where they certify a row's
        floors (:meth:`_closed_form_counts`); its other rows, and every
        other row, take the per-row path below.

        The per-row path walks blocks of ``_BLOCK_DEVICES`` rows, in
        probe-major order, through one reused response buffer and counts
        each block while it is still in cache: ideal and noise-only
        channels treat every row on its own.  Blocks run across probe
        boundaries, but a block whose rows carry noise streams holds at
        most one probe's worth of rows, so no block holds two rows of one
        stream and each stream is drawn probe by probe.  The device-axis
        recurrence of finite-gain or incompletely settling channels needs
        every device at once, so there each probe is one block.
        """
        probes, devices = tones.shape
        n_rows = probes * devices
        plan = self._row_plan(population, tones)
        fill = self._row_filler(population, plan, tones, rngs)
        i1 = np.empty(n_rows, dtype=np.int64)
        i2 = np.empty(n_rows, dtype=np.int64)
        overload = np.empty(n_rows, dtype=np.int64)
        pending = np.ones(n_rows, dtype=bool)
        if self._closed_channels and all(rng is None for rng in rngs):
            for rows, (num, den) in plan.transfers:
                if len(rows) < _CLOSED_FORM_ROWS:
                    continue
                counts, certified = self._closed_form_counts(
                    num, den, plan.leads[rows], np.zeros(len(rows))
                )
                done = rows[certified]
                i1[done], i2[done] = counts
                overload[done] = 0
                pending[done] = False
                self._closed_rows.inc(len(done))
                self._fallback_rows.inc(len(rows) - len(done))
        rest = np.flatnonzero(pending)
        if self._looped_channels:
            block = devices
        elif any(rng is not None for rng in rngs):
            block = min(_BLOCK_DEVICES, devices)
        else:
            block = _BLOCK_DEVICES
        buffer = np.empty((min(block, len(rest)), self.mn))
        for start in range(0, len(rest), block):
            rows = rest[start : start + block]
            responses = buffer[: len(rows)]
            fill(rows, responses)
            i1[rows], i2[rows], overload[rows] = self._block_counts(
                [rngs[r % devices] for r in rows.tolist()], responses
            )
        return i1, i2, overload

    def _closed_form(self) -> WindowSums:
        """The closed form's shared part for the current render
        (:class:`~repro.engine.window_sums.WindowSums`: the stimulus
        period, its measured deviation in the first periods, the
        Parseval vectors), built on first use.  A stale one, for a
        shorter render, is replaced, never cleared: calls reserved
        earlier may still be reading it, and it covers their rows."""
        stimulus = self._stimulus
        with self._window_sums_lock:
            if self._window_sums is None or self._window_sums.samples < len(stimulus):
                self._window_sums = WindowSums(
                    stimulus,
                    np.stack([self._q1, self._q2]),
                    self.evaluator.vref,
                    OVERSAMPLING_RATIO,
                )
            return self._window_sums

    def _closed_form_counts(
        self, num: np.ndarray, den: np.ndarray, leads: np.ndarray, u0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both channels' signatures ``(2 x certified rows)`` of one
        stack's rows from their closed-form window sums, with power-up
        states ``u0``, and which rows are certified: in range, in the
        closed-form branch, and with every floor their counts read
        further from an integer than the sums' error bound.
        """
        sums = self._closed_form().sums(num, den, leads)
        certified = sums.in_range.copy()
        chopped = self.config.chopped
        channels = (self.evaluator.channel1, self.evaluator.channel2)
        no_overload = np.zeros(len(leads), dtype=np.int64)
        for c, channel in enumerate(channels):
            certified &= channel._closed_form_columns(True, no_overload, u0)
            y0 = u0 / (2.0 * channel.gain * channel.vref)
            certified &= floors_agree(y0, sums.total[c], sums.total_bound[c])
            if chopped:
                certified &= floors_agree(y0, sums.first[c], sums.first_bound[c])
        counts = [
            channel.window_counts(
                sums.first[c][certified],
                sums.total[c][certified],
                u0[certified],
                self.mn,
                chopped,
            )
            for c, channel in enumerate(channels)
        ]
        return np.stack(counts), certified

    def _block_counts(
        self, rngs: list, responses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One block's counts from its filled response rows."""
        # Per-job RNG consumption, reference order: the render (already
        # drawn by the fill), then power-up states, then channel-1 noise,
        # then channel-2 noise (drawn by each channel's call).
        u0 = np.zeros((len(rngs), 2))
        if self.config.random_modulator_state and self._has_rng:
            bound = 0.5 * self.evaluator.channel1.state_bound
            for i, rng in enumerate(rngs):
                if rng is not None:
                    u0[i, 0] = float(rng.uniform(-bound, bound))
                    u0[i, 1] = float(rng.uniform(-bound, bound))
        chopped = self.config.chopped
        i1, overload1 = self.evaluator.channel1.signatures(
            _modulated(self._q1, responses), u0[:, 0], rngs, chopped
        )
        i2, overload2 = self.evaluator.channel2.signatures(
            _modulated(self._q2, responses), u0[:, 1], rngs, chopped
        )
        return i1, i2, overload1 + overload2

    # ------------------------------------------------------------------
    def _row_plan(self, population: Population, tones: np.ndarray) -> _RowPlan:
        """Each row's lead-in and z-domain coefficients.

        State-space rows take theirs from one stacked
        :func:`~repro.dut.statespace.zoh_transfer` call per stack for
        every probe of the call — the kernel ``StateSpaceDUT.process``
        runs with one row.  Each row's lead-in is its settling time in
        whole tone periods, as the analyzer rounds it.
        """
        probes, devices = tones.shape
        flat = tones.ravel()
        leads = np.ceil(np.tile(population.settle, probes) * flat).astype(int)
        stack_of = np.full(len(flat), -1)
        position = np.zeros(len(flat), dtype=int)
        transfers = []
        offsets = devices * np.arange(probes)[:, None]
        for s, (rows, stack) in enumerate(population.stacks):
            rows = (rows + offsets).ravel()
            transfers.append(
                (
                    rows,
                    zoh_transfer(
                        np.tile(stack.a, (probes, 1, 1)),
                        np.tile(stack.b, (probes, 1)),
                        np.tile(stack.c, (probes, 1)),
                        np.tile(stack.d, probes),
                        1.0 / (flat[rows] * OVERSAMPLING_RATIO),
                    ),
                )
            )
            stack_of[rows] = s
            position[rows] = np.arange(len(rows))
        return _RowPlan(leads, stack_of, position, transfers)

    def _row_filler(
        self, population: Population, plan: _RowPlan, tones: np.ndarray, rngs: list
    ):
        """``fill(rows, out)``: write the measurement windows of the
        responses of ``rows`` into the buffer rows ``out``.

        State-space rows run their own ``lfilter`` on their
        coefficients from ``plan`` (minus the final-state recovery the
        population path never observes); other rows go through their
        device's ``batch_response``.  The held input is the shared
        stimulus prefix, or for a noisy generator the row's own render
        (:meth:`_noisy_held`).
        """
        m = self.m_periods
        n = OVERSAMPLING_RATIO
        mn = self.mn
        devices = tones.shape[1]
        flat = tones.ravel()
        leads = plan.leads
        longest = int(leads.max())
        if self._noisy_generator:
            held_input = self._noisy_held(rngs, longest)
        else:
            stimulus = self._stimulus
            if len(stimulus) < (longest + m) * n:
                raise ConfigError(
                    "population slot needs a longer stimulus than was "
                    "reserved; call PopulationMeasurer.reserve first"
                )

            def held_input(r: int, lead: int) -> np.ndarray:
                return stimulus[: (lead + m) * n]

        def fill(rows: np.ndarray, out: np.ndarray) -> None:
            # Imported here: SciPy's signal package costs ~45 MB and
            # ~0.3 s to import, and a process whose rows all take the
            # closed form never needs it.
            from scipy.signal import lfilter

            for row, r, lead, s, k in zip(
                out,
                rows.tolist(),
                leads[rows].tolist(),
                plan.stack_of[rows].tolist(),
                plan.position[rows].tolist(),
            ):
                held = held_input(r, lead)
                if s < 0:
                    device = population.others[r % devices]
                    output = device.batch_response(held, float(flat[r]) * n)
                else:
                    num, den = plan.transfers[s][1]
                    output = lfilter(num[k], den[k], held)
                row[:] = output[lead * n : lead * n + mn]

        return fill

    def _noisy_held(self, rngs: list, longest: int):
        """``held_input(r, lead)``: row ``r``'s own noise-perturbed
        stimulus, for a lead-in of ``lead <= longest`` periods.

        A noisy generator gives every job its own stimulus: the biquad's
        two amplifiers each draw one noise sample per generator step
        from the job's private RNG (device ``r % len(rngs)``'s).  Each
        row's render is the reference
        :meth:`~repro.sc.biquad.SCBiquad.render_row` kernel over the
        shared charge sequence, fed by that job's bulk
        :meth:`~repro.sc.biquad.SCBiquad.draw_noise` (the reference draw
        order), and it runs only the ``(settle + lead + m)`` periods that
        row needs — so every render is bit-identical to the private
        render its reference job performs, and no row pays for the
        call's longest lead-in.
        """
        m = self.m_periods
        settle_head = self.config.generator_settle_periods
        generator = self._generator
        if generator is None:
            raise ConfigError(
                "population slot measured before PopulationMeasurer.reserve"
            )
        biquad = generator.biquad
        charges = generator.control.charge_sequence(
            (settle_head + longest + m) * GENERATOR_STEPS
        ).tolist()
        hold = OVERSAMPLING_RATIO // GENERATOR_STEPS
        head = settle_head * GENERATOR_STEPS
        devices = len(rngs)

        def held_input(r: int, lead: int) -> np.ndarray:
            steps = (settle_head + lead + m) * GENERATOR_STEPS
            noise1, noise2 = biquad.draw_noise(rngs[r % devices], steps)
            out, _, _ = biquad.render_row(charges[:steps], noise1, noise2)
            return np.fromiter(out, float, len(out))[head:].repeat(hold)

        return held_input

    # ------------------------------------------------------------------
    def _intervals(
        self, i1: np.ndarray, i2: np.ndarray
    ) -> tuple[BoundedArray, BoundedArray]:
        """Counts to bounded amplitude/phase: the array form of eqs. (4)-(5)."""
        config = self.config
        gain = correlation_gain(OVERSAMPLING_RATIO, 1)
        rotation = phase_offset(OVERSAMPLING_RATIO, 1)
        scale = config.vref / (self.mn * gain)
        epsilon = self.dsp.epsilon
        c = BoundedArray.from_halfwidth(i1.astype(float), epsilon).scale(scale)
        s = (-BoundedArray.from_halfwidth(i2.astype(float), epsilon)).scale(scale)
        amplitude = hypot_array(c, s).clamp_nonnegative()
        phase = atan2_array(s, c).shift(rotation)
        return amplitude, phase

    def _compensate(
        self, amplitude: BoundedArray, phase: BoundedArray, continuous: np.ndarray
    ) -> tuple[BoundedArray, BoundedArray]:
        """Array form of the analyzer's systematic compensation (k = 1)."""
        config = self.config
        n = OVERSAMPLING_RATIO
        budget = compensation.leakage_budget(1, n)
        droop = compensation.zoh_fundamental_droop(n)
        bypass = compensation.bypass_response(1, PAPER_CAPACITORS)
        amp_factor = np.where(continuous, 1.0 / droop, 1.0 / abs(bypass))
        phase_shift = np.where(
            continuous,
            compensation.zoh_phase_offset(n),
            -math.atan2(bypass.imag, bypass.real),
        )
        widen_amp = np.where(
            continuous,
            budget * config.image_budget_gain * config.stimulus_amplitude,
            0.1 * budget * config.stimulus_amplitude,
        )
        amplitude = amplitude.scale(amp_factor)
        phase = phase.shift(phase_shift)
        amplitude = amplitude.widen(widen_amp).clamp_nonnegative()
        reference = np.maximum(np.maximum(amplitude.value, widen_amp), 1e-15)
        phase = phase.widen(np.minimum(widen_amp / reference, math.pi))
        return amplitude, phase


# ----------------------------------------------------------------------
# Workload entry points (used by BatchRunner's backend seam)
# ----------------------------------------------------------------------


def run_sweep_vectorized(
    population: Population,
    frequencies,
    measurer: PopulationMeasurer,
    start_index: int = 0,
) -> list[GainPhaseMeasurement]:
    """One chunk of a frequency sweep as one probe row (points are the
    device axis).

    ``population`` stacks the swept device once per point and
    ``start_index`` is the seed index of point 0, so a chunk keeps every
    point on the substream the unchunked sweep would use.
    """
    frequencies = list(frequencies)
    rngs = [
        _job_rng(measurer.config, "sweep", start_index + i)
        for i in range(len(frequencies))
    ]
    return measurer.box(measurer.measure(population, [frequencies], rngs))


def run_fault_trials_vectorized(
    population: Population,
    frequencies,
    measurer: PopulationMeasurer,
    start_index: int = 0,
    stream: str = "fault",
) -> list[tuple[GainPhaseMeasurement, ...]]:
    """One chunk of a fault campaign as one call over every probe
    frequency (devices are the axis).

    ``stream`` names the per-job seed substream; pseudorandom-BIST
    campaigns pass ``"prbist"`` so each device consumes exactly the
    substream its reference-backend job would.  ``start_index`` is the
    seed index of row 0.
    """
    n = len(population)
    rngs = [_job_rng(measurer.config, stream, start_index + i) for i in range(n)]
    rows = measurer.box(
        measurer.measure(population, _probe_table(frequencies, n), rngs)
    )
    return [tuple(rows[i::n]) for i in range(n)]


def run_trials_vectorized(
    population: Population,
    mask,
    program,
    measurer: PopulationMeasurer,
    start_index: int = 0,
) -> list[tuple[str, bool]]:
    """One chunk of a Monte-Carlo lot as one call over every program
    frequency: each device's ``(verdict, truly_good)`` pair.

    ``population`` is the chunk in stacked form — the dispatcher draws
    its component values exactly as the reference path draws them (one
    seeded RNG, device order), which keeps the population identical
    across backends *and* across chunk boundaries
    (:func:`repro.dut.active_rc.lot_population`); the measurements then
    run as one call, and the go/no-go verdicts come from its gain
    arrays, split per program frequency, through the same tri-state
    interval rule (:func:`repro.bist.program.lot_verdicts`).
    ``start_index`` is the lot index of row 0.
    """
    from ..bist.montecarlo import _truly_good
    from ..bist.program import lot_verdicts

    n = len(population)
    frequencies = program.frequencies
    job_rngs = [
        _job_rng(measurer.config, "trial", start_index + i) for i in range(n)
    ]
    truly_good = _truly_good(population, mask, frequencies)
    gain = measurer.measure(
        population, _probe_table(frequencies, n), job_rngs
    ).gain
    verdicts = lot_verdicts(
        gain.split(len(frequencies)),
        [program.mask.limits_at(f) for f in frequencies],
    )
    return list(zip(verdicts, truly_good))


def _probe_table(frequencies, devices: int) -> np.ndarray:
    """The ``(probes x devices)`` tone table of every device at every
    probe frequency."""
    return np.repeat(np.array(frequencies, dtype=float)[:, None], devices, axis=1)
