"""Declarative scenario specifications.

A *scenario* is a versionable, reproducible description of a complete
analog-BIST test program: which device, which analyzer setup, which
execution backend, and an ordered list of typed *steps* — Bode sweeps,
Monte-Carlo yield lots, fault-coverage campaigns, distortion probes,
dictionary diagnoses, dynamic-range sweeps.  The paper's analyzer exists
to run exactly such programs; this schema lets them be written down as
data instead of ad-hoc Python, round-tripped through JSON
(:func:`repro.reporting.export.scenario_to_json`), and replayed
bit-identically by the compiler (:mod:`repro.scenarios.compiler`).

Validation is strict and *names the offending field*: a spec that
parses is a spec that runs.  All frequencies must lie inside the
analyzer's valid band (``[PAPER_MIN_FREQUENCY, PAPER_MAX_FREQUENCY]``);
evaluation windows must be even (the chopped evaluator's requirement);
worker counts must be >= 1; step kinds must be one of
:data:`STEP_KINDS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import ClassVar

from ..core.sweep import PAPER_MAX_FREQUENCY, PAPER_MIN_FREQUENCY
from ..engine.runner import BACKENDS
from ..errors import ConfigError, require_count
from ..prbist.lfsr import LFSR_FORMS, PRIMITIVE_POLYNOMIALS

#: Schema identifier of a serialized scenario.
SCENARIO_FORMAT = "repro-scenario"
SCENARIO_VERSION = 1


def _require_in_band(step: str, fieldname: str, value: float) -> float:
    value = float(value)
    if not PAPER_MIN_FREQUENCY <= value <= PAPER_MAX_FREQUENCY:
        raise ConfigError(
            f"step {step!r}: {fieldname} = {value:g} Hz is outside the "
            f"analyzer band [{PAPER_MIN_FREQUENCY:g}, "
            f"{PAPER_MAX_FREQUENCY:g}] Hz"
        )
    return value


def _require_even_window(owner: str, fieldname: str, value) -> None:
    if value is None:
        return
    require_count(owner, fieldname, value, 2)
    if value % 2 != 0:
        raise ConfigError(
            f"{owner}: {fieldname} must be even (chopped counting), got {value}"
        )


def _require_name(kind: str, name) -> None:
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{kind} step: name must be a non-empty string, got {name!r}")


# ----------------------------------------------------------------------
# Device and analyzer settings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DUTSpec:
    """The demonstrator device the scenario is written against."""

    cutoff: float = 1000.0
    q: float = 0.7071

    def __post_init__(self) -> None:
        if not self.cutoff > 0:
            raise ConfigError(f"dut: cutoff must be positive, got {self.cutoff!r}")
        if not self.q > 0:
            raise ConfigError(f"dut: q must be positive, got {self.q!r}")


@dataclass(frozen=True)
class AnalyzerSettings:
    """Scenario-wide analyzer configuration.

    ``evaluator_noise_rms`` > 0 enables evaluator amplifier noise and
    ``generator_noise_rms`` > 0 enables stimulus-generator amplifier
    noise; both streams are seeded from the scenario's ``seed``, so a
    noisy scenario stays exactly as reproducible as a clean one.  Every
    combination is eligible for the vectorized backend — a noisy
    generator renders as a batched per-device stimulus there (see
    :mod:`repro.engine.vectorized`).
    """

    m_periods: int = 40
    stimulus_amplitude: float = 0.3
    evaluator_noise_rms: float = 0.0
    generator_noise_rms: float = 0.0

    def __post_init__(self) -> None:
        _require_even_window("analyzer", "m_periods", self.m_periods)
        if not 0 < self.stimulus_amplitude <= 0.5:
            raise ConfigError(
                f"analyzer: stimulus_amplitude must be in (0, 0.5] V, "
                f"got {self.stimulus_amplitude!r}"
            )
        for field in ("evaluator_noise_rms", "generator_noise_rms"):
            value = getattr(self, field)
            if not 0.0 <= value < float("inf"):
                raise ConfigError(
                    f"analyzer: {field} must be finite and >= 0, got {value!r}"
                )


# ----------------------------------------------------------------------
# Step types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepStep:
    """A Bode characterization sweep (paper Fig. 10a/b)."""

    kind: ClassVar[str] = "sweep"

    name: str
    f_start: float = 100.0
    f_stop: float = 20_000.0
    n_points: int = 8
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        _require_in_band(self.name, "f_start", self.f_start)
        _require_in_band(self.name, "f_stop", self.f_stop)
        if not self.f_start < self.f_stop:
            raise ConfigError(
                f"step {self.name!r}: f_start {self.f_start:g} must be below "
                f"f_stop {self.f_stop:g}"
            )
        require_count(f"{self.kind} step {self.name!r}", "n_points", self.n_points, 2)
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


@dataclass(frozen=True)
class YieldStep:
    """A Monte-Carlo yield lot through a go/no-go gain-mask program.

    The lot's component draws are a function of the *scenario* seed
    alone, so recording and replaying a scenario always simulates the
    same devices.  ``frequency_ratios`` places the test points relative
    to the DUT's cutoff.
    """

    kind: ClassVar[str] = "yield"

    name: str
    n_devices: int = 10
    component_sigma: float = 0.03
    tolerance_db: float = 2.0
    frequency_ratios: tuple[float, ...] = (0.3, 1.0, 2.0)
    ambiguous_passes: bool = False
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        require_count(f"{self.kind} step {self.name!r}", "n_devices", self.n_devices, 1)
        # NaN fails every comparison, so each range check asks for a
        # finite value first (JSON decoding accepts NaN and Infinity).
        if not (math.isfinite(self.component_sigma) and self.component_sigma >= 0):
            raise ConfigError(
                f"step {self.name!r}: component_sigma must be finite and >= 0, "
                f"got {self.component_sigma!r}"
            )
        if not (math.isfinite(self.tolerance_db) and self.tolerance_db > 0):
            raise ConfigError(
                f"step {self.name!r}: tolerance_db must be finite and positive, "
                f"got {self.tolerance_db!r}"
            )
        object.__setattr__(
            self, "frequency_ratios", tuple(float(r) for r in self.frequency_ratios)
        )
        if not self.frequency_ratios:
            raise ConfigError(
                f"step {self.name!r}: frequency_ratios must not be empty"
            )
        if not all(math.isfinite(r) and r > 0 for r in self.frequency_ratios):
            raise ConfigError(
                f"step {self.name!r}: frequency_ratios must be finite and positive, "
                f"got {self.frequency_ratios}"
            )
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


@dataclass(frozen=True)
class CoverageStep:
    """Fault coverage of a go/no-go program over a fault catalog."""

    kind: ClassVar[str] = "coverage"

    name: str
    deviations: tuple[float, ...] = (0.2, 0.5)
    catastrophic: bool = False
    tolerance_db: float = 2.0
    frequency_ratios: tuple[float, ...] = (0.3, 1.0, 2.0)
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        object.__setattr__(
            self, "deviations", tuple(float(d) for d in self.deviations)
        )
        if not self.deviations:
            raise ConfigError(f"step {self.name!r}: deviations must not be empty")
        if any(d <= 0 for d in self.deviations):
            raise ConfigError(
                f"step {self.name!r}: deviations are magnitudes (each applied "
                f"+/-) and must be positive, got {self.deviations}"
            )
        if not self.tolerance_db > 0:
            raise ConfigError(
                f"step {self.name!r}: tolerance_db must be positive, "
                f"got {self.tolerance_db!r}"
            )
        object.__setattr__(
            self, "frequency_ratios", tuple(float(r) for r in self.frequency_ratios)
        )
        if not self.frequency_ratios or any(r <= 0 for r in self.frequency_ratios):
            raise ConfigError(
                f"step {self.name!r}: frequency_ratios must be a non-empty "
                f"tuple of positive ratios, got {self.frequency_ratios}"
            )
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


@dataclass(frozen=True)
class DistortionStep:
    """An HD2/HD3 harmonic-distortion probe (paper Fig. 10c)."""

    kind: ClassVar[str] = "distortion"

    name: str
    fwaves: tuple[float, ...] = (1600.0,)
    amplitude: float = 0.4
    hd2_dbc: float = -57.0
    hd3_dbc: float = -64.5
    harmonics: tuple[int, ...] = (2, 3)
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        object.__setattr__(self, "fwaves", tuple(float(f) for f in self.fwaves))
        if not self.fwaves:
            raise ConfigError(f"step {self.name!r}: fwaves must not be empty")
        for f in self.fwaves:
            _require_in_band(self.name, "fwaves", f)
        if not 0 < self.amplitude <= 0.5:
            raise ConfigError(
                f"step {self.name!r}: amplitude must be in (0, 0.5] V, "
                f"got {self.amplitude!r}"
            )
        for label, level in (("hd2_dbc", self.hd2_dbc), ("hd3_dbc", self.hd3_dbc)):
            if not level < 0:
                raise ConfigError(
                    f"step {self.name!r}: {label} must be negative (dBc), "
                    f"got {level!r}"
                )
        object.__setattr__(self, "harmonics", tuple(int(k) for k in self.harmonics))
        if not self.harmonics or any(k < 2 for k in self.harmonics):
            raise ConfigError(
                f"step {self.name!r}: harmonics must all be >= 2, "
                f"got {self.harmonics}"
            )
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


@dataclass(frozen=True)
class DiagnoseStep:
    """Dictionary-based diagnosis of an injected fault.

    Builds a fault dictionary over a candidate sweep around the cutoff,
    compacts it to the ``n_probes`` most discriminating frequencies,
    measures the device with the injected fault, and records the ranked
    candidates plus the honest ambiguity group.  ``inject`` is a catalog
    label (e.g. ``r2+50%``) or ``nominal`` for the fault-free device.
    """

    kind: ClassVar[str] = "diagnose"

    name: str
    inject: str = "r2+50%"
    deviations: tuple[float, ...] = (0.2, 0.5)
    catastrophic: bool = False
    n_candidate_points: int = 8
    decades: float = 1.5
    n_probes: int = 3
    top_n: int = 5
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        if not isinstance(self.inject, str) or not self.inject:
            raise ConfigError(
                f"step {self.name!r}: inject must be a fault label or "
                f"'nominal', got {self.inject!r}"
            )
        object.__setattr__(
            self, "deviations", tuple(float(d) for d in self.deviations)
        )
        if not self.deviations or any(d <= 0 for d in self.deviations):
            raise ConfigError(
                f"step {self.name!r}: deviations must be a non-empty tuple of "
                f"positive magnitudes, got {self.deviations}"
            )
        owner = f"{self.kind} step {self.name!r}"
        require_count(owner, "n_candidate_points", self.n_candidate_points, 2)
        if not self.decades > 0:
            raise ConfigError(
                f"step {self.name!r}: decades must be positive, got {self.decades!r}"
            )
        require_count(owner, "n_probes", self.n_probes, 1)
        require_count(owner, "top_n", self.top_n, 1)
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


@dataclass(frozen=True)
class DynamicRangeStep:
    """Weak-tone dynamic-range sweep of the evaluator (paper Fig. 9)."""

    kind: ClassVar[str] = "dynamic_range"

    name: str
    levels_dbc: tuple[float, ...] = (-30.0, -40.0, -50.0, -60.0)
    threshold_db: float = 3.0
    harmonic: int = 3
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        object.__setattr__(
            self, "levels_dbc", tuple(float(x) for x in self.levels_dbc)
        )
        if not self.levels_dbc or any(x >= 0 for x in self.levels_dbc):
            raise ConfigError(
                f"step {self.name!r}: levels_dbc must be a non-empty tuple of "
                f"negative dBc levels, got {self.levels_dbc}"
            )
        if not self.threshold_db > 0:
            raise ConfigError(
                f"step {self.name!r}: threshold_db must be positive, "
                f"got {self.threshold_db!r}"
            )
        require_count(f"{self.kind} step {self.name!r}", "harmonic", self.harmonic, 2)
        _require_even_window(f"step {self.name!r}", "m_periods", self.m_periods)


def _require_prbist_stimulus(step: "PseudorandomStep | SignatureCheckStep") -> None:
    """Shared validation of the pseudorandom stimulus fields."""
    if step.lfsr_width not in PRIMITIVE_POLYNOMIALS:
        raise ConfigError(
            f"step {step.name!r}: lfsr_width must be one of "
            f"{sorted(PRIMITIVE_POLYNOMIALS)} (tabulated primitive "
            f"polynomials), got {step.lfsr_width!r}"
        )
    if step.lfsr_form not in LFSR_FORMS:
        raise ConfigError(
            f"step {step.name!r}: lfsr_form must be one of {LFSR_FORMS}, "
            f"got {step.lfsr_form!r}"
        )
    require_count(f"{step.kind} step {step.name!r}", "n_patterns", step.n_patterns, 1)
    if step.misr_width not in PRIMITIVE_POLYNOMIALS:
        raise ConfigError(
            f"step {step.name!r}: misr_width must be one of "
            f"{sorted(PRIMITIVE_POLYNOMIALS)} (tabulated primitive "
            f"polynomials), got {step.misr_width!r}"
        )
    object.__setattr__(step, "f_lo", float(step.f_lo))
    object.__setattr__(step, "f_hi", float(step.f_hi))
    _require_in_band(step.name, "f_lo", step.f_lo)
    _require_in_band(step.name, "f_hi", step.f_hi)
    if not step.f_lo < step.f_hi:
        raise ConfigError(
            f"step {step.name!r}: f_lo {step.f_lo:g} must be below "
            f"f_hi {step.f_hi:g}"
        )
    object.__setattr__(
        step, "deviations", tuple(float(d) for d in step.deviations)
    )
    if not step.deviations or any(d <= 0 for d in step.deviations):
        raise ConfigError(
            f"step {step.name!r}: deviations must be a non-empty tuple of "
            f"positive magnitudes, got {step.deviations}"
        )
    _require_even_window(f"step {step.name!r}", "m_periods", step.m_periods)


@dataclass(frozen=True)
class PseudorandomStep:
    """A pseudorandom-stimulus fault-coverage campaign (LFSR + MISR).

    An LFSR of ``lfsr_width`` bits (seeded deterministically from the
    *scenario* seed) draws ``n_patterns`` words, each mapped to a
    log-spaced tone inside ``[f_lo, f_hi]``; every catalog fault's
    quantized response is compacted into a ``misr_width``-bit signature
    and compared against the fault-free device's (see
    :mod:`repro.prbist`).
    """

    kind: ClassVar[str] = "pseudorandom"

    name: str
    lfsr_width: int = 10
    lfsr_form: str = "fibonacci"
    n_patterns: int = 6
    misr_width: int = 16
    f_lo: float = PAPER_MIN_FREQUENCY
    f_hi: float = PAPER_MAX_FREQUENCY
    deviations: tuple[float, ...] = (0.2, 0.5)
    catastrophic: bool = False
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        _require_prbist_stimulus(self)


@dataclass(frozen=True)
class SignatureCheckStep:
    """A single-device go/no-go signature comparison.

    Applies the ``inject`` catalog fault (or ``nominal`` for the
    fault-free device), measures its pseudorandom response, and checks
    the MISR signature against the golden device's — the leanest
    possible production test: one stored signature, one comparison.
    The catalog fields exist only to resolve ``inject``.
    """

    kind: ClassVar[str] = "signature_check"

    name: str
    inject: str = "nominal"
    lfsr_width: int = 10
    lfsr_form: str = "fibonacci"
    n_patterns: int = 6
    misr_width: int = 16
    f_lo: float = PAPER_MIN_FREQUENCY
    f_hi: float = PAPER_MAX_FREQUENCY
    deviations: tuple[float, ...] = (0.2, 0.5)
    catastrophic: bool = False
    m_periods: int | None = None

    def __post_init__(self) -> None:
        _require_name(self.kind, self.name)
        if not isinstance(self.inject, str) or not self.inject:
            raise ConfigError(
                f"step {self.name!r}: inject must be a fault label or "
                f"'nominal', got {self.inject!r}"
            )
        _require_prbist_stimulus(self)


#: Registry of step kinds: the only kinds a scenario may contain.
STEP_KINDS = {
    cls.kind: cls
    for cls in (
        SweepStep,
        YieldStep,
        CoverageStep,
        DistortionStep,
        DiagnoseStep,
        DynamicRangeStep,
        PseudorandomStep,
        SignatureCheckStep,
    )
}

Step = (
    SweepStep
    | YieldStep
    | CoverageStep
    | DistortionStep
    | DiagnoseStep
    | DynamicRangeStep
    | PseudorandomStep
    | SignatureCheckStep
)


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, versionable test-program description.

    ``backend``, ``n_workers`` and ``chunk_size`` are the spec's
    *defaults*; the compiler, CLI and golden-baseline harness can
    override them at run time — results are guaranteed equivalent
    (exactly the engine's backend/parallelism/chunking contract), which
    is what makes one recorded baseline valid for every execution
    strategy.
    """

    name: str
    steps: tuple[Step, ...]
    description: str = ""
    seed: int = 0
    dut: DUTSpec = field(default_factory=DUTSpec)
    analyzer: AnalyzerSettings = field(default_factory=AnalyzerSettings)
    backend: str = "reference"
    n_workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(
                f"scenario: name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ConfigError(f"scenario {self.name!r}: steps must not be empty")
        for step in self.steps:
            if type(step) not in STEP_KINDS.values():
                raise ConfigError(
                    f"scenario {self.name!r}: unknown step type {type(step).__name__!r}"
                )
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"scenario {self.name!r}: duplicate step names {duplicates}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(
                f"scenario {self.name!r}: seed must be an integer >= 0, "
                f"got {self.seed!r}"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"scenario {self.name!r}: backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )
        if (
            not isinstance(self.n_workers, int)
            or isinstance(self.n_workers, bool)
            or self.n_workers < 1
        ):
            raise ConfigError(
                f"scenario {self.name!r}: n_workers must be an integer >= 1, "
                f"got {self.n_workers!r}"
            )
        if self.chunk_size is not None and (
            not isinstance(self.chunk_size, int)
            or isinstance(self.chunk_size, bool)
            or self.chunk_size < 1
        ):
            raise ConfigError(
                f"scenario {self.name!r}: chunk_size must be an integer >= 1 "
                f"or None, got {self.chunk_size!r}"
            )

    @property
    def step_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps)

    # ------------------------------------------------------------------
    # Serialization (see repro.reporting.export)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON text round-trippable via :meth:`from_json`."""
        from ..reporting.export import scenario_to_json

        return scenario_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec serialized by :meth:`to_json`."""
        from ..reporting.export import scenario_from_json

        return scenario_from_json(text)

    def spec_key(self) -> str:
        """Stable content hash of this spec (SHA-256 hex digest).

        Hashes the canonical JSON form, so the key depends only on the
        spec's *values* — field order in a source payload, a hand-edited
        file's whitespace, or tuple-vs-list representation never change
        it, while any value change does.  The service layer pairs it
        with :meth:`repro.api.ExecutionPolicy.policy_key` to dedupe
        identical in-flight jobs.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Payload conversion (the JSON-facing dict form)
# ----------------------------------------------------------------------

def _dataclass_payload(obj) -> dict:
    """Shallow field dict with tuples rendered as lists (JSON-safe)."""
    payload = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def _dataclass_from_payload(cls, payload: dict, owner: str):
    """Strictly construct a spec dataclass from a JSON dict.

    Unknown keys are an error (a typo in a hand-written spec must not be
    silently ignored), missing keys fall back to the dataclass default,
    and list values become tuples so round-tripped specs compare equal.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{owner}: expected a JSON object, got {payload!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"{owner}: unknown field(s) {unknown}; valid fields: {sorted(known)}"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in payload.items()
    }
    try:
        return cls(**kwargs)
    except ConfigError:
        raise  # already names the offending field
    except TypeError as exc:
        # A missing required field or a wrong-typed value that breaks a
        # comparison inside validation: keep the strict-ConfigError
        # contract instead of leaking a raw traceback.
        raise ConfigError(f"{owner}: {exc}") from exc


def step_to_payload(step: Step) -> dict:
    """The JSON dict form of one step (its ``kind`` plus its fields)."""
    payload = {"kind": step.kind}
    payload.update(_dataclass_payload(step))
    return payload


def step_from_payload(payload: dict) -> Step:
    """Rebuild a step from its JSON dict form; strict on kind and fields."""
    if not isinstance(payload, dict):
        raise ConfigError(f"step: expected a JSON object, got {payload!r}")
    kind = payload.get("kind")
    if kind not in STEP_KINDS:
        raise ConfigError(
            f"step: unknown kind {kind!r}; valid kinds: {sorted(STEP_KINDS)}"
        )
    fields = {k: v for k, v in payload.items() if k != "kind"}
    return _dataclass_from_payload(STEP_KINDS[kind], fields, f"step kind {kind!r}")


def scenario_to_payload(spec: ScenarioSpec) -> dict:
    """The JSON dict form of a whole scenario."""
    return {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
        "name": spec.name,
        "description": spec.description,
        "seed": spec.seed,
        "backend": spec.backend,
        "n_workers": spec.n_workers,
        "chunk_size": spec.chunk_size,
        "dut": _dataclass_payload(spec.dut),
        "analyzer": _dataclass_payload(spec.analyzer),
        "steps": [step_to_payload(step) for step in spec.steps],
    }


def scenario_from_payload(payload: dict) -> ScenarioSpec:
    """Rebuild a scenario from its JSON dict form (strict validation)."""
    if not isinstance(payload, dict) or payload.get("format") != SCENARIO_FORMAT:
        raise ConfigError(
            f"not a scenario spec (expected format {SCENARIO_FORMAT!r})"
        )
    if payload.get("version") != SCENARIO_VERSION:
        raise ConfigError(
            f"unsupported scenario version {payload.get('version')!r}; "
            f"this build reads version {SCENARIO_VERSION}"
        )
    steps_payload = payload.get("steps")
    if not isinstance(steps_payload, list):
        raise ConfigError("scenario: steps must be a JSON array")
    known = {
        "format", "version", "name", "description", "seed", "backend",
        "n_workers", "chunk_size", "dut", "analyzer", "steps",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"scenario: unknown field(s) {unknown}; valid fields: {sorted(known)}"
        )
    return ScenarioSpec(
        name=payload.get("name", ""),
        description=payload.get("description", ""),
        seed=payload.get("seed", 0),
        backend=payload.get("backend", "reference"),
        n_workers=payload.get("n_workers", 1),
        chunk_size=payload.get("chunk_size"),
        dut=_dataclass_from_payload(DUTSpec, payload.get("dut", {}), "dut"),
        analyzer=_dataclass_from_payload(
            AnalyzerSettings, payload.get("analyzer", {}), "analyzer"
        ),
        steps=tuple(step_from_payload(p) for p in steps_payload),
    )
