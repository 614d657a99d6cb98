"""Interval-valued fault signatures and the fault dictionary.

The classical fault-dictionary method: simulate every cataloged fault
once, store each fault's measured frequency-response *signature*, and
diagnose a failing device by matching its measured signature against the
stored ones.  Because this analyzer reports guaranteed intervals rather
than point estimates, the dictionary can be honest about a question the
classical method fumbles: *which faults are distinguishable at all*.
Two faults whose signature intervals overlap at every probe frequency
cannot be told apart by this measurement — they form an **ambiguity
group**, and a diagnosis reports the group instead of silently
mis-ranking its members.

Distance conventions: gains are compared in decibels and phases in
degrees, treated as commensurate display units (the standard pragmatic
choice for mixed gain/phase signature matching).  The *separation*
between two signatures is the Euclidean norm over probe points of the
interval gaps (zero wherever the intervals overlap), so separation 0
means "consistent — the measurement cannot exclude this fault".

Phase is an *angle*: its intervals live on the circle, not the line.
:func:`repro.intervals.atan2_interval` deliberately unwraps each
interval around its centre so the band stays contiguous, which means a
signature near the ``+/-180`` degree cut may be reported as
``[174, 186]`` by one acquisition and ``[-186, -174]`` by a physically
identical one.  All phase comparisons here therefore go through the
angular helpers (:func:`repro.intervals.angular_gap`,
:func:`repro.intervals.angular_distance`), which work modulo 360
degrees — overlap, detectability, ambiguity groups and diagnosis
ranking are invariant under any global phase rotation of the catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError
from ..intervals import BoundedValue, angular_distance, angular_gap
from .table import PHASE_PERIOD_DEG, SignatureTable, norms, pair_blocks, point_gaps

#: Label reserved for the fault-free device's signature.
NOMINAL_LABEL = "nominal"


def interval_gap(a: BoundedValue, b: BoundedValue) -> float:
    """Distance between two intervals (0 when they overlap)."""
    return max(0.0, max(a.lower, b.lower) - min(a.upper, b.upper))


@dataclass(frozen=True)
class SignaturePoint:
    """One probe frequency's bounded gain/phase reading."""

    frequency: float
    gain_db: BoundedValue
    phase_deg: BoundedValue

    def __post_init__(self) -> None:
        if not self.frequency > 0:
            raise ConfigError(f"frequency must be positive, got {self.frequency!r}")

    def gap(self, other: "SignaturePoint") -> float:
        """Euclidean gap between two readings (0 iff both overlap).

        The phase component is compared on the circle (modulo 360
        degrees), so two intervals on opposite sides of the ``+/-180``
        branch cut overlap when the underlying angles do.
        """
        return math.hypot(
            interval_gap(self.gain_db, other.gain_db),
            angular_gap(self.phase_deg, other.phase_deg, PHASE_PERIOD_DEG),
        )

    def estimate_distance(self, other: "SignaturePoint") -> float:
        """Euclidean distance between the point estimates.

        The phase term is the shortest angular distance, so the ranking
        tie-breaker is as rotation-invariant as the gap itself.
        """
        return math.hypot(
            self.gain_db.value - other.gain_db.value,
            angular_distance(
                self.phase_deg.value, other.phase_deg.value, PHASE_PERIOD_DEG
            ),
        )


@dataclass(frozen=True)
class FaultSignature:
    """A labelled multi-frequency gain/phase signature."""

    label: str
    points: tuple[SignaturePoint, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if not self.label:
            raise ConfigError("signature label must be non-empty")
        if not points:
            raise ConfigError("signature needs at least one probe point")

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(p.frequency for p in self.points)

    def _check_comparable(self, other: "FaultSignature") -> None:
        if self.frequencies != other.frequencies:
            raise ConfigError(
                f"signatures probe different frequencies: "
                f"{self.frequencies} vs {other.frequencies}"
            )

    def separation(self, other: "FaultSignature") -> float:
        """Guaranteed separation: 0 iff the signatures are consistent.

        The squared gaps are summed one at a time in point order (not
        with ``sum``, which compensates on Python >= 3.12), so every
        Python version ranks and reports the same floats.
        """
        self._check_comparable(other)
        total = 0.0
        for a, b in zip(self.points, other.points):
            total += a.gap(b) ** 2
        return math.sqrt(total)

    def overlaps(self, other: "FaultSignature") -> bool:
        """True when no probe frequency can tell the two apart."""
        return self.separation(other) == 0.0

    def estimate_distance(self, other: "FaultSignature") -> float:
        """Point-estimate distance (the ranking tie-breaker)."""
        self._check_comparable(other)
        total = 0.0  # point order, as in separation
        for a, b in zip(self.points, other.points):
            total += a.estimate_distance(b) ** 2
        return math.sqrt(total)

    def restrict(self, frequencies) -> "FaultSignature":
        """The signature cut down to a subset of its probe frequencies."""
        wanted = tuple(float(f) for f in frequencies)
        by_freq = {p.frequency: p for p in self.points}
        missing = [f for f in wanted if f not in by_freq]
        if missing:
            raise ConfigError(
                f"signature has no reading at {missing}; available: "
                f"{self.frequencies}"
            )
        return FaultSignature(
            label=self.label, points=tuple(by_freq[f] for f in wanted)
        )


def signature_from_measurements(label: str, measurements) -> FaultSignature:
    """Build a signature from analyzer gain/phase measurements."""
    points = tuple(
        SignaturePoint(
            frequency=m.fwave, gain_db=m.gain_db, phase_deg=m.phase_deg
        )
        for m in measurements
    )
    return FaultSignature(label=label, points=points)


@dataclass(frozen=True)
class FaultDictionary:
    """Nominal plus per-fault signatures on a common probe grid.

    Built by a :class:`~repro.faults.campaign.FaultCampaign`; serialized
    with :func:`repro.reporting.export.dictionary_to_json`.
    """

    nominal: FaultSignature
    entries: tuple[FaultSignature, ...]
    m_periods: int | None = None

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ConfigError("dictionary needs at least one fault entry")
        labels = [e.label for e in entries]
        if len(set(labels)) != len(labels):
            duplicates = sorted({l for l in labels if labels.count(l) > 1})
            raise ConfigError(f"duplicate dictionary labels: {duplicates}")
        if NOMINAL_LABEL in labels:
            raise ConfigError(
                f"{NOMINAL_LABEL!r} is reserved for the fault-free signature"
            )
        for entry in entries:
            self.nominal._check_comparable(entry)

    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> tuple[float, ...]:
        """The common probe grid."""
        return self.nominal.frequencies

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    def entry(self, label: str) -> FaultSignature:
        if label == NOMINAL_LABEL:
            return self.nominal
        row = self._rows.get(label)
        if row is None:
            raise ConfigError(f"no dictionary entry {label!r}; have {self.labels}")
        return self.entries[row]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------------------------
    # The interval table (computed once per dictionary)
    # ------------------------------------------------------------------
    @cached_property
    def table(self) -> SignatureTable:
        """Every entry's readings, then the nominal's, as one stacked table.

        Diagnosis, probe selection, detectability and the ambiguity
        groups all read it (see :mod:`repro.faults.table`).
        """
        return SignatureTable.of(self.entries + (self.nominal,))

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {entry.label: row for row, entry in enumerate(self.entries)}

    @cached_property
    def _detectable(self) -> np.ndarray:
        """Per table row: the signature excludes the nominal one."""
        table = self.table
        nominal = table.take(slice(-1, None))
        return ~(norms(point_gaps(table, nominal)) == 0.0)

    @cached_property
    def _groups(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the entries' pairwise-overlap graph."""
        labels = self.labels
        parent = list(range(len(labels)))

        def root(k: int) -> int:
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        table = self.table
        for i, j in pair_blocks(len(labels)):
            overlap = norms(point_gaps(table.take(i), table.take(j))) == 0.0
            for a, b in zip(i[overlap].tolist(), j[overlap].tolist()):
                parent[root(a)] = root(b)
        members: dict[int, list[str]] = {}
        for k, label in enumerate(labels):  # catalog order keeps the output stable
            members.setdefault(root(k), []).append(label)
        return tuple(tuple(sorted(group)) for group in members.values())

    @cached_property
    def _group_of(self) -> dict[str, tuple[str, ...]]:
        return {label: group for group in self._groups for label in group}

    # ------------------------------------------------------------------
    # Detectability and ambiguity
    # ------------------------------------------------------------------
    def detectable(self, label: str) -> bool:
        """True when the fault's signature excludes the nominal one.

        An undetectable fault is a guaranteed test escape at this probe
        plan and window size — the knobs are more/better probe
        frequencies or a larger ``M``.
        """
        self.entry(label)  # validates the label
        row = -1 if label == NOMINAL_LABEL else self._rows[label]
        return bool(self._detectable[row])

    def ambiguity_groups(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the fault labels into indistinguishability groups.

        Signature overlap is not transitive, so groups are the connected
        components of the pairwise-overlap graph: a diagnosis inside a
        component may not be able to single out one member.  Singleton
        groups are uniquely diagnosable faults.  Each group is sorted;
        groups come in the catalog order of their first member.
        """
        return self._groups

    def group_of(self, label: str) -> tuple[str, ...]:
        """The ambiguity group containing a fault label."""
        self.entry(label)  # validates the label
        group = self._group_of.get(label)
        if group is None:
            raise ConfigError(f"no ambiguity group for {label!r}")
        return group

    # ------------------------------------------------------------------
    def restrict(self, frequencies) -> "FaultDictionary":
        """The dictionary cut down to a probe-frequency subset.

        This is how a production diagnosis program is derived: build the
        dictionary on a dense candidate plan once, select the most
        discriminating probes (:func:`repro.faults.probes.select_probe_frequencies`),
        then restrict — the test floor only ever measures the subset.
        """
        return FaultDictionary(
            nominal=self.nominal.restrict(frequencies),
            entries=tuple(e.restrict(frequencies) for e in self.entries),
            m_periods=self.m_periods,
        )

    # ------------------------------------------------------------------
    # Serialization (see repro.reporting.export)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """JSON text round-trippable via :meth:`from_json`."""
        from ..reporting.export import dictionary_to_json

        return dictionary_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "FaultDictionary":
        """Rebuild a dictionary serialized by :meth:`to_json`."""
        from ..reporting.export import dictionary_from_json

        return dictionary_from_json(text)
