"""Interval-aware nearest-signature diagnosis.

Given a measured signature and a fault dictionary, rank the candidate
faults (including the fault-free "nominal" hypothesis) by how far the
measurement's guaranteed intervals are from each stored signature.

Two distances drive the ranking:

* **separation** — the interval-gap norm
  (:meth:`~repro.faults.dictionary.FaultSignature.separation`).  A
  candidate with separation 0 is *consistent*: the guaranteed bounds
  cannot exclude it.  A candidate with separation > 0 is excluded by
  the measurement (provided the bounded-error model holds).
* **estimate distance** — the plain Euclidean distance between point
  estimates, used to order candidates the intervals cannot separate.

Both are computed for every hypothesis at once, from the dictionary's
interval table (:attr:`~repro.faults.dictionary.FaultDictionary.table`),
bit for bit as the per-signature methods would give them.

The honest output for overlapping candidates is the **ambiguity group**:
every consistent candidate is reported as indistinguishable rather than
silently ranked below the nearest one.  When *no* candidate is
consistent (a fault outside the dictionary, or bounds violated), the
group falls back to the dictionary's own ambiguity group of the nearest
candidate — the set a test engineer would investigate first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import require_count
from .dictionary import NOMINAL_LABEL, FaultDictionary, FaultSignature
from .table import SignatureTable, norms, point_estimates, point_gaps


@dataclass(frozen=True)
class Candidate:
    """One ranked diagnosis hypothesis."""

    label: str
    separation: float  # interval-gap norm; 0 = consistent with measurement
    estimate_distance: float  # point-estimate norm (tie-breaker)

    @property
    def consistent(self) -> bool:
        """True when the measurement's intervals cannot exclude this fault."""
        return self.separation == 0.0


@dataclass(frozen=True)
class Diagnosis:
    """Ranked candidates plus the honest ambiguity statement."""

    measured_label: str
    candidates: tuple[Candidate, ...]  # best first
    ambiguity_group: tuple[str, ...]  # labels indistinguishable at this probe plan

    @property
    def best(self) -> Candidate:
        return self.candidates[0]

    @property
    def consistent_labels(self) -> tuple[str, ...]:
        """All candidates the measurement cannot exclude, ranked."""
        return tuple(c.label for c in self.candidates if c.consistent)

    @property
    def conclusive(self) -> bool:
        """True when exactly one candidate survives the interval test."""
        return len(self.consistent_labels) == 1

    def names(self, label: str) -> bool:
        """True if the diagnosis points at ``label`` — as the single best
        candidate or as a member of the reported ambiguity group."""
        return label == self.best.label or label in self.ambiguity_group


def diagnose(
    measured: FaultSignature,
    dictionary: FaultDictionary,
    include_nominal: bool = True,
    top_n: int | None = None,
) -> Diagnosis:
    """Rank dictionary faults against a measured signature.

    Parameters
    ----------
    measured:
        The device-under-diagnosis signature, acquired on the
        dictionary's probe grid (see
        :func:`repro.faults.campaign.measure_signature`).
    dictionary:
        The fault dictionary to match against.
    include_nominal:
        Also rank the fault-free hypothesis (default) — a passing device
        then diagnoses as ``"nominal"`` instead of its nearest fault.
    top_n:
        Truncate the ranked candidate list (the ambiguity group is
        computed before truncation and may name faults beyond it).
    """
    if top_n is not None:
        require_count("diagnose", "top_n", top_n, 1)
    measured._check_comparable(dictionary.nominal)
    labels = dictionary.labels
    table = dictionary.table
    if include_nominal:
        labels += (dictionary.nominal.label,)
    else:
        table = table.take(slice(0, -1))

    # Every hypothesis at once: the measured row against the table.
    one = SignatureTable.of([measured])
    # Ranked by (separation, estimate distance, label).
    ranked = sorted(
        zip(
            norms(point_gaps(one, table)).tolist(),
            norms(point_estimates(one, table)).tolist(),
            labels,
        )
    )

    consistent = tuple(label for gap, _, label in ranked if gap == 0.0)
    if consistent:
        group = tuple(sorted(consistent))
    else:
        # Nothing fits the guaranteed bounds: report the dictionary's
        # own ambiguity neighbourhood of the nearest fault hypothesis.
        best = ranked[0][2]
        group = (
            (NOMINAL_LABEL,) if best == NOMINAL_LABEL else dictionary.group_of(best)
        )

    return Diagnosis(
        measured_label=measured.label,
        candidates=tuple(
            Candidate(label=label, separation=gap, estimate_distance=estimate)
            for gap, estimate, label in ranked[:top_n]
        ),
        ambiguity_group=group,
    )
