"""The dictionary's interval table against the scalar methods and old loops.

:class:`~repro.faults.table.SignatureTable` and its kernels give the
gaps, separations and estimate distances of many signature pairs at
once; diagnosis, probe selection, detectability and the ambiguity
groups read them.  Everything is compared bit for bit: the kernels
against :meth:`SignaturePoint.gap`, :meth:`FaultSignature.separation`,
:meth:`FaultSignature.estimate_distance` and ``overlaps``, and the
consumers against transcriptions of the per-pair loops they replaced,
on random dictionaries drawn from a coarse grid so that overlaps, zero
gaps and ranking ties are common.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import table as table_module
from repro.faults.diagnose import Candidate, diagnose
from repro.faults.dictionary import (
    NOMINAL_LABEL,
    FaultDictionary,
    FaultSignature,
    SignaturePoint,
)
from repro.faults.probes import pair_table, select_probe_frequencies
from repro.faults.table import (
    SignatureTable,
    norms,
    pair_blocks,
    point_estimates,
    point_gaps,
)
from repro.intervals import BoundedValue


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# ----------------------------------------------------------------------
# Strategies: coarse grids make overlaps and ties frequent
# ----------------------------------------------------------------------

GAIN_EDGES = [-0.0, 0.0, 1e-170, 2e-170, 0.5, 1.0, 1.5, 3.0, -2.0]
PHASE_STARTS = [-540.0, -360.0, -181.0, -180.0, -179.0, -0.0, 0.0, 1.0,
                90.0, 179.0, 180.0, 181.0, 359.0, 360.0]
PHASE_WIDTHS = [0.0, 0.0, 1.0, 2.0, 180.0, 358.0, 359.999, 360.0, 400.0]


@st.composite
def intervals(draw, starts, widths):
    lower = draw(st.one_of(st.sampled_from(starts), st.floats(-720, 720)))
    width = draw(st.one_of(st.sampled_from(widths), st.floats(0, 500)))
    upper = lower + width
    value = draw(st.sampled_from([lower, upper, 0.5 * (lower + upper)]))
    value = min(max(value, lower), upper)
    return BoundedValue(value, lower, upper)


gains = intervals(GAIN_EDGES, [0.0, 0.0, 1e-170, 0.5, 1.0, 2.0])
phases = intervals(PHASE_STARTS, PHASE_WIDTHS)


def signatures(n_points):
    return st.lists(
        st.tuples(gains, phases), min_size=n_points, max_size=n_points
    )


def signature(label, readings, frequencies):
    return FaultSignature(
        label,
        tuple(
            SignaturePoint(f, gain, phase)
            for f, (gain, phase) in zip(frequencies, readings)
        ),
    )


@st.composite
def dictionaries(draw, max_entries=7, max_points=4):
    n_points = draw(st.integers(1, max_points))
    frequencies = draw(
        st.lists(st.sampled_from([100.0, 250.0, 400.0, 800.0, 1e3, 2e3, 5e3]),
                 min_size=n_points, max_size=n_points, unique=True)
    )
    # A small pool of readings, reused, makes equal signatures common.
    pool = draw(st.lists(signatures(n_points), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool) | signatures(n_points),
                         min_size=2, max_size=max_entries + 1))
    nominal, *entries = rows
    return FaultDictionary(
        nominal=signature(NOMINAL_LABEL, nominal, frequencies),
        entries=tuple(
            signature(f"f{k}", readings, frequencies)
            for k, readings in enumerate(entries)
        ),
    )


def measured_on(dictionary):
    frequencies = dictionary.frequencies
    return st.one_of(
        st.sampled_from(dictionary.entries + (dictionary.nominal,)).map(
            lambda s: FaultSignature("measured", s.points)
        ),
        signatures(len(frequencies)).map(
            lambda readings: signature("measured", readings, frequencies)
        ),
    )


# ----------------------------------------------------------------------
# Transcriptions of the per-pair loops the table replaced
# ----------------------------------------------------------------------


def old_diagnose(measured, dictionary, include_nominal=True, top_n=None):
    hypotheses = list(dictionary.entries)
    if include_nominal:
        hypotheses.append(dictionary.nominal)
    candidates = sorted(
        (
            Candidate(
                label=entry.label,
                separation=measured.separation(entry),
                estimate_distance=measured.estimate_distance(entry),
            )
            for entry in hypotheses
        ),
        key=lambda c: (c.separation, c.estimate_distance, c.label),
    )
    consistent = tuple(c.label for c in candidates if c.consistent)
    if consistent:
        group = tuple(sorted(consistent))
    else:
        best = candidates[0].label
        group = (
            (NOMINAL_LABEL,) if best == NOMINAL_LABEL
            else next(g for g in old_ambiguity_groups(dictionary) if best in g)
        )
    if top_n is not None:
        candidates = candidates[:top_n]
    return tuple(candidates), group


def old_ambiguity_groups(dictionary):
    labels = list(dictionary.labels)
    adjacency = {label: set() for label in labels}
    for i, a in enumerate(dictionary.entries):
        for b in dictionary.entries[i + 1 :]:
            if a.overlaps(b):
                adjacency[a.label].add(b.label)
                adjacency[b.label].add(a.label)
    groups = []
    unseen = set(labels)
    for label in labels:
        if label not in unseen:
            continue
        component = set()
        frontier = [label]
        while frontier:
            current = frontier.pop()
            if current in component:
                continue
            component.add(current)
            frontier.extend(adjacency[current] - component)
        unseen -= component
        groups.append(tuple(sorted(component)))
    return tuple(groups)


def old_pair_table(dictionary, include_nominal=True):
    signatures = list(dictionary.entries)
    if include_nominal:
        signatures.append(dictionary.nominal)
    frequencies = dictionary.frequencies
    separated_by = [set() for _ in frequencies]
    margin = [0.0 for _ in frequencies]
    for pair_id, (a, b) in enumerate(itertools.combinations(signatures, 2)):
        for i in range(len(frequencies)):
            gap = a.points[i].gap(b.points[i])
            if gap > 0.0:
                separated_by[i].add(pair_id)
                margin[i] += gap
    return separated_by, margin


def old_select(dictionary, n_probes, include_nominal=True):
    frequencies = dictionary.frequencies
    separated_by, margin = old_pair_table(dictionary, include_nominal)
    chosen, covered = [], set()
    remaining = set(range(len(frequencies)))
    while len(chosen) < n_probes and remaining:
        best = min(
            remaining,
            key=lambda i: (-len(separated_by[i] - covered), -margin[i], frequencies[i]),
        )
        chosen.append(best)
        covered |= separated_by[best]
        remaining.remove(best)
    return tuple(sorted(frequencies[i] for i in chosen))


def tiny_dictionary():
    zero = BoundedValue.exact(0.0)
    point = SignaturePoint(1e3, zero, zero)
    return FaultDictionary(
        nominal=FaultSignature(NOMINAL_LABEL, (point,)),
        entries=(FaultSignature("f0", (point,)),),
    )


def candidate_bits(candidates):
    return [(c.label, bits(c.separation), bits(c.estimate_distance)) for c in candidates]


# ----------------------------------------------------------------------
# Kernels against the scalar methods
# ----------------------------------------------------------------------


class TestKernels:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(signatures(n), signatures(n))))
    def test_kernels_match_scalar_methods(self, pair):
        frequencies = [100.0 * (k + 1) for k in range(len(pair[0]))]
        a = signature("a", pair[0], frequencies)
        b = signature("b", pair[1], frequencies)
        ta, tb = SignatureTable.of([a]), SignatureTable.of([b])
        gaps = point_gaps(ta, tb)
        estimates = point_estimates(ta, tb)
        assert bits(gaps[0]) == bits([p.gap(q) for p, q in zip(a.points, b.points)])
        assert bits(estimates[0]) == bits(
            [p.estimate_distance(q) for p, q in zip(a.points, b.points)]
        )
        assert bits(norms(gaps)) == bits([a.separation(b)])
        assert bits(norms(estimates)) == bits([a.estimate_distance(b)])
        assert (norms(gaps)[0] == 0.0) == a.overlaps(b)

    @pytest.mark.parametrize(
        "phase_a, phase_b",
        [
            ((174.0, 186.0), (-180.0, -178.0)),  # across the branch cut
            ((-186.0, -174.0), (170.0, 171.0)),
            ((0.0, 360.0), (12.0, 13.0)),  # full circle
            ((5.0, 5.0), (5.0, 5.0)),  # zero widths, equal
            ((5.0, 5.0), (6.0, 6.0)),  # zero widths, apart
            ((-0.0, 0.0), (0.0, -0.0)),  # signed-zero endpoints (degenerate)
            ((-0.0, 1.0), (359.0, 360.0)),
            ((0.0, 1.0), (-1.0, -0.0)),
        ],
    )
    def test_phase_edge_cases(self, phase_a, phase_b):
        def point(lower, upper):
            lo, hi = sorted((lower, upper))
            return SignaturePoint(1e3, BoundedValue(0.0, 0.0, 0.0),
                                  BoundedValue(lo, lo, hi))

        a, b = point(*phase_a), point(*phase_b)
        ta = SignatureTable.of([FaultSignature("a", (a,))])
        tb = SignatureTable.of([FaultSignature("b", (b,))])
        assert bits(point_gaps(ta, tb)[0, 0]) == bits(a.gap(b))
        assert bits(point_estimates(ta, tb)[0, 0]) == bits(a.estimate_distance(b))

    def test_underflowing_square_still_overlaps(self):
        """A 1e-170 dB gap is a gap, but its square is 0: separation 0."""
        zero = BoundedValue.exact(0.0)
        a = FaultSignature("a", (SignaturePoint(1e3, zero, zero),))
        b = FaultSignature(
            "b", (SignaturePoint(1e3, BoundedValue.exact(1e-170), zero),)
        )
        gaps = point_gaps(SignatureTable.of([a]), SignatureTable.of([b]))
        assert gaps[0, 0] == a.points[0].gap(b.points[0]) == 1e-170
        assert norms(gaps)[0] == a.separation(b) == 0.0
        assert a.overlaps(b)
        dictionary = FaultDictionary(nominal=FaultSignature("nominal", a.points),
                                     entries=(FaultSignature("f0", a.points), b))
        assert dictionary.ambiguity_groups() == (("b", "f0"),)
        assert not dictionary.detectable("b")
        # ...while probe selection counts the positive gap as separating.
        separated, margins = pair_table(dictionary)
        assert separated[:, 0].tolist() == [True, False, True]
        assert margins == [2e-170]

    def test_one_row_broadcasts_against_many(self):
        rows = [
            FaultSignature(f"s{k}", (SignaturePoint(
                1e3, BoundedValue.exact(float(k)), BoundedValue.exact(10.0 * k)),))
            for k in range(4)
        ]
        table = SignatureTable.of(rows)
        gaps = point_gaps(table.take([1]), table)
        assert bits(gaps[:, 0]) == bits([rows[1].separation(r) for r in rows])


class TestPairBlocks:
    @pytest.mark.parametrize("block", [1, 2, 5, 65536])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_pairs_in_nested_loop_order(self, monkeypatch, n, block):
        monkeypatch.setattr(table_module, "PAIR_BLOCK_ROWS", block)
        blocks = list(pair_blocks(n))
        assert all(len(i) <= block for i, _ in blocks)
        pairs = [(int(i), int(j)) for left, right in blocks for i, j in zip(left, right)]
        assert pairs == list(itertools.combinations(range(n), 2))


# ----------------------------------------------------------------------
# Consumers against the old loops
# ----------------------------------------------------------------------


class TestConsumers:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_diagnose_matches_old_loop(self, data):
        dictionary = data.draw(dictionaries())
        measured = data.draw(measured_on(dictionary))
        include_nominal = data.draw(st.booleans())
        top_n = data.draw(st.one_of(st.none(), st.integers(1, 9)))
        got = diagnose(measured, dictionary, include_nominal, top_n)
        candidates, group = old_diagnose(measured, dictionary, include_nominal, top_n)
        assert candidate_bits(got.candidates) == candidate_bits(candidates)
        assert got.ambiguity_group == group

    @settings(max_examples=200, deadline=None)
    @given(dictionaries(), st.booleans(), st.sampled_from([1, 2, None]))
    def test_probe_selection_matches_old_loop(self, dictionary, include_nominal, block):
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(table_module, "PAIR_BLOCK_ROWS", block)
            separated, margins = pair_table(dictionary, include_nominal)
            chosen = [
                select_probe_frequencies(dictionary, n, include_nominal)
                for n in range(1, len(dictionary.frequencies) + 1)
            ]
        old_separated, old_margins = old_pair_table(dictionary, include_nominal)
        assert [set(np.flatnonzero(column).tolist()) for column in separated.T] == (
            old_separated
        )
        assert bits(margins) == bits(old_margins)
        assert chosen == [
            old_select(dictionary, n, include_nominal)
            for n in range(1, len(dictionary.frequencies) + 1)
        ]

    @settings(max_examples=200, deadline=None)
    @given(dictionaries(max_entries=9))
    def test_groups_and_detectability_match_old_loops(self, dictionary):
        groups = old_ambiguity_groups(dictionary)
        assert dictionary.ambiguity_groups() == groups
        for label in dictionary.labels:
            assert dictionary.group_of(label) == next(g for g in groups if label in g)
            assert dictionary.detectable(label) == (
                not dictionary.entry(label).overlaps(dictionary.nominal)
            )
        assert not dictionary.detectable(NOMINAL_LABEL)

    def test_table_is_built_once(self):
        dictionary = tiny_dictionary()
        assert dictionary.table is dictionary.table
        assert dictionary.ambiguity_groups() is dictionary.ambiguity_groups()

    def test_unknown_label_still_rejected(self):
        dictionary = tiny_dictionary()
        for method in (dictionary.group_of, dictionary.detectable, dictionary.entry):
            with pytest.raises(ConfigError, match="no dictionary entry"):
                method("f9")

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", 0])
    def test_counts_take_integers_only(self, value):
        dictionary = tiny_dictionary()
        with pytest.raises(ConfigError, match="n_probes must be an integer"):
            select_probe_frequencies(dictionary, value)
        with pytest.raises(ConfigError, match="top_n must be an integer"):
            diagnose(dictionary.nominal, dictionary, top_n=value)

    def test_diagnose_rejects_another_grid(self):
        zero = BoundedValue.exact(0.0)
        dictionary = tiny_dictionary()
        measured = FaultSignature("m", (SignaturePoint(2e3, zero, zero),))
        with pytest.raises(ConfigError, match="different frequencies"):
            diagnose(measured, dictionary)


class TestSummationOrder:
    """Separations sum in point order on every Python version.

    ``sum()`` compensates on Python >= 3.12, so the three squared gaps
    below (about 2, 1.5e-16 and 1.5e-16) would round up there, and the
    root with them; summed one at a time, as on 3.10 and 3.11, the
    small terms are lost.
    """

    def make(self):
        zero = BoundedValue.exact(0.0)
        gaps = (math.sqrt(2.0), math.sqrt(1.5e-16), math.sqrt(1.5e-16))
        a = FaultSignature("a", tuple(
            SignaturePoint(1e3 * (k + 1), zero, zero) for k in range(3)
        ))
        b = FaultSignature("b", tuple(
            SignaturePoint(1e3 * (k + 1), BoundedValue.exact(g), zero)
            for k, g in enumerate(gaps)
        ))
        return a, b

    def test_case_is_order_sensitive(self):
        a, b = self.make()
        for terms in (
            [p.gap(q) ** 2 for p, q in zip(a.points, b.points)],
            [p.estimate_distance(q) ** 2 for p, q in zip(a.points, b.points)],
        ):
            sequential = 0.0
            for term in terms:
                sequential += term
            assert math.sqrt(sequential) != math.sqrt(math.fsum(terms))

    def test_twelve_points_sum_in_point_order(self):
        """NumPy's inner-axis sum is pairwise from 8 terms; the table's is not."""
        zero = BoundedValue.exact(0.0)
        gaps = (math.sqrt(2.0),) + (math.sqrt(1.5e-16),) * 11
        a = FaultSignature("a", tuple(
            SignaturePoint(1e3 * (k + 1), zero, zero) for k in range(12)
        ))
        b = FaultSignature("b", tuple(
            SignaturePoint(1e3 * (k + 1), BoundedValue.exact(g), zero)
            for k, g in enumerate(gaps)
        ))
        gaps = point_gaps(SignatureTable.of([a]), SignatureTable.of([b]))
        squares = np.array([g**2 for g in gaps[0].tolist()])
        assert math.sqrt(squares.sum()) != a.separation(b)
        assert bits(norms(gaps)) == bits([a.separation(b)])

    def test_scalar_and_table_sum_sequentially(self):
        a, b = self.make()
        for point_values, total in (
            ([p.gap(q) for p, q in zip(a.points, b.points)], a.separation(b)),
            (
                [p.estimate_distance(q) for p, q in zip(a.points, b.points)],
                a.estimate_distance(b),
            ),
        ):
            sequential = 0.0
            for value in point_values:
                sequential += value**2
            assert bits(total) == bits(math.sqrt(sequential))
        ta, tb = SignatureTable.of([a]), SignatureTable.of([b])
        assert bits(norms(point_gaps(ta, tb))) == bits([a.separation(b)])
        assert bits(norms(point_estimates(ta, tb))) == bits([a.estimate_distance(b)])
