"""Probe-frequency selection: the fewest sweep points that diagnose.

Test time on a production floor is dominated by the number of measured
sweep points, so a diagnosis program wants the *most discriminating*
subset of a candidate plan, not the whole plan.  The dictionary already
knows, per frequency, which fault pairs a measurement there can tell
apart (their intervals are disjoint); selecting probes is then a
set-cover problem over fault pairs, solved greedily here (the classical
dictionary-compaction heuristic).

Build a dictionary on a dense candidate plan once, select, then
:meth:`~repro.faults.dictionary.FaultDictionary.restrict` — the
production program measures only the selected frequencies.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, require_count
from .dictionary import FaultDictionary
from .table import pair_blocks, point_gaps


def pair_table(
    dictionary: FaultDictionary, include_nominal: bool = True
) -> tuple[np.ndarray, list[float]]:
    """Which signature pairs each frequency separates, and by how much.

    Returns a boolean ``(pairs x frequencies)`` mask, true where the
    pair's interval gap at that frequency is positive, and per
    frequency the margin: the sum of those gaps in pair order.  Pairs
    run over the dictionary's entries (then the nominal signature) in
    the order ``for i: for j > i``.  The gaps come from
    :attr:`FaultDictionary.table
    <repro.faults.dictionary.FaultDictionary.table>` in bounded row
    blocks (:func:`~repro.faults.table.pair_blocks`); only the mask is
    kept, and each margin carries from block to block.
    """
    table = dictionary.table
    n_signatures = len(table) if include_nominal else len(table) - 1
    n_points = len(dictionary.frequencies)
    blocks = [np.zeros((0, n_points), dtype=bool)]
    margin = np.zeros(n_points)
    for i, j in pair_blocks(n_signatures):
        gaps = point_gaps(table.take(i), table.take(j))
        separated = gaps > 0.0
        blocks.append(separated)
        # Running sum in pair order: the carried margin, then each row.
        rows = np.concatenate((margin[None, :], np.where(separated, gaps, 0.0)))
        margin = np.add.accumulate(rows, axis=0)[-1]
    return np.concatenate(blocks), margin.tolist()


def select_probe_frequencies(
    dictionary: FaultDictionary,
    n_probes: int,
    include_nominal: bool = True,
) -> tuple[float, ...]:
    """Greedily pick the most discriminating probe frequencies.

    Each round selects the frequency that separates the most not-yet-
    separated signature pairs (ties: the larger summed separation
    margin, then the lower frequency).  Once every separable pair is
    covered, remaining slots go to the frequencies with the largest
    total margin — redundancy that buys noise immunity rather than new
    coverage.  Pairs no candidate frequency separates are intrinsic
    ambiguity — no subset selection can resolve them.

    Coverage and margins come from :func:`pair_table`.

    Returns the selected frequencies in ascending order.
    """
    frequencies = dictionary.frequencies
    require_count("select_probe_frequencies", "n_probes", n_probes, 1)
    if not n_probes <= len(frequencies):
        raise ConfigError(
            f"n_probes must be in 1..{len(frequencies)}, got {n_probes}"
        )
    separated_by, margins = pair_table(dictionary, include_nominal)

    chosen: list[int] = []
    uncovered = np.ones(len(separated_by), dtype=bool)
    remaining = list(range(len(frequencies)))  # first minimum wins ties
    for _ in range(n_probes):
        counts = separated_by[uncovered].sum(axis=0).tolist()
        best = min(
            remaining,
            key=lambda k: (-counts[k], -margins[k], frequencies[k]),
        )
        chosen.append(best)
        uncovered &= ~separated_by[:, best]
        remaining.remove(best)
    return tuple(sorted(frequencies[k] for k in chosen))
