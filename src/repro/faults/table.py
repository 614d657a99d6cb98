"""Stacked signature intervals: the array form of the dictionary's distances.

A :class:`SignatureTable` holds the gain and phase lower/upper/value
readings of several signatures on one probe grid as
``(signatures x points)`` arrays.  Its kernels give, bit for bit, what
the scalar methods give one pair at a time:

* :func:`point_gaps` -- :meth:`SignaturePoint.gap
  <repro.faults.dictionary.SignaturePoint.gap>` per pair and point;
* :func:`point_estimates` -- :meth:`SignaturePoint.estimate_distance
  <repro.faults.dictionary.SignaturePoint.estimate_distance>`;
* :func:`norms` -- the per-pair root of the point-order sum of squares,
  as in :meth:`FaultSignature.separation
  <repro.faults.dictionary.FaultSignature.separation>` and
  :meth:`FaultSignature.estimate_distance
  <repro.faults.dictionary.FaultSignature.estimate_distance>`.

The arithmetic contract that makes them exact: the interval and angular
gaps use only max/min (first argument kept on ties), subtraction,
addition and ``fmod``, elementwise as the scalar code does them.  The
per-point norm is CPython's own ``math.hypot`` and the square Python's
``**``, called per element (NumPy's ``hypot`` and ``x*x`` round
differently), and only where a value is non-zero, since
``hypot(0, 0)`` and ``0.0 ** 2`` are ``0.0``.  Sums run one point
column at a time, in point order, never as an inner-axis ``np.sum``
(which is pairwise), and ``np.sqrt`` is IEEE-exact like ``math.sqrt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..intervals import angular_distance_array, angular_gap_array

#: Phase intervals are degrees on the circle: comparisons wrap at 360.
PHASE_PERIOD_DEG = 360.0

#: Rows of the pair table built per block by :func:`pair_blocks`.  A
#: block's gaps pass through Python float lists (``math.hypot``), about
#: 100 bytes per element, so this keeps a 12-point block near 1 MB.
PAIR_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class SignatureTable:
    """Gain/phase readings of signatures on one grid, ``(signatures x points)``."""

    gain_lower: np.ndarray
    gain_upper: np.ndarray
    gain_value: np.ndarray
    phase_lower: np.ndarray
    phase_upper: np.ndarray
    phase_value: np.ndarray

    @classmethod
    def of(cls, signatures: Sequence) -> "SignatureTable":
        """Stack :class:`~repro.faults.dictionary.FaultSignature` readings."""
        readings = np.array(
            [
                [
                    (
                        p.gain_db.lower,
                        p.gain_db.upper,
                        p.gain_db.value,
                        p.phase_deg.lower,
                        p.phase_deg.upper,
                        p.phase_deg.value,
                    )
                    for p in signature.points
                ]
                for signature in signatures
            ],
            dtype=float,
        )
        return cls(*(np.ascontiguousarray(readings[:, :, k]) for k in range(6)))

    def __len__(self) -> int:
        return self.gain_lower.shape[0]

    def take(self, rows) -> "SignatureTable":
        """The table of the given signature rows (an index array or slice)."""
        return SignatureTable(
            self.gain_lower[rows],
            self.gain_upper[rows],
            self.gain_value[rows],
            self.phase_lower[rows],
            self.phase_upper[rows],
            self.phase_value[rows],
        )


def _python_max(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``max(x, y)`` elementwise: ``x`` unless ``y > x``."""
    return np.where(y > x, y, x)


def _python_min(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``min(x, y)`` elementwise: ``x`` unless ``y < x``."""
    return np.where(y < x, y, x)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` per element pair, called where either is non-zero.

    Elsewhere the result is ``hypot(0, 0) = +0.0``; NaN counts as
    non-zero.
    """
    x, y = np.broadcast_arrays(x, y)
    out = np.zeros(x.shape)
    live = (x != 0.0) | (y != 0.0)
    out[live] = list(map(math.hypot, x[live].tolist(), y[live].tolist()))
    return out


def point_gaps(a: SignatureTable, b: SignatureTable) -> np.ndarray:
    """``a.points[k].gap(b.points[k])`` for every row pair and point ``k``.

    ``a`` and ``b`` broadcast row-wise (a one-row table against many).
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python
        gain = _python_max(a.gain_lower, b.gain_lower) - _python_min(
            a.gain_upper, b.gain_upper
        )
    gain = np.where(gain > 0.0, gain, 0.0)  # max(0.0, gain)
    phase = angular_gap_array(
        a.phase_lower, a.phase_upper, b.phase_lower, b.phase_upper,
        PHASE_PERIOD_DEG,
    )
    return _hypot(gain, phase)


def point_estimates(a: SignatureTable, b: SignatureTable) -> np.ndarray:
    """``a.points[k].estimate_distance(b.points[k])`` for every pair and point."""
    with np.errstate(invalid="ignore"):
        gain = a.gain_value - b.gain_value
    return _hypot(
        gain, angular_distance_array(a.phase_value, b.phase_value, PHASE_PERIOD_DEG)
    )


def norms(values: np.ndarray) -> np.ndarray:
    """Per row: ``sqrt`` of the point-order sum of the squared values."""
    squares = np.zeros(values.shape)
    live = values != 0.0  # 0.0 ** 2 is +0.0
    squares[live] = [x**2 for x in values[live].tolist()]
    total = np.zeros(squares.shape[0])
    for k in range(squares.shape[1]):
        total += squares[:, k]
    return np.sqrt(total)


def pair_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays ``(i, j)`` of the pairs ``i < j < n``, in blocks.

    Pairs come in the order of the nested loop ``for i: for j > i``,
    at most :data:`PAIR_BLOCK_ROWS` per block, so a pair table over
    them is built in bounded pieces.
    """
    runs = np.arange(n - 1, 0, -1)  # pairs with first index i = 0, 1, ...
    run_start = np.cumsum(runs) - runs
    total = n * (n - 1) // 2
    for first in range(0, total, PAIR_BLOCK_ROWS):
        pair = np.arange(first, min(first + PAIR_BLOCK_ROWS, total))
        i = np.searchsorted(run_start, pair, side="right") - 1
        yield i, pair - run_start[i] + i + 1
