"""Closed-form window sums of ideal, stream-free state-space rows.

A state-space row of a population call is the zero-state response ``y``
of a z-domain filter ``(num, den)`` of order ``N`` to the shared held
stimulus ``x``, watched over the ``mn`` samples from ``L = lead * n``
(``n = OVERSAMPLING_RATIO``).  An ideal channel's signature needs only
the floors of two prefix sums of ``t = (q y / vref + 1) / 2`` over that
window (:meth:`~repro.evaluator.sigma_delta.FirstOrderSigmaDelta.window_counts`):
``first = T[mn/2 - 2]`` and ``total = T[mn - 2]``.  The per-row path
filters each row with ``lfilter`` and sums ``t`` sample by sample.
:class:`WindowSums` computes the same two sums for every row of a stack
in closed form, with a rigorous bound on how far they can lie from the
per-row path's floating-point sums; a floor is taken from the closed
form only when its argument is further than that bound from an integer.

The exact filter
----------------
``lfilter`` divides ``num`` and ``den`` by ``a0 = den[0]`` once; call
the results ``b`` and ``a`` (``a[0] = 1``).  They are floats, so the
filter they define is exact: ``y*`` is its exact response to the float
stimulus.  The stimulus repeats with period ``n`` after its first
periods: with ``x_p`` its last period, ``x = x_per + d`` where
``x_per[k] = x_p[k mod n]`` and the deviation ``d`` (a few 1e-15 in the
first two periods of a generator render, zero after) is measured when
the form is built, never assumed.  Then, with ``h`` the impulse response,

    ``y* = y_ss + e + h * d``

* ``y_ss`` is the periodic steady state, ``y_ss[k] = (1/n) sum_b H_b
  X_b w^(bk)`` over the DFT bins ``w^b = exp(2 pi i b / n)``, with
  ``H_b = b(w^-b) / a(w^-b)`` and ``X`` the DFT of ``x_p``.  Every window
  starts a whole number of periods in, so the window sum ``sum_i q[i]
  y_ss[L + i]`` is one fixed functional of ``y_ss`` per channel and
  window, and by Parseval a dot product ``sum_b H_b V_b`` with a shared
  vector ``V`` (49 bins for ``n = 96``).
* ``e`` is the transient: the free response that takes the steady state
  back to the zero initial state.  With the poles ``p_j`` (roots of
  ``z^N + a1 z^(N-1) + ... + aN``), ``e[k] = -sum_j C_j p_j^k``.  Its
  window sum is ``-sum_j C_j p_j^L Phi(p_j)``, ``Phi(p) = sum_i q[i]
  p^i``; ``q`` repeats every ``n`` samples within each half-window, so
  ``Phi`` comes from one period's prefix sums per half and geometric
  sums over the periods (chopped and odd-``m`` windows included).
* ``h * d`` is bounded, not computed.

The bound
---------
The poles ``p~`` and coefficients ``C~`` are computed, so the model
transient ``e~[k] = -sum_j C~_j p~_j^k`` is not ``e``.  It does not
need to be: ``e`` obeys ``a(e)[k] = v[k]`` (``v`` collects the steady
state's samples before time 0 and vanishes for ``k >= N``), so ``delta =
e - e~`` is the response ``g * u`` of ``1 / a`` to the residual ``u = v
- a(e~)``.  ``C~`` solves ``u[k] = 0`` for ``k < N``; what is left is
computed with its rounding bound for ``k < N`` and is ``sum_j C~_j
p~_j^(k-N) P(p~_j)`` after, ``P`` the monic pole polynomial, so
``||u||_1`` is bounded.  ``||g||_1 <= (1 - R)^-N`` once every exact pole
lies in the disc ``|z| <= R < 1``; by Gerschgorin's theorem on ``diag(p~)
- 1 W^T`` (whose characteristic polynomial is ``P``), every exact pole
lies within ``N |W_j|`` of some ``p~_j``, ``W_j = P(p~_j) / prod_(i!=j)
(p~_j - p~_i)``.  Close or repeated poles make ``W`` large, so their
rows are not certified.  ``||h||_1 <= ||g||_1 ||b||_1`` bounds ``h * d``.

The closed form's own rounding is bounded by a second pass on absolute
values: every complex quantity carries its majorant (the same expression
on absolute values) and its rounding depth (:class:`_Term`), and the
spectral stage carries componentwise radii.  To those the per-row
path's error is added: ``lfilter``'s transposed direct form II puts at
most ``gamma(3N + 3) (N + 1) (||b||_1 X + ||a'||_1 Y)`` of rounding into
each step (``X``, ``Y`` the input and output peaks), which ``1 / a``
spreads by ``||g||_1``; ``t`` rounds to within ``gamma(2)`` per term, and
a sum of ``K + 1`` terms in ``[0, 1]``, in any order, to within
``gamma(K) (K + 1)``.  A row is in range (the per-row path's closed-form
branch, no overload) only when its steady-state peak, its transient at
``L``, the residual and deviation terms and the filter error stay below
``vref``.  Uncertified rows take the per-row path, so the counts are the
per-row path's by construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError

_U = 2.0**-53  # unit roundoff of IEEE double


def _gamma(k: int) -> float:
    """``k u / (1 - k u)``: the relative error of ``k`` roundings."""
    return k * _U / (1.0 - k * _U)


#: Each bound is a sum of products of nonnegative floats rounded to
#: nearest, at most ``(1 - u)**4000`` short of its exact value; this
#: factor covers that with room to spare.
_SAFETY = 1.0 + 2.0**-30
#: Absolute allowance for underflowed products (each loses at most
#: ``2**-1074`` to underflow; every majorant stays far below ``2**100``).
_TINY = 2.0**-900
#: Error of a DFT table entry: libm's cos/sin within one ulp of an
#: argument ``2 pi k / n`` that is itself rounded three times.
_TABLE_ERROR = 32 * _U
#: Rows per block of the pole stage, and per sub-block of the spectral
#: stage, whose ``(rows x bins)`` arrays then stay cache-sized.
_BLOCK_ROWS = 2048
_SPECTRAL_ROWS = 512


class _Term(NamedTuple):
    """A complex array computed in floating point, ``|value - exact| <=
    gamma(depth) * mag``: ``mag`` is the same expression evaluated on
    absolute values (the majorant), ``depth`` the roundings it counts
    (3 per complex product, 1 per sum)."""

    value: np.ndarray
    mag: np.ndarray
    depth: int

    @property
    def error(self) -> np.ndarray:
        return _gamma(self.depth) * self.mag


def _leaf(value: np.ndarray) -> _Term:
    """An exact complex input."""
    return _Term(value, np.abs(value), 0)


def _mul(x: _Term, y: _Term) -> _Term:
    return _Term(x.value * y.value, x.mag * y.mag, x.depth + y.depth + 3)


def _add(x: _Term, y: _Term) -> _Term:
    return _Term(x.value + y.value, x.mag + y.mag, max(x.depth, y.depth) + 1)


def _signed(x: _Term, sign: float) -> _Term:
    """``sign * x`` for ``sign`` in {1, -1}: exact."""
    return _Term(sign * x.value, abs(sign) * x.mag, x.depth)


class _Powers:
    """``x**e`` and ``G_e(x) = 1 + x + ... + x**(e - 1)`` of a base
    ``x``, from its chain of squares ``x**(2**i)`` and the doubled sums
    ``G_(2**(i+1)) = G_(2**i) (1 + x**(2**i))`` — no division, so a
    pole near 1 loses nothing to cancellation."""

    def __init__(self, base: _Term) -> None:
        one = np.ones_like(base.value)
        self.chain = [(base, _Term(one, np.ones(one.shape), 0))]
        self._memo: dict[int, tuple[_Term, _Term]] = {}

    def _link(self, i: int) -> tuple[_Term, _Term]:
        while len(self.chain) <= i:
            power, total = self.chain[-1]
            self.chain.append((_mul(power, power), _add(total, _mul(power, total))))
        return self.chain[i]

    def __call__(self, e: int) -> tuple[_Term | None, _Term | None]:
        """``(x**e, G_e)``; None stands for 1 and 0 at ``e = 0``."""
        if e not in self._memo:
            power = total = None
            for i in range(e.bit_length()):
                if e >> i & 1:
                    link_power, link_total = self._link(i)
                    if power is None:
                        power, total = link_power, link_total
                    else:
                        total = _add(total, _mul(power, link_total))
                        power = _mul(power, link_power)
            self._memo[e] = (power, total)
        return self._memo[e]

    def per_row(self, e: np.ndarray) -> _Term:
        """``x**e[r]`` for row ``r`` (``e`` broadcasts over the pole axis)."""
        value = np.ones_like(self.chain[0][0].value)
        result = _Term(value, np.ones(value.shape), 0)
        for i in range(int(e.max()).bit_length()):
            bit = ((e >> i) & 1).astype(bool)[:, None]
            if bit.any():
                product = _mul(result, self._link(i)[0])
                result = _Term(
                    np.where(bit, product.value, result.value),
                    np.where(bit, product.mag, result.mag),
                    product.depth,
                )
        return result


class Sums(NamedTuple):
    """Closed-form window sums of a stack's rows: ``first[c, r]`` and
    ``total[c, r]`` for channel ``c`` and row ``r``, each within
    ``first_bound``/``total_bound`` of the per-row path's floating-point
    sums where ``in_range[r]`` holds (elsewhere they mean nothing)."""

    first: np.ndarray
    total: np.ndarray
    first_bound: np.ndarray
    total_bound: np.ndarray
    in_range: np.ndarray


class WindowSums:
    """The closed form's shared part for one stimulus render and one
    pair of channel modulations ``q`` ``(2 x mn)``: the stimulus period,
    its measured deviation, and the Parseval vectors of the window
    functionals.  Immutable once built; :meth:`sums` evaluates stacks.
    """

    def __init__(self, stimulus: np.ndarray, q: np.ndarray, vref: float, n: int) -> None:
        stimulus = np.asarray(stimulus, dtype=float)
        mn = q.shape[1]
        if n < 4 or mn % 2 or mn < 4 or len(stimulus) < n or len(stimulus) % n:
            raise ConfigError(
                f"closed-form window sums need whole periods of n = {n} "
                f"samples and an even window, got {len(stimulus)} and {mn}"
            )
        self.n = n
        self.mn = mn
        self.half = mn // 2
        self.vref = float(vref)
        self.samples = len(stimulus)
        period = stimulus[-n:].copy()
        self.period = period
        # The deviation from the periodic extension, and its norms
        # (each difference rounds once).
        deviation = np.abs(stimulus - np.tile(period, len(stimulus) // n))
        self.d_l1 = math.fsum(deviation.tolist()) * (1.0 + 2 * _U)
        self.d_inf = float(deviation.max()) * (1.0 + 2 * _U)
        self.x_max = float(np.abs(stimulus).max())
        # Each half of the window repeats one period's signs.
        self.patterns = []
        for signs in np.asarray(q, dtype=float):
            halves = []
            for part in (signs[: self.half], signs[self.half :]):
                pattern = np.zeros(n)
                pattern[: min(n, len(part))] = part[:n]
                if not np.array_equal(part, np.resize(pattern, len(part))):
                    raise ConfigError(
                        "closed-form window sums need a modulation that "
                        "repeats every period within each half-window"
                    )
                halves.append(pattern)
            self.patterns.append(halves)
        # DFT tables: angle index (b * k) mod n, reduced before rounding.
        self.bins = n // 2 + 1
        k = np.arange(n)
        angle = 2.0 * np.pi * ((np.arange(self.bins)[:, None] * k) % n) / n
        self._cos, self._sin = np.cos(angle), np.sin(angle)  # (bins x n)
        weight = np.full(self.bins, 2.0)
        weight[0] = 1.0
        if n % 2 == 0:
            weight[-1] = 1.0
        self._weight = weight
        self._circulant = (k[None, :] + k[:, None]) % n  # [r, l] = (l + r) mod n
        # The window functionals: per channel, first then total.
        windows = []
        for c in range(len(q)):
            for last in (self.half - 2, mn - 2):
                lam = np.bincount(
                    np.arange(last + 1) % n, weights=q[c, : last + 1], minlength=n
                )
                windows.append(lam)
        self._windows = self._functionals(windows)
        spectrum_r = self._cos @ period
        spectrum_i = -(self._sin @ period)
        spread = (_gamma(n) + _TABLE_ERROR) * float(np.abs(period).sum()) * math.sqrt(2)
        self._peak = (
            weight * (np.hypot(spectrum_r, spectrum_i) + spread) / n * (1.0 + _gamma(4))
        )
        self._by_order: dict[int, tuple] = {}

    def _functionals(self, weights: list) -> tuple:
        """Parseval matrices of functionals ``sum_k lam[k] y_ss[k]``, one
        column per ``lam``: ``(V, K1, K2)`` with the functional of a row
        ``[Re H | Im H] @ V`` and its error ``e_H @ K1 + |[Re H | Im H]|
        @ K2`` for componentwise errors ``e_H`` of ``H``.

        ``V_b = X_b Lam_b / n = (1/n) sum_r c_r w^(br)``, ``c`` the
        circular correlation of ``x_p`` with ``lam``.
        """
        n = self.n
        lam = np.array(weights, dtype=float)  # (S x n)
        stacked = lam[:, self._circulant]  # (S x n x n): lam[(l + r) mod n]
        c = stacked @ self.period  # (S x n)
        c_error = _gamma(n) * (np.abs(stacked) @ np.abs(self.period))
        vr = (c @ self._cos.T) / n  # (S x bins)
        vi = (c @ self._sin.T) / n
        v_error = (
            (_gamma(n + 1) + _TABLE_ERROR) * np.abs(c).sum(axis=1)
            + c_error.sum(axis=1)
        ) / n * (1.0 + _gamma(2))
        w = self._weight
        matrix = np.concatenate([(w * vr).T, -(w * vi).T])  # (2 bins x S)
        k1 = (w[:, None] * (np.abs(vr) + np.abs(vi) + 2.0 * v_error[:, None]).T)
        k2 = _gamma(2 * self.bins + 2) * np.abs(matrix) + np.concatenate(
            [w[:, None] * v_error[None, :]] * 2
        )
        return matrix, k1, k2

    # ------------------------------------------------------------------
    def sums(self, num: np.ndarray, den: np.ndarray, leads: np.ndarray) -> Sums:
        """The window sums of a stack's rows, ``(num, den)`` of one order
        and each row's lead-in in periods."""
        num = np.asarray(num, dtype=float)
        den = np.asarray(den, dtype=float)
        leads = np.asarray(leads, dtype=np.int64)
        rows = len(leads)
        needed = int(leads.max(initial=0)) * self.n + self.mn
        if self.samples < needed:
            raise ConfigError(
                f"closed-form window sums: the stimulus holds "
                f"{self.samples} samples, the rows need {needed}"
            )
        out = [np.empty((2, rows)) for _ in range(4)] + [np.zeros(rows, dtype=bool)]
        if num.shape[1] < 2:
            return Sums(*out)
        with np.errstate(all="ignore"):
            for start in range(0, rows, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                parts = self._block(num[block], den[block], leads[block])
                for array, part in zip(out, parts):
                    array[..., block] = part
        return Sums(*out)

    def _block(self, num: np.ndarray, den: np.ndarray, leads: np.ndarray) -> tuple:
        n, half, mn, vref = self.n, self.half, self.mn, self.vref
        order = den.shape[1] - 1
        # lfilter's normalization, operation for operation.
        a0 = den[:, :1]
        b = num / a0
        a = den / a0
        b_l1 = np.abs(b).sum(axis=1) * (1.0 + _gamma(order + 1))
        a_l1 = np.abs(a[:, 1:]).sum(axis=1) * (1.0 + _gamma(order + 1))

        # Steady state: H at the DFT bins, then every functional at once.
        steady, steady_error, peak = (
            np.concatenate(parts, axis=0)
            for parts in zip(
                *(
                    self._steady_state(b[i : i + _SPECTRAL_ROWS], a[i : i + _SPECTRAL_ROWS])
                    for i in range(0, len(b), _SPECTRAL_ROWS)
                )
            )
        )
        windows, past = steady[:, :4], steady[:, 4:]
        windows_error, past_error = steady_error[:, :4], steady_error[:, 4:]

        # Poles, their enclosing radius and ||g||_1 <= (1 - R)**-N.
        poles = _poles(a)
        p = _leaf(poles)
        horner = [None]  # E_k(p) = p**k + a_1 p**(k-1) + ... + a_k
        term = _Term(np.ones_like(poles), np.ones(poles.shape), 0)
        horner[0] = term
        for k in range(1, order + 1):
            term = _add(_mul(term, p), _leaf(np.repeat(a[:, k : k + 1], order, axis=1) + 0j))
            horner.append(term)
        at_pole = horner[order]  # P(p~_j)
        at_pole_abs = np.abs(at_pole.value) + at_pole.error
        spread = np.ones(poles.shape)
        for j in range(order):
            gap = None
            for i in range(order):
                if i != j:
                    diff = _Term(
                        poles[:, j] - poles[:, i],
                        np.abs(poles[:, j]) + np.abs(poles[:, i]),
                        1,
                    )
                    gap = diff if gap is None else _mul(gap, diff)
            if gap is not None:
                spread[:, j] = np.abs(gap.value) - gap.error
        radius = np.abs(poles) + order * at_pole_abs / spread
        radius = np.where(spread > 0, radius, np.inf).max(axis=1) * _SAFETY
        g_l1 = (1.0 - radius) ** -order
        g_l1 = np.where(radius < 1.0, g_l1, np.inf)

        # v[k] (k < N): the steady state's samples before time 0.
        v = np.zeros((len(b), order))
        v_mag = np.zeros((len(b), order))
        v_error = np.zeros((len(b), order))
        for k in range(order):
            for i in range(k + 1, order + 1):
                lag = i - k
                x_past = self.period[n - lag]
                v[:, k] += a[:, i] * past[:, lag - 1] - b[:, i] * x_past
                v_mag[:, k] += np.abs(a[:, i] * past[:, lag - 1]) + np.abs(b[:, i] * x_past)
                v_error[:, k] += np.abs(a[:, i]) * past_error[:, lag - 1]
        v_error += _gamma(2 * order + 2) * v_mag

        # C~ solves u[k] = v[k] + sum_j C_j E_k(p_j) = 0 for k < N.
        coefficients = _solve(
            np.stack([h.value for h in horner[:order]], axis=1), -v + 0j
        )
        c_abs = np.abs(coefficients)
        u_l1 = np.zeros(len(b))
        for k in range(order):
            residual = v[:, k] + (coefficients * horner[k].value).sum(axis=1)
            depth = horner[k].depth + 3 + order + 1
            bound = (
                np.abs(residual)
                + _gamma(depth) * (np.abs(v[:, k]) + (c_abs * horner[k].mag).sum(axis=1))
                + v_error[:, k]
            )
            u_l1 += bound
        # k >= N: u[k] = sum_j C_j p_j**(k-N) P(p_j), a geometric tail.
        u_l1 += (c_abs * at_pole_abs).sum(axis=1) / (1.0 - np.minimum(radius, 1.0))
        u_l1 = u_l1 * (1.0 + _gamma(2 * order + 4))
        residual_sum = g_l1 * (u_l1 + b_l1 * self.d_l1)

        # The transient's window sums: -sum_j C_j p_j**L Phi(p_j).
        powers = _Powers(p)
        periods = _Powers(powers(n)[0])
        at_lead = periods.per_row(leads)
        transient = []
        transient_error = []
        for c in range(2):
            first_half, second_half = self.patterns[c]
            phi_first = self._prefix(first_half, half - 1, powers, periods)
            later = _mul(
                self._power(half, powers, periods),
                self._prefix(second_half, half - 1, powers, periods),
            )
            phi_total = _add(self._prefix(first_half, half, powers, periods), later)
            for phi in (phi_first, phi_total):
                product = _mul(at_lead, phi)
                transient.append(-(coefficients * product.value).sum(axis=1).real)
                transient_error.append(
                    _gamma(product.depth + 3 + order) * (c_abs * product.mag).sum(axis=1)
                )
        transient = np.stack(transient, axis=1)
        transient_error = np.stack(transient_error, axis=1)

        # Range: the window's peak plus lfilter's error stays below vref.
        c_total = c_abs.sum(axis=1)
        tail = g_l1 * (u_l1 + b_l1 * self.d_inf)
        response_peak = np.minimum(peak + c_total + tail, g_l1 * b_l1 * self.x_max)
        filter_error = lfilter_error(order, g_l1, b_l1, a_l1, self.x_max, response_peak)
        window_peak = (
            peak
            + (c_abs * at_lead.mag).sum(axis=1) * (1.0 + _gamma(at_lead.depth + order + 3))
            + tail
            + filter_error
        ) * _SAFETY
        in_range = window_peak <= vref

        # Assemble first = T[mn/2 - 2] and total = T[mn - 2] and bound them.
        terms = np.array([half - 1, mn - 1] * 2, dtype=float)  # K + 1 per column
        scale = 2.0 * vref
        signal = windows + transient
        value = 0.5 * terms + signal / scale
        own = (
            windows_error + transient_error + residual_sum[:, None]
            + _gamma(2) * np.abs(signal)
        ) / scale + _gamma(2) * np.abs(value)
        per_row = summation_error(terms, filter_error[:, None] / scale)
        bound = (own + per_row) * _SAFETY + _TINY
        first = value[:, 0::2].T
        total = value[:, 1::2].T
        return first, total, bound[:, 0::2].T, bound[:, 1::2].T, in_range

    def _steady_state(self, b: np.ndarray, a: np.ndarray):
        """Every functional of each row's steady state with its error
        bound, and a bound on the steady state's peak."""
        order = a.shape[1] - 1
        table_r = self._cos[:, : order + 1].T  # (order + 1) x bins: cos(2 pi b i / n)
        table_i = -self._sin[:, : order + 1].T  # w^(-b i)
        nr, ni = b @ table_r, b @ table_i
        dr, di = a @ table_r, a @ table_i
        inner = _gamma(order + 1) * (1.0 + _TABLE_ERROR) + _TABLE_ERROR
        err_n = math.sqrt(2) * inner * np.abs(b).sum(axis=1)[:, None]
        err_d = math.sqrt(2) * inner * np.abs(a).sum(axis=1)[:, None]
        square = dr * dr + di * di
        hr = (nr * dr + ni * di) / square
        hi = (ni * dr - nr * di) / square
        # |d~| from below and |n~ / d~| from above, each within a few
        # roundings of the computed values.
        gap = np.maximum(np.sqrt(square) * (1.0 - _gamma(3)) - err_d, 0.0)
        mag_h = np.sqrt(hr * hr + hi * hi) * (1.0 + _gamma(16))
        e_h = (err_n + mag_h * err_d) / gap + _gamma(8) * mag_h  # inf if gap = 0
        matrix, k1, k2 = self._matrices(order)
        bins = self.bins
        values = hr @ matrix[:bins] + hi @ matrix[bins:]
        errors = e_h @ k1 + np.abs(hr) @ k2[:bins] + np.abs(hi) @ k2[bins:]
        return values[:, :-1], errors[:, :-1], mag_h @ self._peak + errors[:, -1]

    def _matrices(self, order: int) -> tuple:
        """The Parseval matrices of a stack of ``order``: the four window
        functionals, then ``y_ss[-l] = y_ss[n - l]`` for ``l = 1 ..
        order``, then (in ``K1`` only) the peak bound's error column."""
        if order not in self._by_order:
            weights = []
            for lag in range(1, order + 1):
                lam = np.zeros(self.n)
                lam[self.n - lag] = 1.0
                weights.append(lam)
            past = self._functionals(weights)
            matrix, k1, k2 = (
                np.concatenate([w, p], axis=1) for w, p in zip(self._windows, past)
            )
            # The peak: |H_b| <= |H~_b| + sqrt(2) e_H.
            self._by_order[order] = (
                np.concatenate([matrix, np.zeros((len(matrix), 1))], axis=1),
                np.concatenate([k1, math.sqrt(2) * self._peak[:, None]], axis=1),
                np.concatenate([k2, np.zeros((len(k2), 1))], axis=1),
            )
        return self._by_order[order]

    def _power(self, e: int, powers: _Powers, periods: _Powers) -> _Term:
        """``p**e`` as ``(p**n)**(e // n) p**(e mod n)``."""
        whole, _ = periods(e // self.n)
        part, _ = powers(e % self.n)
        if whole is None:
            return part if part is not None else _leaf(np.ones_like(powers.chain[0][0].value))
        return whole if part is None else _mul(whole, part)

    def _prefix(
        self, pattern: np.ndarray, count: int, powers: _Powers, periods: _Powers
    ) -> _Term:
        """``sum_(i < count) pattern[i mod n] p**i``: whole periods as a
        geometric sum in ``p**n``, then the partial period."""
        n = self.n
        whole, rest = divmod(count, n)
        result = None
        if whole:
            period = self._period_prefix(pattern, n, powers)
            _, repeats = periods(whole)
            result = _mul(period, repeats)
        if rest:
            partial = self._period_prefix(pattern, rest, powers)
            shift, _ = periods(whole)
            if shift is not None:
                partial = _mul(shift, partial)
            result = partial if result is None else _add(result, partial)
        if result is None:
            zero = np.zeros_like(powers.chain[0][0].value)
            return _Term(zero, np.zeros(zero.shape), 0)
        return result

    @staticmethod
    def _period_prefix(pattern: np.ndarray, count: int, powers: _Powers) -> _Term:
        """``sum_(i < count) pattern[i] p**i`` over the runs of equal
        signs: ``sign p**start G_length``."""
        result = None
        start = 0
        while start < count:
            stop = start
            while stop < count and pattern[stop] == pattern[start]:
                stop += 1
            sign = float(pattern[start])
            if sign:
                shift, _ = powers(start)
                _, run = powers(stop - start)
                term = run if shift is None else _mul(shift, run)
                term = _signed(term, sign)
                result = term if result is None else _add(result, term)
            start = stop
        if result is None:
            zero = np.zeros_like(powers.chain[0][0].value)
            return _Term(zero, np.zeros(zero.shape), 0)
        return result


def lfilter_error(order, g_l1, b_l1, a_l1, x_max, y_peak):
    """A bound on ``|lfilter(b, a, x) - y*|`` at every sample.

    Each step of the transposed direct form II rounds ``y = z0 + b0 x``
    (within ``gamma(2)`` of ``|z0| + |b0 x|``) and each state update
    ``z_i = (z_(i+1) + x b_(i+1)) - y a_(i+1)`` (within ``gamma(3)`` of
    its terms' magnitudes); fused multiply-adds only round less.
    Unrolled, these errors enter the difference equation as one input
    ``eta[k]`` with ``|eta| <= (N + 1) gamma(3N + 3) (||b||_1 X + ||a'||_1
    Y~)``, ``X`` the input peak, ``Y~ <= y_peak + error`` the computed
    output's, and ``1 / a`` passes it on with gain ``||g||_1``.  Solved
    for the error; infinite where the recursion would not contract.
    """
    gain = g_l1 * (order + 1) * _gamma(3 * order + 3)
    error = gain * (b_l1 * x_max + a_l1 * y_peak) / (1.0 - gain * a_l1)
    return np.where(gain * a_l1 < 0.5, error, np.inf)


def summation_error(terms, relative):
    """A bound on ``|sum t~ - sum t*|`` for the per-row path's sum of
    ``terms`` terms ``t~ = fl((fl(q y~ / vref) + 1) * 0.5)`` in ``[0, 1]``,
    when ``|y~ - y*| <= 2 vref relative``: each term is off by at most
    ``relative + gamma(2)``, and ``terms - 1`` additions in any order by
    ``gamma(terms) * terms * max |t~|``."""
    terms = np.asarray(terms, dtype=float)
    sequential = np.array([_gamma(int(k)) for k in np.ravel(terms)]).reshape(terms.shape)
    return terms * (relative + _gamma(2)) + sequential * terms * (1.0 + _gamma(2) + relative)


def _poles(a: np.ndarray) -> np.ndarray:
    """Roots of ``z^N + a1 z^(N-1) + ... + aN`` per row ``(rows x N)``.

    Their accuracy affects only how tight the bound is, never its
    validity: the enclosure is computed from the residuals.
    """
    order = a.shape[1] - 1
    if order == 1:
        return -a[:, 1:] + 0j
    if order == 2:
        b, c = a[:, 1], a[:, 2]
        root = np.sqrt(b * b - 4.0 * c + 0j)
        big = -0.5 * (b + np.where(b >= 0, 1.0, -1.0) * root)
        return np.stack([big, c / big], axis=1)
    companion = np.zeros((len(a), order, order))
    companion[:, 0, :] = -a[:, 1:]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    return np.linalg.eigvals(companion)


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched ``matrix @ x = rhs`` by elimination without pivoting; a
    zero pivot gives non-finite ``x``, which no bound certifies."""
    m = matrix.copy()
    x = rhs.copy()
    size = m.shape[1]
    for k in range(size):
        for i in range(k + 1, size):
            factor = m[:, i, k] / m[:, k, k]
            m[:, i, k:] -= factor[:, None] * m[:, k, k:]
            x[:, i] -= factor * x[:, k]
    for k in reversed(range(size)):
        x[:, k] = (x[:, k] - (m[:, k, k + 1 :] * x[:, k + 1 :]).sum(axis=1)) / m[:, k, k]
    return x


def floors_agree(y0: np.ndarray, sums: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Where ``floor(y0 + s)`` for a closed-form sum ``s`` is the per-row
    path's floor: ``y0 + s`` and the per-row ``y0 + s'`` (``|s - s'| <=
    bound``) each round once, so the floors agree whenever the argument
    lies further than the bound and both roundings from an integer.
    NaN anywhere fails."""
    argument = y0 + sums
    fraction = argument - np.floor(argument)
    margin = (bounds + 4 * _U * (np.abs(argument) + np.abs(y0) + bounds)) * _SAFETY
    return np.minimum(fraction, 1.0 - fraction) > margin
