"""Continuous-time LTI device with exact zero-order-hold simulation.

The continuous system ``x' = A x + B u``, ``y = C x + D u`` is advanced on
the evaluator clock using the exact matrix-exponential ZOH discretization
``Ad = expm(A T)``, ``Bd = (integral_0^T expm(A tau) dtau) B`` (computed
via the standard augmented-matrix exponential, :func:`expm_rows`).
Because the stimulus is a held staircase — constant within each
master-clock period by construction — this is an *exact* simulation of
the analog response at the sample instants, not a numerical
approximation.

Output convention: ``y[n]`` is taken at the sample instant *before* the
interval's state update, i.e. ``y[n] = C x(t_n) + D u[n]``.

Stacked kernel
--------------
The arithmetic lives in module functions over *stacked* models — a
leading device axis on ``(a, b, c, d)`` — so one call serves a whole
population slot: :func:`zoh_transfer` (discretization plus z-domain
coefficients) and :func:`frequency_responses`.
:class:`StateSpaceDUT` calls the same functions with one row, so the
per-device reference path and the population backend run identical
floating-point operations by construction; so does the settling time
(:func:`settle_seconds`, from stacked poles).  A measured slot takes
its devices as one :class:`Population` — the stacks by state order,
each row's settling time and routing — built once per chunk
(:func:`stack_population` from a DUT list, or straight from component
arrays by :func:`repro.dut.active_rc.lot_population`).

The matrix exponential is the module's own stacked scaling-and-squaring
kernel (:func:`expm_rows`: one exact power-of-two balancing sweep, then
the degree-13 Padé approximant of Higham 2005 with each row's own
squaring count).  A block of rows is evaluated together with batched
``matmul`` and ``solve``, which work slice by slice, so a row's bits
depend on that row alone: the one-row call of the reference backend
and a population's stacked call agree bit for bit.  Its bits are not
SciPy's: on the tested models it stays within 256 ulp of the row's
largest entry of SciPy's per-slice ``expm``, most of that distance
being SciPy's own error.  Like SciPy's, its last bits may move with the
host's BLAS kernel; the exact channel does not.

The z-domain coefficients follow :func:`scipy.signal.ss2tf`
(``den = poly(Ad)``, ``num = poly(Ad - Bd C) + (D - 1) den``): the
eigenvalues come from LAPACK slice by slice, and the characteristic-
polynomial coefficients of first- and second-order models are formed in
explicit real arithmetic — the products NumPy's complex convolution
rounds — rather than by a complex multiply, whose fused kernels round
differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

from ..errors import ConfigError
from ..signals.waveform import Waveform
from .base import DUT


class StateSpaceStack(NamedTuple):
    """State-space models of one order stacked along a device axis."""

    a: np.ndarray  # (N, n, n)
    b: np.ndarray  # (N, n)
    c: np.ndarray  # (N, n)
    d: np.ndarray  # (N,)


def stack_by_order(models) -> list[tuple[list[int], StateSpaceStack]]:
    """Group models by state order and stack each group.

    ``models`` may hold ``None`` entries (devices without a state-space
    model); they are skipped.  Returns ``(indices, stack)`` pairs, the
    indices naming each stacked row's position in ``models``.
    """
    groups: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        if model is not None:
            groups.setdefault(model.order, []).append(i)
    stacks = []
    for rows in groups.values():
        group = [models[i] for i in rows]
        stacks.append(
            (
                rows,
                StateSpaceStack(
                    a=np.array([m.a for m in group]),
                    b=np.array([m.b for m in group]),
                    c=np.array([m.c for m in group]),
                    d=np.array([m.d for m in group]),
                ),
            )
        )
    return stacks


def settle_seconds(poles, tolerance: float) -> np.ndarray:
    """Stacked settling times: seconds for each row's slowest mode of
    ``poles`` ``(N, n)`` to decay to ``tolerance``.

    The analyzer discards this much lead-in before integrating
    signatures, mirroring the lab practice of waiting for the DUT to
    reach steady state.
    """
    if not 0 < tolerance < 1:
        raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
    slowest = np.min(-np.asarray(poles).real, axis=1)
    return np.log(1.0 / tolerance) / slowest


@dataclass(frozen=True)
class Population:
    """A chunk of devices in the stacked form a measured slot consumes.

    ``stacks`` holds ``(rows, stack)`` pairs, ``rows`` naming each
    stacked model's row; ``settle`` is each row's settling time (seconds) at
    the analyzer's tolerance and ``continuous`` its
    :attr:`~repro.dut.base.DUT.responds_continuous` flag.  Rows without
    a state-space model keep their device in ``others``.
    """

    stacks: list[tuple[np.ndarray, StateSpaceStack]]
    settle: np.ndarray
    continuous: np.ndarray
    others: dict[int, DUT]

    def __len__(self) -> int:
        return len(self.settle)


def stack_population(duts, tolerance: float) -> Population:
    """A DUT list as one :class:`Population` (settle times at ``tolerance``).

    Each device's own ``settling_time`` gives its row's settle seconds
    (0 for objects without one).
    """
    duts = list(duts)
    models = [dut.state_space() for dut in duts]
    settle = []
    for dut in duts:
        settling_time = getattr(dut, "settling_time", None)
        settle.append(0.0 if settling_time is None else settling_time(tolerance))
    return Population(
        stacks=[(np.asarray(rows), stack) for rows, stack in stack_by_order(models)],
        settle=np.array(settle, dtype=float),
        continuous=np.array([dut.responds_continuous for dut in duts], dtype=bool),
        others={
            i: dut for i, (dut, model) in enumerate(zip(duts, models)) if model is None
        },
    )


#: Higham (2005), "The scaling and squaring method for the matrix
#: exponential revisited": the degree-13 diagonal Padé approximant meets
#: double precision for every 1-norm up to ``_THETA_13`` (Table 2.3), and
#: its numerator coefficients ``b_0 ... b_13``.
_THETA_13 = 5.371920351148152
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)

#: Rows per evaluation block: bounds the transient power arrays.
_EXPM_BLOCK = 1024


def _balance(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of power-of-two diagonal balancing over each row of
    ``a`` ``(N, k, k)``: ``(D^-1 a D, d)`` with ``D = diag(d)``.

    Index ``i``'s off-diagonal row and column sums are brought within a
    factor of two of each other by the power of two nearest the square
    root of their ratio (Ward 1977).  The scaling is exact, and it cuts
    the 1-norm of a controllable-canonical model from about
    ``w**2 dt`` to ``w dt``, which spares the squarings that norm would
    otherwise demand.  An index with a zero off-diagonal row or column
    (the input row of a ZOH block) keeps factor 1: its ratio is 0, inf
    or NaN, whose :func:`numpy.frexp` exponent is 0.
    """
    a = a.copy()
    k = a.shape[-1]
    factors = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(k):
            column = sum(np.abs(a[:, j, i]) for j in range(k) if j != i)
            row = sum(np.abs(a[:, i, j]) for j in range(k) if j != i)
            f = np.ldexp(1.0, np.frexp(row / column)[1] // 2)
            a[:, :, i] *= f[:, None]
            a[:, i, :] /= f[:, None]
            factors.append(f)
    return a, np.stack(factors, axis=1)


def _squarings(a: np.ndarray) -> np.ndarray:
    """Each row's squaring count ``s = max(0, ceil(log2(|a|_1 / theta_13)))``.

    The column sums run in a fixed order and ``s`` comes from
    :func:`numpy.frexp`, so a row's count is a function of that row
    alone.
    """
    mag = np.abs(a)
    column = mag[:, 0, :]
    for i in range(1, mag.shape[1]):
        column = column + mag[:, i, :]
    fraction, exponent = np.frexp(column.max(axis=1) / _THETA_13)
    # ceil(log2(x)) for x = fraction * 2**exponent, fraction in [0.5, 1).
    return np.maximum(0, exponent - (fraction == 0.5))


def _pade_13(a: np.ndarray) -> np.ndarray:
    """The degree-13 Padé approximant of ``exp`` at each row of ``a``."""
    b = _PADE_13
    eye = np.eye(a.shape[-1])
    a2 = np.matmul(a, a)
    a4 = np.matmul(a2, a2)
    a6 = np.matmul(a4, a2)
    u = np.matmul(
        a,
        np.matmul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye,
    )
    v = (
        np.matmul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    return np.linalg.solve(v - u, v + u)


def expm_rows(a) -> np.ndarray:
    """Stacked matrix exponential of ``a`` ``(N, k, k)``: balancing,
    then scaling and squaring with the degree-13 Padé approximant
    (Higham 2005).

    The stack runs in blocks of ``_EXPM_BLOCK`` rows, which bounds the
    transient arrays.  A block is one batched evaluation — ``matmul``
    and ``solve`` work slice by slice — and each row is then squared as
    often as its own norm asks.  No step mixes rows, so a row's bits do
    not depend on the other rows of the stack or on its position in it.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    for start in range(0, len(a), _EXPM_BLOCK):
        block, d = _balance(a[start : start + _EXPM_BLOCK])
        s = _squarings(block)
        r = _pade_13(block * np.ldexp(1.0, -s)[:, None, None])
        for i in range(int(s.max())):
            more = s > i
            r[more] = np.matmul(r[more], r[more])
        # exp(D^-1 a D) = D^-1 exp(a) D, undone exactly.
        out[start : start + _EXPM_BLOCK] = r * d[:, :, None] / d[:, None, :]
    return out


def zoh_discretize(a, b, dt) -> tuple[np.ndarray, np.ndarray]:
    """Stacked exact ZOH discretization ``(Ad, Bd)`` of ``(a, b)``.

    ``a`` is ``(N, n, n)``, ``b`` is ``(N, n)`` and ``dt`` a scalar or
    ``(N,)`` sample period; the augmented-matrix exponential of every
    row comes from one :func:`expm_rows` call.  Non-finite or
    non-positive periods and non-finite models are refused.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, n = a.shape[0], a.shape[-1]
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (rows,))
    bad = ~(np.isfinite(dt) & (dt > 0))
    if bad.any():
        raise ConfigError(f"dt must be finite and positive, got {float(dt[bad][0])!r}")
    if not np.all(np.isfinite(a)):
        raise ConfigError("a must be finite")
    if not np.all(np.isfinite(b)):
        raise ConfigError("b must be finite")
    block = np.zeros((rows, n + 1, n + 1))
    with np.errstate(over="ignore"):
        block[:, :n, :n] = a * dt[:, None, None]
        block[:, :n, n] = b * dt[:, None]
    if not np.all(np.isfinite(block)):
        raise ConfigError("dt overflows the model: a * dt or b * dt is not finite")
    ed = expm_rows(block)
    return ed[:, :n, :n], ed[:, :n, n]


def _poly(roots: np.ndarray) -> np.ndarray:
    """Row-wise :func:`numpy.poly` of stacked polynomial roots ``(N, n)``.

    Orders one and two are the two-root convolution written out in real
    arithmetic (``c1 = -z1 - z2``, ``c2 = re(z1 z2)``), the exact values
    NumPy's convolution produces for real roots and for conjugate pairs.
    Higher orders accumulate longer dot products whose rounding depends
    on the BLAS kernel, so each row goes through :func:`numpy.poly`
    itself, with the row's roots in the dtype a per-matrix ``eigvals``
    would have returned.
    """
    rows, n = roots.shape
    out = np.ones((rows, n + 1))
    if n == 1:
        out[:, 1] = -roots[:, 0].real
    elif n == 2:
        ar, ai = -roots[:, 0].real, -roots[:, 0].imag
        br, bi = -roots[:, 1].real, -roots[:, 1].imag
        out[:, 1] = br + ar
        out[:, 2] = ar * br - ai * bi
    else:
        for i, row in enumerate(roots):
            out[i] = np.poly(row.real if not np.any(row.imag) else row)
    return out


def discrete_transfer(ad, bd, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Stacked z-domain ``(num, den)`` of discrete models, as ``ss2tf``.

    ``den = poly(Ad)`` and ``num = poly(Ad - Bd C) + (D - 1) den``, row
    by row, each ``(N, n + 1)``.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    den = _poly(np.linalg.eigvals(ad))
    num = _poly(np.linalg.eigvals(ad - bd[:, :, None] * c[:, None, :]))
    num += (d - 1.0)[:, None] * den
    return num, den


def zoh_transfer(a, b, c, d, dt) -> tuple[np.ndarray, np.ndarray]:
    """The stacked ZOH kernel: continuous ``(a, b, c, d)`` plus ``dt`` to
    z-domain ``(num, den)`` (rows ``(N, n + 1)``) of the exact
    zero-order-hold discretization.

    Feeding row ``i`` to :func:`scipy.signal.lfilter` gives device
    ``i``'s zero-state response to a held input sampled every ``dt[i]``.
    """
    ad, bd = zoh_discretize(a, b, dt)
    return discrete_transfer(ad, bd, c, d)


def frequency_responses(a, b, c, d, frequencies) -> np.ndarray:
    """Stacked analytic response ``C (sI - A)^-1 B + D`` at ``s = 2 pi j f``.

    ``a`` is ``(N, n, n)`` (``N`` may be 1 to broadcast one model over
    many frequencies) and ``frequencies`` a scalar or ``(N,)`` array;
    one batched solve covers every row.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    s = 2j * np.pi * np.asarray(frequencies, dtype=float)
    x = np.linalg.solve(s[..., None, None] * np.eye(n) - a, np.asarray(b)[..., None])
    # (1 x n) @ (n x 1) per row: NumPy's matmul takes its dot-product
    # kernel, the very evaluation a per-device ``c @ x`` performs.
    h = np.matmul(np.asarray(c, dtype=complex)[..., None, :], x)[..., 0, 0]
    return h + d


class StateSpaceDUT(DUT):
    """A DUT defined by continuous state-space matrices.

    Parameters
    ----------
    a, b, c, d:
        Continuous-time matrices; ``b`` and ``c`` may be 1-D vectors for
        the single-input single-output case.  ``d`` is the scalar
        feedthrough.
    name:
        Report label.
    """

    def __init__(self, a, b, c, d: float = 0.0, name: str = "state-space DUT") -> None:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ConfigError(f"A must be square, got shape {a.shape}")
        if b.shape != (n,) or c.shape != (n,):
            raise ConfigError(
                f"B and C must have length {n}, got {b.shape} and {c.shape}"
            )
        eigs = np.linalg.eigvals(a)
        if np.any(eigs.real >= 0):
            raise ConfigError(
                f"continuous system must be strictly stable; eigenvalues {eigs}"
            )
        self.a = a
        self.b = b
        self.c = c
        self.d = float(d)
        #: Eigenvalues of ``a`` (kept from the stability check).
        self.poles = eigs
        self.name = name
        self._x = np.zeros(n)
        self._disc_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._tf_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_transfer_function(
        cls, num, den, name: str = "transfer-function DUT"
    ) -> "StateSpaceDUT":
        """Build from an s-domain transfer function (controllable form).

        ``num``/``den`` are polynomial coefficients, highest power first.
        The transfer function must be proper (deg num <= deg den).
        """
        num = np.atleast_1d(np.asarray(num, dtype=float))
        den = np.atleast_1d(np.asarray(den, dtype=float))
        num = np.trim_zeros(num, "f")
        den = np.trim_zeros(den, "f")
        if len(den) < 2:
            raise ConfigError("denominator must have degree >= 1")
        if len(num) > len(den):
            raise ConfigError("transfer function must be proper")
        if len(num) == 0:
            raise ConfigError("numerator is zero")
        den0 = den[0]
        den = den / den0
        num = num / den0
        n = len(den) - 1
        num_full = np.concatenate([np.zeros(n + 1 - len(num)), num])
        d = num_full[0]
        # Controllable canonical form.
        a = np.zeros((n, n))
        a[0, :] = -den[1:]
        if n > 1:
            a[1:, :-1] = np.eye(n - 1)
        b = np.zeros(n)
        b[0] = 1.0
        c = num_full[1:] - d * den[1:]
        return cls(a, b, c, d, name=name)

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of states."""
        return self.a.shape[0]

    def state_space(self) -> "StateSpaceDUT":
        return self

    def reset(self) -> None:
        self._x = np.zeros(self.order)

    def _discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        key = round(dt, 18)
        cached = self._disc_cache.get(key)
        if cached is None:
            ad, bd = zoh_discretize(self.a[None], self.b[None], dt)
            cached = self._disc_cache[key] = (ad[0], bd[0])
        return cached

    def _zoh_transfer(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached z-domain ``(num, den)`` of the exact ZOH discretization.

        ``num`` row 0 is the output's numerator; row ``1 + j`` is state
        ``j``'s (``C = e_j``, ``D = 0``), which :meth:`process` uses to
        recover the final state.  All rows come from one stacked call.
        """
        key = round(dt, 18)
        cached = self._tf_cache.get(key)
        if cached is None:
            n = self.order
            ad, bd = self._discretize(dt)
            num, den = discrete_transfer(
                np.broadcast_to(ad, (n + 1, n, n)),
                np.broadcast_to(bd, (n + 1, n)),
                np.vstack([self.c, np.eye(n)]),
                np.concatenate([[self.d], np.zeros(n)]),
            )
            cached = self._tf_cache[key] = (num, den[0])
        return cached

    def process(self, waveform: Waveform) -> Waveform:
        """Exact ZOH response to a (held) input waveform.

        From a zero initial state (the common case: ``reset()`` then one
        run) the response is computed via the equivalent z-domain transfer
        function with :func:`scipy.signal.lfilter` — identical output at
        C speed — and the final state is recovered by filtering the input
        through each state's own numerator.  With a non-zero carried-over
        state the explicit state-space recursion is used.
        """
        ad, bd = self._discretize(waveform.dt)
        u = waveform.samples
        n = len(u)
        if not np.any(self._x):
            num, den = self._zoh_transfer(waveform.dt)
            out = lfilter(num[0], den, u)
            x = np.zeros(self.order)
            if n:
                for j in range(self.order):
                    # state x[n] after consuming all inputs = one more update
                    x[j] = lfilter(num[1 + j], den, u)[-1]
                x = ad @ x + bd * u[-1]
            self._x = x
            return Waveform(out, waveform.sample_rate, waveform.t0)
        x = self._x
        c = self.c
        d = self.d
        out = np.empty(n)
        for i in range(n):
            ui = u[i]
            out[i] = c @ x + d * ui
            x = ad @ x + bd * ui
        self._x = x
        return Waveform(out, waveform.sample_rate, waveform.t0)

    def frequency_response(self, frequencies) -> np.ndarray:
        frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
        return frequency_responses(
            self.a[None], self.b[None], self.c[None], self.d, frequencies
        )

    def dc_gain(self) -> float:
        """Response at DC."""
        return float(self.frequency_response([0.0])[0].real)

    def settling_time(self, tolerance: float = 1e-6) -> float:
        """Time for the slowest mode to decay to ``tolerance`` (seconds);
        :func:`settle_seconds` with one row."""
        return float(settle_seconds(self.poles[None], tolerance)[0])
