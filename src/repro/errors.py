"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
measurement problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError, ValueError):
    """An object was constructed or configured with invalid parameters.

    Examples: an odd evaluation period count ``M`` (the evaluator's chopped
    offset cancellation requires ``M`` to be even), a harmonic index ``k``
    for which the quadrature square wave cannot be aligned to the sampling
    grid (``N % 4k != 0``), or a non-positive frequency.
    """


class TimingError(ReproError):
    """Clock or sequencing constraints were violated.

    Raised when clock domains that must stay integer-ratio locked (master
    clock, generator clock, output tone) are driven out of lock, or when a
    waveform is evaluated against a clock it was not sampled on.
    """


class EvaluationError(ReproError):
    """A measurement could not be completed or produced unusable output.

    Examples: the signal under evaluation overloads the sigma-delta
    modulator (input beyond the stable range), or a signature is requested
    before the evaluator has been run.
    """


class CalibrationError(ReproError):
    """The network analyzer was asked to use a missing or stale calibration."""


class FaultError(ReproError):
    """A fault-injection request targets a component that does not exist."""


class ServiceError(ReproError):
    """The analyzer service could not accept or complete a job.

    Examples: a submit request references an unknown job id, a job was
    cancelled while a client was waiting on its result, or a shard
    exhausted its retry budget after repeated worker deaths.  Malformed
    *payloads* (bad scenario/policy JSON) stay :class:`ConfigError` —
    they name the offending field; ``ServiceError`` is about the job and
    worker lifecycle.
    """


def require_count(owner: str, fieldname: str, value, minimum: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer >= ``minimum``.

    Booleans are rejected although Python counts them as integers, and
    so are integral floats such as ``3.0``: a count field takes a count.
    ``owner`` prefixes the message (a step, a function name).
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(
            f"{owner}: {fieldname} must be an integer >= {minimum}, got {value!r}"
        )
