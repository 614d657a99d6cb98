"""Fault campaigns: build a fault dictionary on the batch engine.

A campaign enumerates a fault catalog, injects each fault into the good
device, measures every faulty device's gain/phase signature at a plan of
probe frequencies, and collects the signatures into a
:class:`~repro.faults.dictionary.FaultDictionary`.

Campaigns are the fault workload the batch engine was built for:

* every (faulty) device is an independent
  :class:`~repro.engine.jobs.FaultTrialJob` with its own deterministic
  noise substream, so campaign results are bit-identical serial or
  parallel at any worker count;
* calibration is *fault-independent* — the bypass path never crosses
  the DUT — so the entire campaign pays for exactly one cached
  calibration acquisition, no matter how many faults it enumerates.
"""

from __future__ import annotations

from ..core.config import AnalyzerConfig
from ..dut.active_rc import ActiveRCLowpass
from ..errors import ConfigError
from .dictionary import (
    NOMINAL_LABEL,
    FaultDictionary,
    FaultSignature,
    signature_from_measurements,
)


def _plan_frequencies(frequencies) -> tuple[float, ...]:
    """Accept a FrequencySweepPlan or any iterable of frequencies."""
    plan_frequencies = getattr(frequencies, "frequencies", None)
    if callable(plan_frequencies):
        frequencies = plan_frequencies()
    result = tuple(float(f) for f in frequencies)
    if not result:
        raise ConfigError("probe frequency list is empty")
    if any(f <= 0 for f in result):
        raise ConfigError(f"probe frequencies must be positive, got {result}")
    if len(set(result)) != len(result):
        raise ConfigError(f"probe frequencies must be distinct, got {result}")
    return result


class FaultCampaign:
    """Measure a fault catalog into a dictionary.

    Parameters
    ----------
    good_dut:
        The fault-free device faults are injected into.
    faults:
        The catalog — any objects satisfying the
        :class:`~repro.dut.faults.Fault` protocol, with unique labels.
    frequencies:
        Probe frequencies: a :class:`~repro.core.sweep.FrequencySweepPlan`
        or an iterable of hertz values.
    config:
        Analyzer configuration (default: the ideal setup).
    m_periods:
        Evaluation window per probe point (default: the config's).
    """

    def __init__(
        self,
        good_dut: ActiveRCLowpass,
        faults,
        frequencies,
        config: AnalyzerConfig | None = None,
        m_periods: int | None = None,
    ) -> None:
        self.good_dut = good_dut
        self.faults = list(faults)
        if not self.faults:
            raise ConfigError("fault catalog is empty")
        labels = [f.label for f in self.faults]
        if len(set(labels)) != len(labels):
            duplicates = sorted({l for l in labels if labels.count(l) > 1})
            raise ConfigError(f"duplicate fault labels in catalog: {duplicates}")
        if NOMINAL_LABEL in labels:
            raise ConfigError(f"{NOMINAL_LABEL!r} is reserved for the good device")
        self.frequencies = _plan_frequencies(frequencies)
        self.config = config if config is not None else AnalyzerConfig.ideal()
        self.m_periods = m_periods

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.faults)

    def run(
        self,
        nominal: FaultSignature | None = None,
        *,
        session=None,
    ) -> FaultDictionary:
        """Measure the whole catalog (plus the good device) once.

        The campaign executes on a :class:`~repro.api.session.Session`'s
        resources — pass one as ``session`` to choose the backend and
        worker count and to share its calibration cache and worker pool
        across campaigns (and with every other workload the session
        runs); without one it runs on a default serial session.  A
        ``nominal`` signature already measured on this campaign's probe
        grid (e.g. the fail-fast good-device check of
        :meth:`repro.api.session.Session.fault_coverage`) is adopted
        instead of re-simulating the good device; the faulty devices
        keep the seed indices they would have had in the full batch, so
        the dictionary is bit-identical either way.
        """
        if session is None:
            from ..api.session import Session

            session = Session()
        engine = session.runner
        with session.obs.span(
            "faults.campaign",
            kind="campaign",
            exact={
                "n_faults": len(self.faults),
                "n_frequencies": len(self.frequencies),
                "adopted_nominal": nominal is not None,
            },
        ):
            if nominal is None:
                duts = [self.good_dut] + [
                    f.apply(self.good_dut) for f in self.faults
                ]
                results = engine.run_fault_trials(
                    duts, self.config, self.frequencies, m_periods=self.m_periods
                )
                nominal = signature_from_measurements(NOMINAL_LABEL, results[0])
                fault_results = results[1:]
            else:
                if nominal.frequencies != self.frequencies:
                    raise ConfigError(
                        f"nominal signature probes {nominal.frequencies}, the "
                        f"campaign {self.frequencies}"
                    )
                if nominal.label != NOMINAL_LABEL:
                    nominal = FaultSignature(NOMINAL_LABEL, nominal.points)
                fault_results = engine.run_fault_trials(
                    [f.apply(self.good_dut) for f in self.faults],
                    self.config,
                    self.frequencies,
                    m_periods=self.m_periods,
                    start_index=1,  # index 0 belongs to the (adopted) nominal
                )
            entries = tuple(
                signature_from_measurements(fault.label, measurements)
                for fault, measurements in zip(self.faults, fault_results)
            )
            return FaultDictionary(
                nominal=nominal, entries=entries, m_periods=self.m_periods
            )


def measure_signature(
    dut,
    frequencies,
    config: AnalyzerConfig | None = None,
    m_periods: int | None = None,
    label: str = "measured",
    session=None,
) -> FaultSignature:
    """Measure one device's signature on the dictionary's probe grid.

    This is the *diagnosis-time* acquisition: the device under diagnosis
    goes through exactly the same engine path as the dictionary entries
    (same calibration economy, same per-job seeding scheme), so its
    signature is directly comparable.  Pass a
    :class:`~repro.api.session.Session` to reuse its cache and pool;
    without one it runs on a default serial session.
    """
    if session is None:
        from ..api.session import Session

        session = Session()
    engine = session.runner
    config = config if config is not None else AnalyzerConfig.ideal()
    with session.obs.span(
        "faults.measure_signature",
        kind="campaign",
        exact={"label": label},
    ):
        results = engine.run_fault_trials(
            [dut], config, _plan_frequencies(frequencies), m_periods=m_periods
        )
        return signature_from_measurements(label, results[0])
