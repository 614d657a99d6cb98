"""Scenario spec schema: strict validation and JSON round-trip.

Two properties are load-bearing for the golden-baseline workflow:

* any *valid* spec survives ``to_json -> from_json`` as an identical
  dataclass (property-based below — hypothesis drives arbitrary valid
  specs through the round trip);
* any *invalid* spec fails fast with a :class:`~repro.errors.ConfigError`
  that names the offending field, so a hand-edited JSON file cannot
  silently run the wrong experiment.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.scenarios import (
    AnalyzerSettings,
    CoverageStep,
    DiagnoseStep,
    DistortionStep,
    DUTSpec,
    DynamicRangeStep,
    PseudorandomStep,
    ScenarioSpec,
    SignatureCheckStep,
    SweepStep,
    YieldStep,
    step_from_payload,
    step_to_payload,
)

VALID_STEP = SweepStep(name="bode", f_start=300.0, f_stop=3000.0, n_points=4)


def make_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(name="s", steps=(VALID_STEP,))
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestValidation:
    def test_empty_steps_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            make_spec(steps=())

    def test_duplicate_step_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate step names"):
            make_spec(steps=(VALID_STEP, VALID_STEP))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="n_workers"):
            make_spec(n_workers=0)

    def test_workers_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="n_workers"):
            make_spec(n_workers=2.0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            make_spec(backend="gpu")

    @pytest.mark.parametrize("chunk", [0, -2, 1.5, True])
    def test_bad_chunk_size_rejected(self, chunk):
        with pytest.raises(ConfigError, match="chunk_size"):
            make_spec(chunk_size=chunk)

    def test_chunk_size_none_is_unchunked(self):
        assert make_spec().chunk_size is None

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            make_spec(seed=-1)

    def test_out_of_band_sweep_start_rejected(self):
        with pytest.raises(ConfigError, match="f_start"):
            SweepStep(name="bode", f_start=10.0, f_stop=3000.0)

    def test_out_of_band_sweep_stop_rejected(self):
        with pytest.raises(ConfigError, match="f_stop"):
            SweepStep(name="bode", f_start=300.0, f_stop=50_000.0)

    def test_out_of_band_distortion_tone_rejected(self):
        with pytest.raises(ConfigError, match="fwaves"):
            DistortionStep(name="hd", fwaves=(30_000.0,))

    def test_odd_window_rejected(self):
        with pytest.raises(ConfigError, match="m_periods"):
            AnalyzerSettings(m_periods=21)

    def test_odd_step_window_rejected(self):
        with pytest.raises(ConfigError, match="m_periods"):
            SweepStep(name="bode", m_periods=13)

    def test_zero_devices_rejected(self):
        with pytest.raises(ConfigError, match="n_devices"):
            YieldStep(name="lot", n_devices=0)

    def test_zero_deviation_rejected(self):
        with pytest.raises(ConfigError, match="deviations"):
            CoverageStep(name="cov", deviations=(0.0,))

    def test_positive_level_rejected(self):
        with pytest.raises(ConfigError, match="levels_dbc"):
            DynamicRangeStep(name="dr", levels_dbc=(10.0,))

    def test_empty_inject_rejected(self):
        with pytest.raises(ConfigError, match="inject"):
            DiagnoseStep(name="dx", inject="")

    def test_untabulated_lfsr_width_rejected(self):
        with pytest.raises(ConfigError, match="lfsr_width"):
            PseudorandomStep(name="pr", lfsr_width=17)

    def test_unknown_lfsr_form_rejected(self):
        with pytest.raises(ConfigError, match="lfsr_form"):
            PseudorandomStep(name="pr", lfsr_form="xorshift")

    def test_zero_patterns_rejected(self):
        with pytest.raises(ConfigError, match="n_patterns"):
            PseudorandomStep(name="pr", n_patterns=0)

    def test_untabulated_misr_width_rejected(self):
        with pytest.raises(ConfigError, match="misr_width"):
            PseudorandomStep(name="pr", misr_width=1)

    def test_inverted_prbist_band_rejected(self):
        with pytest.raises(ConfigError, match="f_lo"):
            PseudorandomStep(name="pr", f_lo=3000.0, f_hi=300.0)

    def test_zero_prbist_deviation_rejected(self):
        with pytest.raises(ConfigError, match="deviations"):
            SignatureCheckStep(name="sig", deviations=(0.0,))

    def test_empty_signature_inject_rejected(self):
        with pytest.raises(ConfigError, match="inject"):
            SignatureCheckStep(name="sig", inject="")

    def test_odd_prbist_window_rejected(self):
        with pytest.raises(ConfigError, match="m_periods"):
            PseudorandomStep(name="pr", m_periods=7)


class TestPayloadParsing:
    def test_unknown_step_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            step_from_payload({"kind": "teleport", "name": "t"})

    def test_unknown_step_field_rejected(self):
        payload = step_to_payload(VALID_STEP)
        payload["warp_factor"] = 9
        with pytest.raises(ConfigError, match="warp_factor"):
            step_from_payload(payload)

    def test_missing_required_field_is_config_error(self):
        payload = step_to_payload(VALID_STEP)
        del payload["name"]
        with pytest.raises(ConfigError, match="name"):
            step_from_payload(payload)

    def test_wrong_typed_field_is_config_error(self):
        payload = step_to_payload(VALID_STEP)
        payload["n_points"] = "eight"
        with pytest.raises(ConfigError, match="sweep"):
            step_from_payload(payload)

    @pytest.mark.parametrize("value", [1.5, 8.5, 3.0, True, False, "3", None])
    @pytest.mark.parametrize(
        "step, field",
        [
            (SweepStep(name="s"), "n_points"),
            (YieldStep(name="y"), "n_devices"),
            (DiagnoseStep(name="d"), "n_candidate_points"),
            (DiagnoseStep(name="d"), "n_probes"),
            (DiagnoseStep(name="d"), "top_n"),
            (DynamicRangeStep(name="r"), "harmonic"),
            (PseudorandomStep(name="p"), "n_patterns"),
        ],
    )
    def test_count_fields_take_integers_only(self, step, field, value):
        payload = json.loads(make_spec(steps=(step,)).to_json())
        payload["steps"][0][field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_unknown_scenario_field_rejected(self):
        payload = json.loads(make_spec().to_json())
        payload["colour"] = "red"
        with pytest.raises(ConfigError, match="colour"):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            ScenarioSpec.from_json(json.dumps({"format": "something-else"}))

    def test_wrong_version_rejected(self):
        payload = json.loads(make_spec().to_json())
        payload["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            ScenarioSpec.from_json("{not json")

    def test_workers_below_one_in_payload_rejected(self):
        payload = json.loads(make_spec().to_json())
        payload["n_workers"] = 0
        with pytest.raises(ConfigError, match="n_workers"):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_out_of_band_frequency_in_payload_rejected(self):
        payload = json.loads(make_spec().to_json())
        payload["steps"][0]["f_stop"] = 1e6
        with pytest.raises(ConfigError, match="f_stop"):
            ScenarioSpec.from_json(json.dumps(payload))


# ----------------------------------------------------------------------
# Property-based round trip
# ----------------------------------------------------------------------

names = st.text(alphabet=string.ascii_lowercase + "_-", min_size=1, max_size=12)
band_freqs = st.floats(min_value=100.0, max_value=20_000.0,
                       allow_nan=False, allow_infinity=False)
windows = st.integers(min_value=1, max_value=200).map(lambda n: 2 * n)
maybe_windows = st.none() | windows
magnitudes = st.tuples(
    st.floats(min_value=0.05, max_value=0.9, allow_nan=False)
).map(tuple)


@st.composite
def sweep_steps(draw):
    lo = draw(st.floats(min_value=100.0, max_value=9_000.0, allow_nan=False))
    hi = draw(st.floats(min_value=lo * 1.5, max_value=20_000.0, allow_nan=False))
    return SweepStep(
        name=draw(names),
        f_start=lo,
        f_stop=hi,
        n_points=draw(st.integers(min_value=2, max_value=12)),
        m_periods=draw(maybe_windows),
    )


@st.composite
def yield_steps(draw):
    return YieldStep(
        name=draw(names),
        n_devices=draw(st.integers(min_value=1, max_value=50)),
        component_sigma=draw(st.floats(min_value=0.0, max_value=0.2, allow_nan=False)),
        tolerance_db=draw(st.floats(min_value=0.5, max_value=6.0, allow_nan=False)),
        ambiguous_passes=draw(st.booleans()),
        m_periods=draw(maybe_windows),
    )


@st.composite
def coverage_steps(draw):
    return CoverageStep(
        name=draw(names),
        deviations=draw(magnitudes),
        catastrophic=draw(st.booleans()),
        m_periods=draw(maybe_windows),
    )


@st.composite
def distortion_steps(draw):
    return DistortionStep(
        name=draw(names),
        fwaves=tuple(sorted(draw(
            st.lists(band_freqs, min_size=1, max_size=3, unique=True)
        ))),
        amplitude=draw(st.floats(min_value=0.05, max_value=0.5, allow_nan=False)),
        hd2_dbc=draw(st.floats(min_value=-90.0, max_value=-20.0, allow_nan=False)),
        hd3_dbc=draw(st.floats(min_value=-90.0, max_value=-20.0, allow_nan=False)),
        m_periods=draw(maybe_windows),
    )


@st.composite
def diagnose_steps(draw):
    return DiagnoseStep(
        name=draw(names),
        inject=draw(st.sampled_from(["nominal", "r2+50%", "c1-20%"])),
        deviations=draw(magnitudes),
        n_candidate_points=draw(st.integers(min_value=2, max_value=10)),
        n_probes=draw(st.integers(min_value=1, max_value=2)),
        m_periods=draw(maybe_windows),
    )


@st.composite
def dynamic_range_steps(draw):
    return DynamicRangeStep(
        name=draw(names),
        levels_dbc=tuple(draw(st.lists(
            st.floats(min_value=-90.0, max_value=-10.0, allow_nan=False),
            min_size=1, max_size=4,
        ))),
        harmonic=draw(st.integers(min_value=2, max_value=5)),
        m_periods=draw(maybe_windows),
    )


@st.composite
def pseudorandom_steps(draw):
    lo = draw(st.floats(min_value=100.0, max_value=9_000.0, allow_nan=False))
    hi = draw(st.floats(min_value=lo * 1.5, max_value=20_000.0, allow_nan=False))
    return PseudorandomStep(
        name=draw(names),
        lfsr_width=draw(st.integers(min_value=2, max_value=16)),
        lfsr_form=draw(st.sampled_from(["fibonacci", "galois"])),
        n_patterns=draw(st.integers(min_value=1, max_value=8)),
        misr_width=draw(st.integers(min_value=2, max_value=16)),
        f_lo=lo,
        f_hi=hi,
        deviations=draw(magnitudes),
        catastrophic=draw(st.booleans()),
        m_periods=draw(maybe_windows),
    )


@st.composite
def signature_check_steps(draw):
    return SignatureCheckStep(
        name=draw(names),
        lfsr_width=draw(st.integers(min_value=2, max_value=16)),
        lfsr_form=draw(st.sampled_from(["fibonacci", "galois"])),
        n_patterns=draw(st.integers(min_value=1, max_value=8)),
        misr_width=draw(st.integers(min_value=2, max_value=16)),
        inject=draw(st.sampled_from(["nominal", "r2+50%", "c1:short"])),
        deviations=draw(magnitudes),
        catastrophic=draw(st.booleans()),
        m_periods=draw(maybe_windows),
    )


steps = st.one_of(
    sweep_steps(),
    yield_steps(),
    coverage_steps(),
    distortion_steps(),
    diagnose_steps(),
    dynamic_range_steps(),
    pseudorandom_steps(),
    signature_check_steps(),
)


@st.composite
def scenario_specs(draw):
    step_list = draw(
        st.lists(steps, min_size=1, max_size=4, unique_by=lambda s: s.name)
    )
    return ScenarioSpec(
        name=draw(names),
        description=draw(st.text(max_size=40)),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        dut=DUTSpec(
            cutoff=draw(st.floats(min_value=200.0, max_value=5000.0, allow_nan=False)),
            q=draw(st.floats(min_value=0.3, max_value=3.0, allow_nan=False)),
        ),
        analyzer=AnalyzerSettings(
            m_periods=draw(windows),
            stimulus_amplitude=draw(
                st.floats(min_value=0.05, max_value=0.5, allow_nan=False)
            ),
            evaluator_noise_rms=draw(
                st.floats(min_value=0.0, max_value=1e-4, allow_nan=False)
            ),
        ),
        backend=draw(st.sampled_from(["reference", "vectorized"])),
        n_workers=draw(st.integers(min_value=1, max_value=8)),
        steps=tuple(step_list),
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(spec=scenario_specs())
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=25, deadline=None)
    @given(spec=scenario_specs())
    def test_serialization_is_canonical(self, spec):
        """Same spec, same bytes — twice through the serializer."""
        assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()

    def test_example_specs_parse_and_reserialize(self):
        import pathlib

        examples = sorted(
            (pathlib.Path(__file__).parent.parent.parent / "examples" / "scenarios")
            .glob("*.json")
        )
        assert len(examples) >= 4, "example scenario specs went missing"
        for path in examples:
            text = path.read_text()
            spec = ScenarioSpec.from_json(text)
            assert spec.to_json() == text, f"{path.name} is not in canonical form"
