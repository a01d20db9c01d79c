"""Run-configuration parsing, validation, and domain-object construction."""

import dataclasses
import json
import math

import numpy as np
import pytest

import chronokey as ck
from chronokey.config import SweepSettings


class TestRoundTrip:
    def test_defaults_survive_serialization(self):
        original = ck.RunConfig()
        rebuilt = ck.RunConfig.from_dict(original.to_dict())
        assert rebuilt == original

    def test_save_and_load(self, tmp_path):
        config = ck.RunConfig.from_dict({"protocol": {"m": 32}})
        path = tmp_path / "run.json"
        ck.save_config(config, path)
        loaded = ck.load_config(path)
        assert loaded == config
        assert loaded.protocol.m == 32

    def test_load_without_path_gives_defaults(self):
        assert ck.load_config(None) == ck.RunConfig()


def _assert_refused_by_name(tmp_path, document):
    """Loading a one-key document fails with a ConfigError naming the key and section."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(document))
    (section, fields), = document.items()
    (key, _), = fields.items()
    with pytest.raises(ck.ConfigError, match=f"{key}.*{section}"):
        ck.load_config(path)


class TestStrictParsing:
    def test_unknown_section_is_named_in_the_error(self):
        with pytest.raises(ck.ConfigError, match="detector"):
            ck.RunConfig.from_dict({"detector": {}})

    def test_unknown_key_is_named_in_the_error(self):
        with pytest.raises(ck.ConfigError, match="dark_counts"):
            ck.RunConfig.from_dict({"channel": {"dark_counts": 1e-6}})

    def test_section_must_be_an_object(self):
        with pytest.raises(ck.ConfigError):
            ck.RunConfig.from_dict({"channel": 3})

    @pytest.mark.parametrize("document", [[], "protocol", 3])
    def test_document_must_be_an_object(self, document):
        with pytest.raises(ck.ConfigError, match="document must be an object"):
            ck.RunConfig.from_dict(document)

    def test_malformed_file_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ck.ConfigError):
            ck.load_config(path)

    def test_integer_past_the_digit_limit_raises_config_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"channel": {"length": 1%s}}' % ("0" * 5000))
        with pytest.raises(ck.ConfigError):
            ck.load_config(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_are_named_in_the_error(self, tmp_path, literal):
        path = tmp_path / "run.json"
        path.write_text('{"channel": {"dark_probability": %s}}' % literal)
        with pytest.raises(ck.ConfigError, match="dark_probability.*channel"):
            ck.load_config(path)

    def test_non_finite_sweep_values_are_refused(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"sweep": {"values": [0.1, NaN]}}')
        with pytest.raises(ck.ConfigError, match="values.*sweep"):
            ck.load_config(path)

    @pytest.mark.parametrize(
        "document",
        [
            {"channel": {"pair_probability": True}},
            {"simulation": {"threads": True}},
            {"sweep": {"values": [0.1, False]}},
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, document):
        _assert_refused_by_name(tmp_path, document)

    @pytest.mark.parametrize(
        "document",
        [
            {"channel": {"length": "1"}},
            {"protocol": {"m": 16.0}},
            {"output": {"directory": 5}},
            {"sweep": {"values": 5}},
            {"sweep": {"parameter": ["channel.length"]}},
        ],
    )
    def test_values_must_have_their_default_type(self, tmp_path, document):
        _assert_refused_by_name(tmp_path, document)


class TestSweepValues:
    def test_explicit_values_win(self):
        sweep = ck.RunConfig.from_dict(
            {"sweep": {"values": [1e-6, 2e-6, 5e-6]}}
        ).sweep
        assert sweep.resolved_values() == [1e-6, 2e-6, 5e-6]

    def test_log_spacing_hits_the_endpoints(self):
        sweep = ck.RunConfig().sweep
        values = sweep.resolved_values()
        assert len(values) == 11
        assert values[0] == pytest.approx(1e-7, rel=1e-12)
        assert values[-1] == pytest.approx(1e-2, rel=1e-12)

    def test_linear_spacing(self):
        sweep = ck.RunConfig.from_dict(
            {"sweep": {"spacing": "linear", "start": 0.0, "stop": 1.0, "num": 5}}
        ).sweep
        assert sweep.resolved_values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "sweep",
        [
            {"values": [1e-6, 2e-6]},
            {"spacing": "linear", "start": 0.0, "stop": 1.0, "num": 5},
            {"spacing": "log", "start": 1e-7, "stop": 1e-2, "num": 11},
        ],
        ids=["values", "linear", "log"],
    )
    def test_values_are_python_floats(self, sweep):
        values = ck.RunConfig.from_dict({"sweep": sweep}).sweep.resolved_values()
        assert values
        assert all(type(value) is float for value in values)

    def test_log_spacing_rejects_non_positive_endpoints(self):
        config = ck.RunConfig.from_dict({"sweep": {"start": 0.0}})
        with pytest.raises(ck.ConfigError):
            config.sweep.resolved_values()

    def test_values_are_returned_as_given(self):
        sweep = ck.RunConfig.from_dict({"sweep": {"values": [4, 2**53 + 1, 0.5]}}).sweep
        values = sweep.resolved_values()
        assert values == [4, 2**53 + 1, 0.5]
        assert [type(value) for value in values] == [int, int, float]

    def test_refuses_a_spaced_sweep_too_long_to_hold(self):
        config = ck.RunConfig.from_dict({"sweep": {"num": 2**20 + 1, "spacing": "linear"}})
        with pytest.raises(ck.ConfigError, match="'num' in section 'sweep'"):
            config.sweep.resolved_values()

    def test_empty_sweep(self):
        sweep = ck.RunConfig.from_dict({"sweep": {"values": []}}).sweep
        assert sweep.resolved_values() == []
        # No points are spaced, so the spacing is never read.
        sweep = ck.RunConfig.from_dict({"sweep": {"num": 0, "spacing": "cubic"}}).sweep
        assert sweep.resolved_values() == []

    @pytest.mark.parametrize(
        "sweep,message",
        [({"num": -1}, "cannot be negative"), ({"spacing": "cubic"}, "unknown sweep spacing 'cubic'")],
        ids=["negative-num", "unknown-spacing"],
    )
    def test_refuses_a_bad_spaced_sweep(self, sweep, message):
        config = ck.RunConfig.from_dict({"sweep": sweep})
        with pytest.raises(ck.ConfigError, match=message):
            config.sweep.resolved_values()


def _sweep_point(dotted, value):
    """The default configuration with one swept value set, as ``sweep`` sets it."""
    section, key = SweepSettings(parameter=dotted).target()
    return ck.RunConfig().with_section(section, **{key: value})


class TestWithSection:
    def test_sets_nested_value(self):
        assert _sweep_point("channel.dark_probability", 1e-4).channel.dark_probability == 1e-4

    def test_integer_key_takes_integral_values_as_int(self):
        config = _sweep_point("protocol.m", 8.0)
        assert type(config.protocol.m) is int
        assert config.protocol.m == 8
        assert type(_sweep_point("channel.length", 2.0).channel.length) is float

    def test_float_key_held_as_an_int_takes_floats(self):
        config = ck.RunConfig.from_dict({"channel": {"length": 1}})
        assert config.with_section("channel", length=0.5).channel.length == 0.5
        assert type(config.with_section("channel", length=2.0).channel.length) is float

    def test_float_key_takes_integers_as_floats(self):
        config = _sweep_point("channel.length", 2)
        assert type(config.channel.length) is float and config.channel.length == 2.0
        with pytest.raises(ck.ConfigError, match="'length' in section 'channel'"):
            _sweep_point("channel.length", 10**400)

    def test_float_key_loads_a_float_range_integer_as_given(self):
        config = ck.RunConfig.from_dict({"channel": {"length": 2}})
        assert type(config.channel.length) is int
        with pytest.raises(ck.ConfigError, match="'length' in section 'channel'"):
            ck.RunConfig.from_dict({"channel": {"length": 10**400}})

    @pytest.mark.parametrize("value", [4.5, float("inf"), float("nan")])
    def test_integer_key_refuses_fractional_values(self, value):
        with pytest.raises(ck.ConfigError, match="'m'"):
            _sweep_point("protocol.m", value)

    @pytest.mark.parametrize("dotted", ["dark", "channel.dark.deep", "bogus.key"])
    def test_rejects_malformed_paths(self, dotted):
        with pytest.raises(ck.ConfigError):
            _sweep_point(dotted, 1.0)

    def test_keeps_the_other_fields_and_sections(self):
        config = ck.RunConfig.from_dict({"protocol": {"m": 32}, "simulation": {"seed": 9}})
        changed = config.with_section("simulation", rounds=5)
        assert changed.simulation == dataclasses.replace(config.simulation, rounds=5)
        assert changed.protocol is config.protocol

    def test_refuses_an_unknown_section(self):
        with pytest.raises(ck.ConfigError, match="unknown section 'protocl'"):
            ck.RunConfig().with_section("protocl", m=4)

    @pytest.mark.parametrize("changes", [{"rounds": True}, {"rounds": "5"}, {"rounds": 5, "sede": 1}])
    def test_checks_the_changes_as_a_loaded_section(self, changes):
        with pytest.raises(ck.ConfigError, match="simulation"):
            ck.RunConfig().with_section("simulation", **changes)


class TestDomainBuilders:
    def test_builders_produce_consistent_objects(self):
        config = ck.RunConfig()
        scheme = config.binning()
        assert scheme == ck.BinningScheme(m=16, delta_omega=1.0)
        model = config.channel_model()
        assert model.m == 16
        assert model.dark_probability == 1e-6
        sim = config.simulation_config()
        assert sim.rounds == 1_000_000
        assert sim.seed == 12345
        hardware = config.hardware_spec()
        assert hardware.modulator_max_depth == pytest.approx(62.83185307179586)

    def test_matched_design_returns_scheme_source_and_lens(self):
        config = ck.RunConfig.from_dict({"protocol": {"m": 4}})
        scheme, source, lens = config.matched_design()
        assert scheme.m == 4
        assert scheme.matched_widths()[0] == pytest.approx(0.75 * 4)
        matched = ck.make_gaussian_jsa(*scheme.matched_widths(), grid=source.grid)
        blocks = [[(r, c, v.tobytes()) for r, c, v in jsa._blocks] for jsa in (source, matched)]
        assert blocks[0] == blocks[1]
        assert lens.mod_depth == pytest.approx(15.0)

    def test_invalid_domain_values_surface_as_parameter_errors(self):
        config = ck.RunConfig.from_dict({"protocol": {"m": 1}})
        with pytest.raises(ck.ParameterError):
            config.binning()

    def test_config_dict_is_json_clean(self):
        text = json.dumps(ck.RunConfig().to_dict(), sort_keys=True)
        assert "m" in json.loads(text)["protocol"]


def _validated_objects():
    """One valid instance of every validated domain type, from the defaults."""
    config = ck.RunConfig()
    return {
        "channel": config.channel_model(),
        "binning": config.binning(),
        "lens": ck.design_time_lens(config.binning()),
        "hardware": config.hardware_spec(),
        "simulation": config.simulation_config(),
    }


NON_FINITE_CASES = [
    (kind, field.name, bad)
    for kind, instance in _validated_objects().items()
    for field in dataclasses.fields(instance)
    if field.type == "float"
    for bad in (math.nan, math.inf, -math.inf, True)
]


class TestNonFiniteFields:
    def test_every_float_field_is_covered(self):
        fields = {(kind, name) for kind, name, _ in NON_FINITE_CASES}
        assert len(fields) == 5 + 3 + 2 + 5 + 1
        assert ("simulation", "basis_probability") in fields

    @pytest.mark.parametrize(
        "kind,name,bad", NON_FINITE_CASES, ids=[f"{k}.{n}={b}" for k, n, b in NON_FINITE_CASES]
    )
    def test_validators_reject_non_finite_values(self, kind, name, bad):
        instance = _validated_objects()[kind]
        with pytest.raises(ck.ParameterError):
            dataclasses.replace(instance, **{name: bad})


def _refuses_boolean_widths():
    scheme = ck.BinningScheme(8)
    return ck.gaussian_outcome_distribution(scheme, ck.design_time_lens(scheme), True, 0.2)


# One call per entry point that takes a float, each with a boolean for one.
BOOLEAN_CASES = {
    "make_gaussian_jsa": lambda: ck.make_gaussian_jsa(True, 0.2),
    "default_grid": lambda: ck.default_grid(True, 0.5),
    "analytic_schmidt_number": lambda: ck.analytic_schmidt_number(True, True),
    "gaussian_outcome_distribution": _refuses_boolean_widths,
    "wavelength_to_frequency": lambda: ck.wavelength_to_frequency(True, 1.55e-6),
    "frequency_to_wavelength": lambda: ck.frequency_to_wavelength(1e9, True),
    "error_model_distribution": lambda: ck.error_model_distribution(4, False),
    "SchmidtDecomposition": lambda: ck.SchmidtDecomposition(True),
    "BinningScheme-numpy": lambda: ck.BinningScheme(m=8, delta_omega=np.True_),
    "ChannelModel-numpy": lambda: ck.ChannelModel(
        m=8, pair_probability=0.5, detector_efficiency=0.5, dark_probability=np.False_
    ),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_CASES))
def test_booleans_are_not_numbers_at_any_entry_point(case):
    with pytest.raises(ck.ParameterError):
        BOOLEAN_CASES[case]()


# One call per entry point that takes an alphabet size m.
ALPHABET_SITES = {
    "BinningScheme": lambda m: ck.BinningScheme(m=m),
    "ChannelModel": lambda m: ck.ChannelModel(
        m=m, pair_probability=0.5, detector_efficiency=0.5, dark_probability=1e-6
    ),
    "RoundLedger": lambda m: ck.RoundLedger(m, 0, np.zeros(0, np.int64), np.zeros(0, np.int64)),
    "error_model_report": lambda m: ck.error_model_report(m, 0.1, "frequency"),
    "error_model_distribution": lambda m: ck.error_model_distribution(m, 0.1),
    "simplified_key_rate": lambda m: ck.simplified_key_rate(m, 0.1),
}


@pytest.mark.parametrize(
    "m,message",
    [
        (True, "alphabet size must be an integer >= 2, got True"),
        (1, "alphabet size must be an integer >= 2, got 1"),
        (2.0, "alphabet size must be an integer >= 2, got 2.0"),
        (np.int64(4), "alphabet size must be an integer >= 2, got np.int64"),
        (2**1100, r"alphabet size 2\*\*1100 exceeds the float range"),
    ],
    ids=["boolean", "one", "float", "numpy-int", "past-float-range"],
)
@pytest.mark.parametrize("site", sorted(ALPHABET_SITES))
def test_every_alphabet_site_refuses_what_the_rule_refuses(site, m, message):
    ALPHABET_SITES[site](4)
    with pytest.raises(ck.ParameterError, match=message):
        ALPHABET_SITES[site](m)
