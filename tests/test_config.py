"""Run-configuration parsing, validation, and domain-object construction."""

import dataclasses
import json
import math

import pytest

import chronokey as ck
from chronokey.config import set_by_path


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

    def test_malformed_file_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
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

    def test_empty_sweep(self):
        sweep = ck.RunConfig.from_dict({"sweep": {"values": []}}).sweep
        assert sweep.resolved_values() == []


class TestSetByPath:
    def test_sets_nested_value(self):
        data = ck.RunConfig().to_dict()
        set_by_path(data, "channel.dark_probability", 1e-4)
        assert ck.RunConfig.from_dict(data).channel.dark_probability == 1e-4

    def test_integer_key_takes_integral_values_as_int(self):
        data = ck.RunConfig().to_dict()
        assert set_by_path(data, "protocol.m", 8.0) == 8
        assert type(data["protocol"]["m"]) is int
        assert ck.RunConfig.from_dict(data).protocol.m == 8
        assert type(set_by_path(data, "channel.length", 2.0)) is float

    @pytest.mark.parametrize("value", [4.5, float("inf"), float("nan")])
    def test_integer_key_refuses_fractional_values(self, value):
        with pytest.raises(ck.ConfigError, match="'m'"):
            set_by_path(ck.RunConfig().to_dict(), "protocol.m", value)

    @pytest.mark.parametrize("dotted", ["dark", "channel.dark.deep", "bogus.key"])
    def test_rejects_malformed_paths(self, dotted):
        with pytest.raises(ck.ConfigError):
            set_by_path(ck.RunConfig().to_dict(), dotted, 1.0)


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
        assert source.delta_plus == pytest.approx(0.75 * 4)
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
        assert len(fields) == 5 + 4 + 2 + 5 + 1
        assert ("simulation", "basis_probability") in fields

    @pytest.mark.parametrize(
        "kind,name,bad", NON_FINITE_CASES, ids=[f"{k}.{n}={b}" for k, n, b in NON_FINITE_CASES]
    )
    def test_validators_reject_non_finite_values(self, kind, name, bad):
        instance = _validated_objects()[kind]
        with pytest.raises(ck.ParameterError):
            dataclasses.replace(instance, **{name: bad})
