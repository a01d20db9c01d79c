"""Run configuration: one JSON document describing a whole analysis.

The document has six sections (``protocol``, ``channel``, ``simulation``,
``sweep``, ``output``, ``hardware``); every key is optional and defaults to
the values below, which describe the 16-bin reference design on a lossy
channel one attenuation length long.  Unknown sections or keys are rejected
by name rather than ignored, so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import BinningScheme, design_binning, design_time_lens
from .errors import ConfigError
from .feasibility import HardwareSpec
from .montecarlo import SimulationConfig
from .noise import ChannelModel


@dataclass(frozen=True)
class ProtocolConfig:
    m: int = 16
    delta_omega: float = 1.0
    beta_plus: float = 0.75
    beta_minus: float = 0.2


@dataclass(frozen=True)
class ChannelConfig:
    pair_probability: float = 0.1
    detector_efficiency: float = 0.25
    dark_probability: float = 1e-6
    length: float = 1.0
    attenuation_length: float = 1.0


@dataclass(frozen=True)
class SimulationSettings:
    rounds: int = 1_000_000
    seed: int = 12345
    basis_probability: float = 0.5
    multi_click_policy: str = "discard"
    correlation_model: str = "ideal-delta"
    shard_size: int = 1_000_000
    threads: int = 1


# Longest spaced sweep: every point's record is held, and its JSON and CSV
# text built, until the artifacts are written, about 700 bytes a point, so
# 2**20 points take about 700 MiB.
_MAX_SWEEP_POINTS = 2**20


@dataclass(frozen=True)
class SweepSettings:
    """One-dimensional parameter sweep over a dotted config path.

    ``values`` wins when given; otherwise ``num`` points are spaced between
    ``start`` and ``stop``, linearly or logarithmically.
    """

    parameter: str = "channel.dark_probability"
    values: tuple[float, ...] | None = None
    start: float = 1e-7
    stop: float = 1e-2
    num: int = 11
    spacing: str = "log"

    def target(self) -> tuple[str, str]:
        """The swept parameter's section and key, refused unless both exist."""
        parts = self.parameter.split(".")
        if len(parts) != 2:
            raise ConfigError(f"sweep parameter {self.parameter!r} must look like 'section.key'")
        section, key = parts
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        if key not in {f.name for f in dataclasses.fields(_SECTIONS[section])}:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")
        return section, key

    def resolved_values(self) -> list[int | float]:
        """``values`` as given, or ``num`` spaced floats (typed by ``with_section``)."""
        if self.values is not None:
            return list(self.values)
        if self.num < 0:
            raise ConfigError("sweep point count cannot be negative")
        if self.num > _MAX_SWEEP_POINTS:
            raise ConfigError(
                f"key 'num' in section 'sweep' is {self.num}, above {_MAX_SWEEP_POINTS}: every "
                f"point's record is held until the artifacts are written, about 700 bytes a point"
            )
        if self.num == 0:
            return []
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.num).tolist()
        if self.spacing == "log":
            if not (self.start > 0.0 and self.stop > 0.0):
                raise ConfigError("log spacing needs positive endpoints")
            return np.geomspace(self.start, self.stop, self.num).tolist()
        raise ConfigError(f"unknown sweep spacing {self.spacing!r}")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "."


@dataclass(frozen=True)
class HardwareConfig:
    center_wavelength: float = 1.55e-6
    spectrometer_resolution: float = 2e-9
    resolution_kind: str = "wavelength"
    modulator_max_frequency: float = 50e9
    modulator_max_depth: float = 20.0 * math.pi
    fiber_gvd: float = 3e-26
    angular_convention: str = "ordinary"


def _field_dict(instance) -> dict:
    """A flat dataclass's fields by name, without the deep copy of
    :func:`dataclasses.asdict`."""
    return {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}


_SECTIONS = {
    "protocol": ProtocolConfig,
    "channel": ChannelConfig,
    "simulation": SimulationSettings,
    "sweep": SweepSettings,
    "output": OutputSettings,
    "hardware": HardwareConfig,
}


def _float_of(name: str, key: str, value: int) -> float:
    """``float(value)``, refused by key and section where it overflows."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"key {key!r} in section {name!r} must be finite as a float, "
                          f"got an integer of {value.bit_length()} bits") from None


def _build_section(name: str, cls, data) -> object:
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    for key, value in data.items():
        # A value takes its default's type; sweep values, the one list, default to None.
        listed = defaults[key] is None and isinstance(value, (list, tuple))
        kind = (int, float) if listed or isinstance(defaults[key], float) else type(defaults[key])
        for item in value if listed else (value,):
            if isinstance(item, bool):
                raise ConfigError(f"key {key!r} in section {name!r} must not be a boolean")
            if not isinstance(item, kind):
                raise ConfigError(f"key {key!r} in section {name!r} has the wrong type: {item!r}")
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"key {key!r} in section {name!r} must be finite, got {item!r}")
            if isinstance(item, int) and isinstance(defaults[key], float):
                _float_of(name, key, item)  # refused unless it fits, but kept as given
    if name == "sweep" and isinstance(data.get("values"), list):
        data = dict(data, values=tuple(data["values"]))
    return cls(**data)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of all six sections."""

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    output: OutputSettings = field(default_factory=OutputSettings)
    hardware: HardwareConfig = field(default_factory=HardwareConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration document must be an object")
        unknown = sorted(set(data) - set(_SECTIONS))
        if unknown:
            raise ConfigError(f"unknown section {unknown[0]!r}")
        sections = {
            name: _build_section(name, section_cls, data.get(name, {}))
            for name, section_cls in _SECTIONS.items()
        }
        return cls(**sections)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def with_section(self, name: str, **changes) -> "RunConfig":
        """This configuration with section ``name`` rebuilt from its fields
        and ``changes``, checked as a loaded section is.  The one place a
        value takes its key's type: an integral float becomes an ``int`` for
        an integer key, an ``int`` a ``float`` for a float key."""
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section {name!r}")
        data = _field_dict(getattr(self, name))
        defaults = {f.name: f.default for f in dataclasses.fields(_SECTIONS[name])}
        for key, value in changes.items():
            kind = type(defaults.get(key))
            if kind is int and isinstance(value, float):
                if not value.is_integer():
                    raise ConfigError(f"key {key!r} in section {name!r} takes integers, got {value!r}")
                value = int(value)
            elif kind is float and type(value) is int:
                value = _float_of(name, key, value)
            data[key] = value
        return dataclasses.replace(self, **{name: _build_section(name, _SECTIONS[name], data)})

    # Domain-object constructors; these run the full parameter validation.

    def binning(self) -> BinningScheme:
        return BinningScheme(**_field_dict(self.protocol))

    def matched_design(self):
        """Binning scheme, matched source, and designed lens as a triple."""
        scheme, source = design_binning(**_field_dict(self.protocol))
        return scheme, source, design_time_lens(scheme)

    def channel_model(self) -> ChannelModel:
        return ChannelModel(m=self.protocol.m, **_field_dict(self.channel))

    def simulation_config(self) -> SimulationConfig:
        settings = _field_dict(self.simulation)
        del settings["threads"]  # how to run, not what to compute
        return SimulationConfig(**settings)

    def hardware_spec(self) -> HardwareSpec:
        return HardwareSpec(**_field_dict(self.hardware))


def load_config(path: str | Path | None = None) -> RunConfig:
    """Read a configuration file, or produce the defaults when ``path`` is
    None."""
    if path is None:
        return RunConfig()
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

