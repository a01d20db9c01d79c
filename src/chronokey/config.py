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

    def resolved_values(self) -> list[float]:
        if self.values is not None:
            return [float(v) for v in self.values]
        if self.num < 0:
            raise ConfigError("sweep point count cannot be negative")
        if self.num == 0:
            return []
        if self.spacing == "linear":
            return list(np.linspace(self.start, self.stop, self.num))
        if self.spacing == "log":
            if not (self.start > 0.0 and self.stop > 0.0):
                raise ConfigError("log spacing needs positive endpoints")
            return list(np.geomspace(self.start, self.stop, self.num))
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


_SECTIONS = {
    "protocol": ProtocolConfig,
    "channel": ChannelConfig,
    "simulation": SimulationSettings,
    "sweep": SweepSettings,
    "output": OutputSettings,
    "hardware": HardwareConfig,
}


def _build_section(name: str, cls, data) -> object:
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
    if name == "sweep" and isinstance(data.get("values"), list):
        data = dict(data, values=tuple(data["values"]))
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad section {name!r}: {exc}") from exc


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

    # Domain-object constructors; these run the full parameter validation.

    def binning(self) -> BinningScheme:
        return BinningScheme(**dataclasses.asdict(self.protocol))

    def matched_design(self):
        """Binning scheme, matched source, and designed lens as a triple."""
        scheme, source = design_binning(**dataclasses.asdict(self.protocol))
        return scheme, source, design_time_lens(scheme)

    def channel_model(self) -> ChannelModel:
        return ChannelModel(m=self.protocol.m, **dataclasses.asdict(self.channel))

    def simulation_config(self) -> SimulationConfig:
        settings = dataclasses.asdict(self.simulation)
        del settings["threads"]  # how to run, not what to compute
        return SimulationConfig(**settings)

    def hardware_spec(self) -> HardwareSpec:
        return HardwareSpec(**dataclasses.asdict(self.hardware))


def load_config(path: str | Path | None = None) -> RunConfig:
    """Read a configuration file, or produce the defaults when ``path`` is
    None."""
    if path is None:
        return RunConfig()
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def set_by_path(data: dict, dotted: str, value) -> None:
    """Assign ``section.key`` inside a config dictionary, validating names."""
    parts = dotted.split(".")
    if len(parts) != 2:
        raise ConfigError(f"sweep parameter {dotted!r} must look like 'section.key'")
    section, key = parts
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section {section!r}")
    known = {f.name for f in dataclasses.fields(_SECTIONS[section])}
    if key not in known:
        raise ConfigError(f"unknown key {key!r} in section {section!r}")
    data.setdefault(section, {})[key] = value
