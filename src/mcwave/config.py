"""INI-backed configuration for simulations and sweeps.

One file, nine sections — [si] [network] [mobility] [radio] [traffic] [mac]
[queue] [scheme] [experiment] — whose keys are exactly the field names of the
corresponding parameter dataclasses.  Every section and key is optional;
omitted keys keep their defaults.  The [si] section additionally accepts a
``preset`` key naming an interval layout to start from; explicit [si] keys
then override individual preset fields.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union, get_type_hints

from .analytics import QueueParams
from .dissemination import SchemeConfig
from .engine import DEFAULT_PRESET, SI_PRESETS, SyncIntervalConfig
from .mac import MacParams
from .mobility import MobilityConfig, RoadNetwork
from .radio import RadioParams, TrafficParams


class ConfigError(ValueError):
    """A configuration file or override could not be interpreted."""


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Run-shape settings that are not physical-layer or protocol parameters."""

    seed: int = 1
    warmup_sis: int = 5
    measured_sis: int = 20
    emergency_si_offset: int = 10      # emergency fires this many intervals after warmup
    invocation_reserve_us: int = 20_000  # keep-clear tail of the service window

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("experiment.seed must be non-negative")
        if self.warmup_sis < 0:
            raise ValueError("experiment.warmup_sis must be non-negative")
        if self.measured_sis < 1:
            raise ValueError("experiment.measured_sis must be at least 1")
        if not 0 <= self.emergency_si_offset < self.measured_sis:
            raise ValueError(
                "experiment.emergency_si_offset must lie in [0, measured_sis)"
            )
        if self.invocation_reserve_us < 0:
            raise ValueError("experiment.invocation_reserve_us must be non-negative")


@dataclass(frozen=True, slots=True)
class FullConfig:
    si: SyncIntervalConfig
    network: RoadNetwork
    mobility: MobilityConfig
    radio: RadioParams
    traffic: TrafficParams
    mac: MacParams
    queue: QueueParams
    scheme: SchemeConfig
    experiment: ExperimentConfig
    preset: str = DEFAULT_PRESET

    def __post_init__(self) -> None:
        if self.experiment.invocation_reserve_us >= self.si.schi:
            raise ValueError(
                f"experiment.invocation_reserve_us ({self.experiment.invocation_reserve_us}) "
                f"must be less than si.schi ({self.si.schi}), or every invocation falls "
                "on the service window's first microsecond"
            )
        if self.mac.cw_min < 1:
            # an arena can run with every counter 0, but not the analytic chain
            raise ValueError(f"mac.cw_min ({self.mac.cw_min}) must be at least 1: the closed "
                             "form takes it as its contention window w0")
        net, turn = self.network, self.mobility.turn_probability
        if (net.horizontal_streets, net.vertical_streets) == (2, 2) \
                and turn != MobilityConfig().turn_probability:
            raise ValueError(
                f"[mobility] turn_probability ({turn}) changes nothing on a 2 x 2 street "
                "grid: every intersection is a corner, where the turn is forced"
            )


_SECTION_TYPES: dict[str, type] = {
    "si": SyncIntervalConfig,
    "network": RoadNetwork,
    "mobility": MobilityConfig,
    "radio": RadioParams,
    "traffic": TrafficParams,
    "mac": MacParams,
    "queue": QueueParams,
    "scheme": SchemeConfig,
    "experiment": ExperimentConfig,
}

#: INI spelling -> dataclass field name, where they must differ.
_KEY_ALIASES: dict[str, dict[str, str]] = {
    "queue": {"lambda": "lambda_"},
}

_TRUE = {"1", "yes", "true", "on"}
_FALSE = {"0", "no", "false", "off"}


def default_network() -> RoadNetwork:
    return RoadNetwork(
        width=1_500.0, height=1_500.0,
        horizontal_streets=2, vertical_streets=2,
    )


def default_config(preset: str = DEFAULT_PRESET) -> FullConfig:
    if preset not in SI_PRESETS:
        raise ConfigError(
            f"unknown interval preset {preset!r}; expected one of {sorted(SI_PRESETS)}"
        )
    return FullConfig(
        si=SI_PRESETS[preset],
        network=default_network(),
        mobility=MobilityConfig(),
        radio=RadioParams(),
        traffic=TrafficParams(),
        mac=MacParams(),
        queue=QueueParams(),
        scheme=SchemeConfig(),
        experiment=ExperimentConfig(),
        preset=preset,
    )


def _parse_scalar(section: str, key: str, raw: str, annotation: Any) -> Any:
    text = raw.strip()
    try:
        if annotation is bool:
            lowered = text.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise ValueError
        if annotation is int:
            return int(text, 10)
        if annotation is float:
            return float(text)
        if annotation is str:
            return text
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {annotation.__name__}, got {raw!r}"
        ) from None
    raise ConfigError(f"[{section}] {key}: unsupported field type {annotation!r}")


def _build_section(section: str, items: Mapping[str, str], base: Any) -> Any:
    cls = _SECTION_TYPES[section]
    hints = get_type_hints(cls)
    aliases = _KEY_ALIASES.get(section, {})
    # an aliased field answers to its INI spelling only, so each key has one spelling
    ini_keys = {f.name for f in dataclasses.fields(cls)} - set(aliases.values()) | set(aliases)
    kwargs: dict[str, Any] = {}
    for key, raw in items.items():
        if key not in ini_keys:
            raise ConfigError(
                f"[{section}] {key}: unknown key; expected one of {sorted(ini_keys)}"
            )
        field_name = aliases.get(key, key)
        kwargs[field_name] = _parse_scalar(section, key, raw, hints[field_name])
    if not kwargs:
        return base
    try:
        return dataclasses.replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(
    path: Optional[Union[str, Path]] = None,
    preset: Optional[str] = None,
    overrides: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> FullConfig:
    """Resolve a full configuration from defaults, an INI file, and overrides.

    Precedence, lowest to highest: built-in defaults, the interval preset
    (file's ``[si] preset`` key, then the ``preset`` argument), file keys,
    ``overrides`` (e.g. command-line flags).
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with path.open() as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None

    sections: dict[str, dict[str, str]] = {
        name: dict(parser.items(name)) for name in parser.sections()
    }
    for name, section_overrides in (overrides or {}).items():
        sections.setdefault(name, {}).update(
            {k: str(v) for k, v in section_overrides.items()}
        )

    unknown = sorted(set(sections) - set(_SECTION_TYPES))
    if unknown:
        raise ConfigError(
            f"unknown section(s) {unknown}; expected one of {sorted(_SECTION_TYPES)}"
        )

    chosen_preset = sections.get("si", {}).pop("preset", None)
    if preset is not None:
        chosen_preset = preset
    if chosen_preset is None:
        chosen_preset = DEFAULT_PRESET
    base = default_config(chosen_preset)

    built: dict[str, Any] = {}
    for name in _SECTION_TYPES:
        built[name] = _build_section(name, sections.get(name, {}), getattr(base, name))
    try:
        return FullConfig(preset=chosen_preset, **built)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def example_ini(cfg: Optional[FullConfig] = None) -> str:
    """Render a complete, loadable INI snapshot of a configuration."""
    cfg = cfg or default_config()
    parser = configparser.ConfigParser(interpolation=None)
    for name, section_cls in _SECTION_TYPES.items():
        values = getattr(cfg, name)
        back_aliases = {
            field: ini for ini, field in _KEY_ALIASES.get(name, {}).items()
        }
        parser[name] = {}
        if name == "si":
            parser[name]["preset"] = cfg.preset
        for f in dataclasses.fields(section_cls):
            parser[name][back_aliases.get(f.name, f.name)] = str(getattr(values, f.name))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
