"""Run configuration: a strict YAML surface over the scenario, solver, and
grid parameters, with the benchmark setup as the all-defaults document.

Every dimensioned key carries its unit in the name. Unknown keys anywhere are
rejected so that typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .array_manifold import build_uca
from .beamform_opt import OptOptions
from .errors import ConfigError, InvalidArray
from .fisher import Scenario, subcarrier_offsets_rad
from .geometry import SPEED_OF_LIGHT, Position2D
from .sweep import DEFAULT_RCS_COEFF_M, GridSpec, channel_gain


# libyaml's parser when PyYAML was built with it; the pure-Python one parses
# the default config about eight times slower
class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads YAML 1.2 floats: PyYAML follows YAML 1.1,
    where an exponent needs a sign, so 3.8e9 would load as a string. The
    added resolver is checked after the YAML 1.1 ones, so it only claims
    scalars that would otherwise be strings."""


_YAML_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class ScenarioConfig:
    carrier_hz: float = 3.8e9
    subcarrier_count: int = 2
    subcarrier_spacing_hz: float = 2.4e6
    narrowband: bool = True
    n_tx: int = 15
    n_rx: int = 3
    element_spacing_wavelengths: float = 0.5
    tx_position_m: tuple[float, float] = (-10.0, 0.0)
    rx_position_m: tuple[float, float] = (10.0, 0.0)
    target_position_m: tuple[float, float] = (0.0, 10.0)
    noise_power_watts: float = 2.4e-14
    power_budget_watts: float = 1e-2
    rcs_coeff_m: float = DEFAULT_RCS_COEFF_M
    gain_phase_rad: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    solver: OptOptions = field(default_factory=OptOptions)
    grid: GridSpec = field(default_factory=GridSpec)
    out_dir: str | None = None


def default_config() -> RunConfig:
    return RunConfig()


# -----------------------------------------------------------------------------
# strict parsing


def _coerce_scalar(value, annotation, path: str):
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if annotation.startswith("tuple"):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{path}: expected a pair [x, y], got {value!r}")
        return tuple(_coerce_scalar(v, "float", f"{path}[{i}]") for i, v in enumerate(value))
    if annotation == "str | None":
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported config field type {annotation}")


def _coerce_section(cls, data, path: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    kwargs = {
        name: _coerce_scalar(value, str(fields[name].type), f"{path}.{name}")
        for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {path} parameters: {exc}") from exc


def config_from_dict(data: dict | None) -> RunConfig:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping")
    known = {"scenario", "solver", "grid", "out_dir"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"config root: unknown key(s) {unknown}")
    return RunConfig(
        scenario=_coerce_section(ScenarioConfig, data.get("scenario"), "scenario"),
        solver=_coerce_section(OptOptions, data.get("solver"), "solver"),
        grid=_coerce_section(GridSpec, data.get("grid"), "grid"),
        out_dir=_coerce_scalar(data.get("out_dir"), "str | None", "out_dir"),
    )


def load_config(path) -> RunConfig:
    """Parse a YAML config file; missing sections inherit the defaults."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: RunConfig) -> dict:
    """Plain nested dict with lists instead of tuples (YAML/JSON friendly)."""

    def clean(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: clean(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, tuple):
            return [clean(v) for v in obj]
        return obj

    return clean(config)


def dump_config(config: RunConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


# -----------------------------------------------------------------------------
# bridges to the numeric layer


def build_scenario(config: RunConfig, target: tuple[float, float] | None = None) -> Scenario:
    """Instantiate the scenario described by the config.

    The channel gain is derived from the target geometry through the scalar
    scattering model, with the configured phase attached. Invalid parameter
    combinations surface as ConfigError; a degenerate target position keeps
    its own error type so callers can distinguish bad geometry from bad
    syntax.
    """
    sc = config.scenario
    wavelength = SPEED_OF_LIGHT / sc.carrier_hz if sc.carrier_hz > 0 else 0.0
    p_t = Position2D(*sc.tx_position_m)
    p_r = Position2D(*sc.rx_position_m)
    p_s = Position2D(*(target if target is not None else sc.target_position_m))
    try:
        gain = channel_gain(p_t, p_r, p_s, wavelength, sc.rcs_coeff_m) * np.exp(
            1j * sc.gain_phase_rad
        )
        return Scenario(
            p_t=p_t,
            p_r=p_r,
            p_s=p_s,
            tx_array=build_uca(sc.n_tx, sc.element_spacing_wavelengths * wavelength),
            rx_array=build_uca(sc.n_rx, sc.element_spacing_wavelengths * wavelength),
            omega_carrier=2.0 * np.pi * sc.carrier_hz,
            subcarrier_offsets=subcarrier_offsets_rad(
                sc.subcarrier_count, sc.subcarrier_spacing_hz
            ),
            noise_power=sc.noise_power_watts,
            power_budget=sc.power_budget_watts,
            gain=complex(gain),
            narrowband=sc.narrowband,
        )
    except (ValueError, InvalidArray) as exc:
        raise ConfigError(f"invalid scenario parameters: {exc}") from exc


def build_grid(config: RunConfig) -> GridSpec:
    return config.grid


def build_options(config: RunConfig) -> OptOptions:
    return config.solver
