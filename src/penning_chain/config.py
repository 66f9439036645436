"""Run configuration for the command-line tools.

Flat INI-style files with section headers; the schema below is the
authority — unknown sections or keys are rejected rather than ignored, so a
typo cannot silently fall back to a default.

    [trap]
    f_c = 8e9            # cyclotron frequency, Hz (or b0 = field, T)
    f_z = 490e6          # axial frequency, Hz (or omega_z = rad/s, or v0+ell)
    gradient = 1800      # magnetic-field gradient, T/m

    [chain]
    n_sites = 2
    spacing = 10e-6      # m (or positions = comma-separated coordinates)
    orientation = z      # z (stacked) or x (side by side)

    [thermal]
    temperature = 0.080  # K, sets axial and cyclotron occupations
    l_bar = 2.0          # magnetron occupation, always explicit

    [run]
    mode = exact         # exact | approx anomaly frequency

    [transfer]
    theta = average      # Bloch polar angle in radians, or "average"
    phi = 0.0
    t_max = 1e-4         # s (default: twice the end-to-end swap time)
    n_points = 512       # curves come from the exact one-excitation block

    [sweep]
    axes = gradient,spacing
    gradient = 100:2000:20    # start:stop:count (linear)
    spacing = 3e-6:50e-6:20

    [oracle]
    epsilon = 0.025
    freq_ratio = 15
    xi_over_omega_z = 0.01
    n_max = 3
    k_max = 3
    tolerance = 0.15
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .constants import CODATA2018, TWO_PI
from .couplings import ChainGeometry, Orientation, uniform_chain
from .fidelity_model import ThermalOccupations
from .trap_model import AnomalyMode, DerivedQuantities, TrapParams

MAX_SWEEP_POINTS = 1_000_000


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class GridTooLarge(ConfigError):
    """Sweep grid exceeds the point budget."""


_SCHEMA: dict[str, frozenset[str]] = {
    "trap": frozenset({"b0", "f_c", "f_z", "omega_z", "v0", "ell", "gradient"}),
    "chain": frozenset({"n_sites", "spacing", "orientation", "positions"}),
    "thermal": frozenset({"temperature", "k_bar", "n_bar", "l_bar"}),
    "run": frozenset({"mode"}),
    "transfer": frozenset({"theta", "phi", "t_max", "n_points"}),
    "sweep": frozenset({"axes", "gradient", "spacing", "f_z", "f_c"}),
    "oracle": frozenset(
        {"epsilon", "freq_ratio", "xi_over_omega_z", "n_max", "k_max", "tolerance"}
    ),
}

_MISSING = object()
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass
class RunConfig:
    """Schema-validated key/value configuration backing every subcommand."""

    parser: configparser.ConfigParser

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        text = Path(path).read_text()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from None
        cfg = cls(parser)
        cfg._validate_schema()
        return cfg

    @classmethod
    def empty(cls) -> "RunConfig":
        return cls(configparser.ConfigParser())

    def _validate_schema(self) -> None:
        for section in self.parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in self.parser[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_option(section, key)

    def get(self, section: str, key: str, cast=float, default=_MISSING):
        if not self.parser.has_option(section, key):
            if default is _MISSING:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            return default
        raw = self.parser.get(section, key).strip()
        if cast is bool:
            low = raw.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ConfigError(f"cannot parse [{section}] {key} = {raw!r} as a boolean")
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse [{section}] {key} = {raw!r} as {cast.__name__}"
            ) from None

    # -- typed builders -------------------------------------------------

    def anomaly_mode(self, override: str | None = None) -> AnomalyMode:
        value = override or self.get("run", "mode", cast=str, default="exact")
        try:
            return AnomalyMode(value)
        except ValueError:
            raise ConfigError(f"mode must be 'exact' or 'approx', got {value!r}") from None

    def orientation(self, override: str | None = None) -> Orientation:
        value = override or self.get("chain", "orientation", cast=str, default="z")
        try:
            return Orientation(value)
        except ValueError:
            raise ConfigError(f"orientation must be 'z' or 'x', got {value!r}") from None

    def trap_params(self, mode: AnomalyMode) -> TrapParams:
        has_b0, has_fc = self.has("trap", "b0"), self.has("trap", "f_c")
        if has_b0 == has_fc:
            raise ConfigError("specify exactly one of b0 or f_c in [trap]")
        b0 = (
            self.get("trap", "b0")
            if has_b0
            else TWO_PI * self.get("trap", "f_c") * CODATA2018.m_e / CODATA2018.e
        )
        gradient = self.get("trap", "gradient", default=0.0)

        axial_keys = [
            k for k in ("f_z", "omega_z") if self.has("trap", k)
        ] + (["v0"] if self.has("trap", "v0") else [])
        if len(axial_keys) != 1:
            raise ConfigError(
                "specify the axial confinement as exactly one of f_z, omega_z, or v0+ell"
            )
        if axial_keys[0] == "v0":
            return TrapParams(
                B0=b0,
                b=gradient,
                V0=self.get("trap", "v0"),
                ell=self.get("trap", "ell"),
                anomaly_mode=mode,
            )
        omega_z = (
            TWO_PI * self.get("trap", "f_z")
            if axial_keys[0] == "f_z"
            else self.get("trap", "omega_z")
        )
        return TrapParams(B0=b0, b=gradient, omega_z_in=omega_z, anomaly_mode=mode)

    def geometry(self, orientation: Orientation) -> ChainGeometry:
        if self.has("chain", "positions"):
            raw = self.get("chain", "positions", cast=str)
            try:
                positions = tuple(float(tok) for tok in raw.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"cannot parse [chain] positions = {raw!r}") from None
            return ChainGeometry(orientation=orientation, positions=positions)
        n_sites = self.get("chain", "n_sites", cast=int, default=2)
        spacing = self.get("chain", "spacing")
        return uniform_chain(n_sites, spacing, orientation)

    def occupations(self, dq: DerivedQuantities) -> ThermalOccupations:
        has_temp = self.has("thermal", "temperature")
        has_explicit = self.has("thermal", "k_bar") or self.has("thermal", "n_bar")
        if has_temp and has_explicit:
            raise ConfigError(
                "give either a temperature or explicit k_bar/n_bar in [thermal], not both"
            )
        l_bar = self.get("thermal", "l_bar", default=0.0)
        if has_temp:
            return ThermalOccupations.from_temperature(
                dq, self.get("thermal", "temperature"), l_bar=l_bar
            )
        return ThermalOccupations(
            k_bar=self.get("thermal", "k_bar", default=0.0),
            n_bar=self.get("thermal", "n_bar", default=0.0),
            l_bar=l_bar,
        )
