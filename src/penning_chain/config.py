"""Run configuration for the command-line tools.

Flat INI-style files with section headers; the schema below is the
authority — unknown sections or keys are rejected rather than ignored, so a
typo cannot silently fall back to a default.  Values are read literally (a
``%`` is not an interpolation), and every number must be finite (``inf`` and
``nan`` are input errors); a negative ``l_bar`` and a ``t_max`` at or below
zero are input errors too.  A sweep point's axis values replace the
[trap] keys for the same quantity; every other [trap] rule is the one all
commands apply.

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
    l_bar = 2.0          # magnetron occupation, >= 0, always explicit

    [run]
    mode = exact         # exact | approx anomaly frequency

    [transfer]
    theta = average      # Bloch polar angle in radians, or "average"
    phi = 0.0            # accepted, but no printed curve depends on it
    t_max = 1e-4         # s, > 0 (default: twice the end-to-end swap time)
    n_points = 512       # curves come from the exact one-excitation block

    [sweep]
    axes = gradient,spacing
    gradient = 100:2000:20    # start:stop:count (linear)
    spacing = 3e-6:50e-6:20

    [oracle]             # two electrons in identical traps; every key is
    k_max = 4            # optional, and one left out takes the default of
    tolerance = 0.2      # run_validation_suite (epsilon, freq_ratio,
                         # xi_over_omega_z, tolerance) or FockTruncation
                         # (n_max, k_max)
"""

from __future__ import annotations

import configparser
import math
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


def require_finite(what: str, raw: str, *values: float) -> None:
    """Refuse a config value that parsed to an infinite or NaN number."""
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} must be finite, got {raw!r}")


_MISSING = object()


@dataclass
class RunConfig:
    """Schema-validated key/value configuration backing every subcommand."""

    parser: configparser.ConfigParser

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), interpolation=None
        )
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
        try:
            value = cast(raw)
        except ValueError:
            raise ConfigError(
                f"cannot parse [{section}] {key} = {raw!r} as {cast.__name__}"
            ) from None
        if cast is float:
            require_finite(f"[{section}] {key}", raw, value)
        return value

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

    def trap_params(self, mode: AnomalyMode, point: dict[str, float] | None = None) -> TrapParams:
        """Trap parameters from [trap].  A sweep ``point`` (f_c, f_z, gradient)
        replaces the [trap] keys for the same quantity; the rules are otherwise
        the same for every command."""
        point = point or {}

        def value(key: str, default=_MISSING) -> float:
            return point[key] if key in point else self.get("trap", key, default=default)

        if "f_c" not in point and self.has("trap", "b0") == self.has("trap", "f_c"):
            raise ConfigError("specify exactly one of b0 or f_c in [trap]")
        if "f_c" in point or self.has("trap", "f_c"):
            b0 = TWO_PI * value("f_c") * CODATA2018.m_e / CODATA2018.e
        else:
            b0 = self.get("trap", "b0")

        axial_keys = (
            ["f_z"] if "f_z" in point
            else [k for k in ("f_z", "omega_z", "v0") if self.has("trap", k)]
        )
        if len(axial_keys) != 1:
            raise ConfigError(
                "specify the axial confinement as exactly one of f_z, omega_z, or v0+ell"
            )
        if axial_keys[0] == "v0":
            axial = {"V0": self.get("trap", "v0"), "ell": self.get("trap", "ell")}
        elif axial_keys[0] == "f_z":
            axial = {"omega_z_in": TWO_PI * value("f_z")}
        else:
            axial = {"omega_z_in": self.get("trap", "omega_z")}
        return TrapParams(B0=b0, b=value("gradient", 0.0), anomaly_mode=mode, **axial)

    def geometry(self, orientation: Orientation) -> ChainGeometry:
        if self.has("chain", "positions"):
            raw = self.get("chain", "positions", cast=str)
            try:
                positions = tuple(float(tok) for tok in raw.split(",") if tok.strip())
            except ValueError:
                raise ConfigError(f"cannot parse [chain] positions = {raw!r}") from None
            require_finite("[chain] positions", raw, *positions)
            return ChainGeometry(orientation=orientation, positions=positions)
        n_sites = self.get("chain", "n_sites", cast=int, default=2)
        spacing = self.get("chain", "spacing")
        return uniform_chain(n_sites, spacing, orientation)

    def l_bar(self) -> float:
        """Magnetron occupation from [thermal] l_bar (0 when absent)."""
        value = self.get("thermal", "l_bar", default=0.0)
        if value < 0.0:
            raise ConfigError("[thermal] l_bar must be >= 0")
        return value

    def occupations(self, dq: DerivedQuantities) -> ThermalOccupations:
        has_temp = self.has("thermal", "temperature")
        has_explicit = self.has("thermal", "k_bar") or self.has("thermal", "n_bar")
        if has_temp and has_explicit:
            raise ConfigError(
                "give either a temperature or explicit k_bar/n_bar in [thermal], not both"
            )
        l_bar = self.l_bar()
        if has_temp:
            return ThermalOccupations.from_temperature(
                dq, self.get("thermal", "temperature"), l_bar=l_bar
            )
        return ThermalOccupations(
            k_bar=self.get("thermal", "k_bar", default=0.0),
            n_bar=self.get("thermal", "n_bar", default=0.0),
            l_bar=l_bar,
        )
