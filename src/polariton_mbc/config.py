"""Run configuration: layered defaults, config-file parsing, --set overrides.

The file format is deliberately plain: `key = value` lines grouped under
bracketed `[section]` headers, `#` or `;` comment lines, nothing nested.
Every value can also be overridden from the command line with
`--set section.key=value`. The fully resolved configuration is echoed
into the `#` comment header of every CSV a command writes, so a result
file always carries the inputs that produced it.

Sections and keys (defaults in parentheses):

    [medium]     omega_t (1.0), beta4pi (0.0), gamma (1e-9)
    [cavity]     lambda_mirror (7.822), length (auto = tuned fundamental)
    [sweep]      start, stop, count (defaults depend on the command;
                 count from 2 to 1,000,000)
    [output]     dir (.), svg (false)
    [figure2]    kappa0_over_wt (1e-2; auto = 2 / (lambda^2 L))
    [tolerances] coefficient (1e-12), residual (1e-4)

The sweep axis means different things per command: wavenumber for
`dispersion`, coupling rabi/omega_t for `hopfield` and `figure2`,
frequency window for `resonances`, `spectrum` and `kappa-sweep`, vacuum
wavenumber for `fluct`, and the random-frequency window for
`greens-check`. For `resonances` the count caps the number of roots
(the lowest ones); for `greens-check` it is the number of random draws.
Every command allocates in proportion to the count, so a count above
MAX_SWEEP_COUNT is a configuration error, raised before any computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cavity import CavityConfig, tuned_length
from .dielectric import MediumParams
from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "SWEEP_DEFAULTS", "MAX_SWEEP_COUNT"]

# 10x the largest count any benchmark workload runs (a 100,000-root cap)
MAX_SWEEP_COUNT = 1_000_000

_GLOBAL_DEFAULTS = {
    "medium.omega_t": "1.0",
    "medium.beta4pi": "0.0",
    "medium.gamma": "1e-9",
    "cavity.lambda_mirror": "7.822",
    "cavity.length": "auto",
    "output.dir": ".",
    "output.svg": "false",
    "figure2.kappa0_over_wt": "1e-2",
    "tolerances.coefficient": "1e-12",
    "tolerances.residual": "1e-4",
}

# start, stop, count of the sweep each command runs if not configured
SWEEP_DEFAULTS = {
    "dispersion": ("0.01", "3.0", "300"),
    "hopfield": ("0.05", "1.5", "30"),
    "resonances": ("0.5", "1.5", "2000"),
    "spectrum": ("0.9", "1.1", "2001"),
    "kappa-sweep": ("0.2", "0.95", "151"),
    "figure2": ("0.05", "1.5", "30"),
    "greens-check": ("0.1", "3.0", "200"),
    "fluct": ("0.05", "3.0", "60"),
}

_KEY_ORDER = [
    "medium.omega_t",
    "medium.beta4pi",
    "medium.gamma",
    "cavity.lambda_mirror",
    "cavity.length",
    "sweep.start",
    "sweep.stop",
    "sweep.count",
    "output.dir",
    "output.svg",
    "figure2.kappa0_over_wt",
    "tolerances.coefficient",
    "tolerances.residual",
]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation."""

    medium: MediumParams
    lambda_mirror: float
    length: float | None  # None -> tuned so the empty fundamental sits at omega_t
    sweep_start: float
    sweep_stop: float
    sweep_count: int
    out_dir: str
    svg: bool
    kappa0_over_wt: float | None  # None -> 2 / (lambda_mirror^2 L)
    tol_coefficient: float
    tol_residual: float

    def cavity(self) -> CavityConfig:
        length = self.length
        if length is None:
            length = tuned_length(self.lambda_mirror, self.medium)
        return CavityConfig(
            length=length, lambda_mirror=self.lambda_mirror, medium=self.medium
        )

    def resolved(self) -> list[str]:
        """The full configuration as ordered `section.key = value` lines."""
        vals = {
            "medium.omega_t": repr(self.medium.omega_t),
            "medium.beta4pi": repr(self.medium.beta4pi),
            "medium.gamma": repr(self.medium.gamma),
            "cavity.lambda_mirror": repr(self.lambda_mirror),
            "cavity.length": "auto" if self.length is None else repr(self.length),
            "sweep.start": repr(self.sweep_start),
            "sweep.stop": repr(self.sweep_stop),
            "sweep.count": str(self.sweep_count),
            "output.dir": self.out_dir,
            "output.svg": "true" if self.svg else "false",
            "figure2.kappa0_over_wt": (
                "auto" if self.kappa0_over_wt is None else repr(self.kappa0_over_wt)
            ),
            "tolerances.coefficient": repr(self.tol_coefficient),
            "tolerances.residual": repr(self.tol_residual),
        }
        return [f"{key} = {vals[key]}" for key in _KEY_ORDER]


def _parse_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    out: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{path}:{lineno}: empty section header")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        out[f"{section}.{key.strip()}"] = value.strip()
    return out


def _parse_sets(pairs) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or "." not in key:
            raise ConfigError(f"--set expects section.key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _as_float(table: dict[str, str], key: str) -> float:
    try:
        return float(table[key])
    except ValueError as err:
        raise ConfigError(f"{key} must be a number, got {table[key]!r}") from err


def _as_int(table: dict[str, str], key: str) -> int:
    try:
        return int(table[key])
    except ValueError as err:
        raise ConfigError(f"{key} must be an integer, got {table[key]!r}") from err


def _as_bool(table: dict[str, str], key: str) -> bool:
    val = table[key].lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {table[key]!r}")


def _as_optional_float(table: dict[str, str], key: str) -> float | None:
    if table[key].lower() in ("auto", "none", ""):
        return None
    return _as_float(table, key)


def load_config(
    command: str,
    config_path: str | None = None,
    set_pairs=(),
    out_dir: str | None = None,
    svg: bool | None = None,
) -> RunConfig:
    """Resolve defaults <- config file <- --set pairs <- direct flags."""
    if command not in SWEEP_DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    start, stop, count = SWEEP_DEFAULTS[command]
    table = dict(_GLOBAL_DEFAULTS)
    table["sweep.start"] = start
    table["sweep.stop"] = stop
    table["sweep.count"] = count

    for source in (
        _parse_file(config_path) if config_path else {},
        _parse_sets(set_pairs),
    ):
        for key, value in source.items():
            if key not in table:
                raise ConfigError(f"unknown configuration key {key!r}")
            table[key] = value
    if out_dir is not None:
        table["output.dir"] = out_dir
    if svg is not None:
        table["output.svg"] = "true" if svg else "false"

    try:
        medium = MediumParams(
            omega_t=_as_float(table, "medium.omega_t"),
            beta4pi=_as_float(table, "medium.beta4pi"),
            gamma=_as_float(table, "medium.gamma"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid medium: {err}") from err

    lam = _as_float(table, "cavity.lambda_mirror")
    if not lam > 0:
        raise ConfigError("cavity.lambda_mirror must be positive")
    length = _as_optional_float(table, "cavity.length")
    if length is not None and not 0 < length < math.inf:
        raise ConfigError("cavity.length must be positive and finite (or auto)")

    sweep_start = _as_float(table, "sweep.start")
    sweep_stop = _as_float(table, "sweep.stop")
    sweep_count = _as_int(table, "sweep.count")
    if not sweep_start < sweep_stop:
        raise ConfigError("sweep.start must be smaller than sweep.stop")
    if not math.isfinite(sweep_stop - sweep_start):
        raise ConfigError(
            f"sweep.start = {sweep_start!r} and sweep.stop = {sweep_stop!r} "
            "span more than the float range"
        )
    if sweep_count < 2:
        raise ConfigError("sweep.count must be at least 2")
    if sweep_count > MAX_SWEEP_COUNT:
        raise ConfigError(f"sweep.count must be at most {MAX_SWEEP_COUNT:,}")

    kappa0 = _as_optional_float(table, "figure2.kappa0_over_wt")
    if kappa0 is not None and not kappa0 > 0:
        raise ConfigError("figure2.kappa0_over_wt must be positive (or auto)")
    tol_c = _as_float(table, "tolerances.coefficient")
    tol_r = _as_float(table, "tolerances.residual")
    if not (tol_c > 0 and tol_r > 0):
        raise ConfigError("tolerances must be positive")

    return RunConfig(
        medium=medium,
        lambda_mirror=lam,
        length=length,
        sweep_start=sweep_start,
        sweep_stop=sweep_stop,
        sweep_count=sweep_count,
        out_dir=table["output.dir"],
        svg=_as_bool(table, "output.svg"),
        kappa0_over_wt=kappa0,
        tol_coefficient=tol_c,
        tol_residual=tol_r,
    )
