"""Run configuration: layered defaults, config-file parsing, --set overrides.

The file format is deliberately plain: `key = value` lines grouped under
bracketed `[section]` headers, `#` or `;` comment lines, nothing nested.
Every value can also be overridden from the command line with
`--set section.key=value`. The fully resolved configuration is echoed
into the `#` comment header of every CSV a command writes, so a result
file always carries the inputs that produced it.

The keys, their defaults and their readers are listed once, in `_KEYS`,
in the order the header echoes them. The sweep's start, stop and count
(2 to 1,000,000) default per command, in SWEEP_DEFAULTS.

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
from dataclasses import dataclass, field

from .cavity import CavityConfig, tuned_length
from .dielectric import MediumParams
from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "SWEEP_DEFAULTS", "MAX_SWEEP_COUNT"]

# 10x the largest count any benchmark workload runs (a 100,000-root cap)
MAX_SWEEP_COUNT = 1_000_000

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

_SWEEP_KEYS = ("sweep.start", "sweep.stop", "sweep.count")
_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
          **dict.fromkeys(("false", "no", "off", "0"), False)}


def _auto_float(text: str) -> float | None:
    return None if text.lower() in ("auto", "none", "") else float(text)


def _bool(text: str) -> bool:
    return _BOOLS[text.lower()]


# what each reader's error message says the value must be
_NOUNS = {float: "a number", _auto_float: "a number", int: "an integer", _bool: "a boolean"}

# key: (default text, reader), in the order the CSV header echoes them;
# the sweep defaults (None here) come from SWEEP_DEFAULTS
_KEYS = {
    "medium.omega_t": ("1.0", float),
    "medium.beta4pi": ("0.0", float),
    "medium.gamma": ("1e-9", float),
    "cavity.lambda_mirror": ("7.822", float),
    "cavity.length": ("auto", _auto_float),  # auto: tuned fundamental at omega_t
    "sweep.start": (None, float),
    "sweep.stop": (None, float),
    "sweep.count": (None, int),
    "output.dir": (".", str),
    "output.svg": ("false", _bool),
    "figure2.kappa0_over_wt": ("1e-2", _auto_float),  # auto: 2 / (lambda^2 L)
    "tolerances.coefficient": ("1e-12", float),
    "tolerances.residual": ("1e-4", float),
}


def _render(value) -> str:
    """A parsed value as the CSV header echoes it."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation; the fields after
    medium hold the keys of `_KEYS` after medium.*, in that order."""

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
    _lines: tuple[str, ...] = field(repr=False)  # the header, see _render

    def cavity(self) -> CavityConfig:
        length = self.length or tuned_length(self.lambda_mirror, self.medium)
        return CavityConfig(length, self.lambda_mirror, self.medium)

    def resolved(self) -> list[str]:
        """The full configuration as ordered `section.key = value` lines."""
        return list(self._lines)


def _parse_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8 text: {err}") from err
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
    table = {key: default for key, (default, _) in _KEYS.items()}
    table.update(zip(_SWEEP_KEYS, SWEEP_DEFAULTS[command]))

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

    val = {}
    for key, (_, read) in _KEYS.items():
        try:
            val[key] = read(table[key])
        except (ValueError, KeyError) as err:
            raise ConfigError(f"{key} must be {_NOUNS[read]}, got {table[key]!r}") from err

    try:
        medium = MediumParams(val["medium.omega_t"], val["medium.beta4pi"], val["medium.gamma"])
    except ValueError as err:
        raise ConfigError(f"invalid medium: {err}") from err

    if not val["cavity.lambda_mirror"] > 0:
        raise ConfigError("cavity.lambda_mirror must be positive")
    length = val["cavity.length"]
    if length is not None and not 0 < length < math.inf:
        raise ConfigError("cavity.length must be positive and finite (or auto)")

    sweep_start, sweep_stop, sweep_count = (val[key] for key in _SWEEP_KEYS)
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

    kappa0 = val["figure2.kappa0_over_wt"]
    if kappa0 is not None and not kappa0 > 0:
        raise ConfigError("figure2.kappa0_over_wt must be positive (or auto)")
    if not (val["tolerances.coefficient"] > 0 and val["tolerances.residual"] > 0):
        raise ConfigError("tolerances must be positive")

    # RunConfig's fields after medium are the other keys, in _KEYS order
    return RunConfig(
        medium, *list(val.values())[3:],
        _lines=tuple(f"{key} = {_render(value)}" for key, value in val.items()),
    )
