"""Flat key-value scenario configuration.

Format: one `section.key = value` assignment per line, `#` starts a comment,
blank lines ignored.  Chosen over nested formats for diff-friendliness and
zero-dependency parsing; the CLI echoes every resolved key back into the CSV
header so a run is reproducible from its own output.
"""

from __future__ import annotations

import math


class ConfigError(Exception):
    """Config problem, carrying the 1-based line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse_config(text: str) -> dict[str, str]:
    """Parse config text into a flat {'section.key': 'value'} dict."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or "." not in key:
            raise ConfigError(f"key {key!r} must look like 'section.key'", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


_NAMED_VALUES = {"pi": math.pi}


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = cfg[key]
    if raw in _NAMED_VALUES:
        return _NAMED_VALUES[raw]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    return value


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer") from exc


def get_str(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return cfg[key]


def get_choice(cfg: dict[str, str], key: str, choices: tuple[str, ...], default: str | None = None) -> str:
    value = get_str(cfg, key, default)
    if value not in choices:
        raise ConfigError(f"key {key!r}: {value!r} not one of {choices}")
    return value
