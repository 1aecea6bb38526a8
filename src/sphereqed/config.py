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


# the default of a key that has none: resolve() raises when it is not given
REQUIRED = object()


def number(text: str) -> float:
    """A finite float, or pi for the text 'pi'."""
    value = math.pi if text == "pi" else float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def positive(text: str) -> float:
    """A number > 0."""
    value = number(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not > 0")
    return value


def choice(*options: str):
    """A parser that accepts only the given texts."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"{text!r} not one of {options}")
        return text

    return parse


def resolve(cfg: dict[str, str], table: dict) -> tuple[dict, dict[str, str]]:
    """(values, echo) of the config cfg against a table that maps each
    declared key to (parser, default); a key the table lacks is an error.

    A default is the text for a key cfg lacks, REQUIRED, None (value None)
    or a function of the values parsed before it that returns one of these.
    A key (parser, default, other, *texts) is read only when the earlier key
    other has one of texts, else it is None and giving it is an error.  echo
    maps each key that has a text to it, in sorted key order.
    """
    unknown = sorted(cfg.keys() - table.keys())
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))}")
    values, echo = {}, {}
    for key, (parse, default, *only) in table.items():
        values[key] = None
        if only and values[only[0]] not in only[1:]:
            if key in cfg:
                raise ConfigError(
                    f"key {key!r} is read only with {only[0]} = {' or '.join(only[1:])}")
            continue
        text = cfg.get(key, default)
        if callable(text):
            text = text(values)
        if text is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        if text is not None:
            try:
                values[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
            echo[key] = text
    return values, dict(sorted(echo.items()))
