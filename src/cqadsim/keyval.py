"""Flat key/value configuration files.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Numeric values take optional magnitude suffixes G/M/k (1e9, 1e6,
1e3) and m/u/n (1e-3, 1e-6, 1e-9); everything else stays a string.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .exceptions import ValidationError

__all__ = ["parse_keyval", "load_keyval", "parse_number"]

_SUFFIX_EXP = {"G": 9, "M": 6, "k": 3, "m": -3, "u": -6, "n": -9}
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?([GMkmun])?$")


def parse_number(text: str):
    """Float value of a suffixed numeric literal, or None if not numeric.

    A literal beyond the float range (``1e400``, ``1e300M``) is a
    ``ValidationError``, not infinity.
    """
    m = _NUMBER_RE.match(text.strip())
    if not m:
        return None
    body = text.strip()[:-1] if m.group(3) else text.strip()
    if m.group(3) is None:
        value = float(body)
    elif m.group(2) is None:
        # splice the suffix in as a decimal exponent to keep e.g. 4.1M exact
        value = float(f"{body}e{_SUFFIX_EXP[m.group(3)]}")
    else:
        value = float(body) * 10.0 ** _SUFFIX_EXP[m.group(3)]
    if not math.isfinite(value):
        raise ValidationError(f"numeric literal {text.strip()!r} is out of the float range")
    return value


def parse_keyval(text: str, source: str = "<string>") -> dict:
    """Parse the document into {key: float-or-string}."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValidationError(f"{source}:{lineno}: empty key or value")
        if key in out:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            num = parse_number(value)
        except ValidationError as exc:
            raise ValidationError(f"{source}:{lineno}: {key}: {exc}") from None
        out[key] = num if num is not None else value
    return out


def load_keyval(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"file not found: {p}")
    return parse_keyval(p.read_text(), source=str(p))
