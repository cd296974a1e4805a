"""Small shared numeric/seed/format helpers."""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InputParseError, ParameterError


def fmt_float(v: float) -> str:
    """The package's one float format: shortest round-trip repr, so reruns print identical bytes."""
    return repr(float(v))


def _not_ascii(path, exc: UnicodeDecodeError) -> InputParseError:
    return InputParseError(f"{path}: not ASCII text (byte 0x{exc.object[exc.start]:02x})")


@contextlib.contextmanager
def open_ascii(path):
    """Open a text input file as ASCII; a non-ASCII byte raises InputParseError naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_ascii(path, exc) from exc


def decode_ascii(path, data: bytes) -> str:
    """Bytes read from path as ASCII text; a non-ASCII byte raises InputParseError naming the file."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise _not_ascii(path, exc) from exc


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def snap_ceil(x: float, rel: float = 1e-9) -> int:
    """Ceiling that forgives float noise: values within rel of an integer snap to it.

    Quantities like 0.05 * delta**(-5/3) are exact integers in real arithmetic
    for the dyadic spacing grid but land an ulp above in floats; a bare ceil
    would overshoot by one.
    """
    if not math.isfinite(x):
        raise ParameterError(f"cannot take ceiling of {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= rel * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def derive_seed(master: int, label: str) -> int:
    """Deterministic child seed for a named stage of a seeded pipeline.

    Distinct labels give statistically independent streams; the mapping is
    fixed so external callers can reproduce any stage in isolation.
    """
    codes = {"simulate": 1, "draws": 2}
    if label not in codes:
        raise ValueError(f"unknown seed label {label!r}; expected one of {sorted(codes)}")
    ss = np.random.SeedSequence(entropy=master, spawn_key=(codes[label],))
    return int(ss.generate_state(1, np.uint64)[0])
