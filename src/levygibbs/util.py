"""Small shared numeric/seed/format helpers."""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import InputParseError, ParameterError, ResourceGuardError

# Refuse to materialize more values than this in one array; stream instead.
MATERIALIZE_LIMIT = 1 << 27

# snap_ceil takes an integer for a value within this relative distance of it.
SNAP_REL = 1e-9


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


def check_count(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """The one count rule: int(value) for an integer in lo..hi (hi=None: no upper end), else ParameterError naming `name`."""
    if is_integer(value) and lo <= value and (hi is None or value <= hi):
        return int(value)
    if hi is not None:
        rule = f"an integer in {lo}..{hi}"
    else:
        rule = {1: "a positive integer", 0: "a non-negative integer"}.get(lo, f"an integer >= {lo}")
    raise ParameterError(f"{name} must be {rule}, got {value!r}")


def check_budget(count, what: str):
    """The one resource-guard rule: count when it is at most MATERIALIZE_LIMIT, else ResourceGuardError naming `what`; call it before allocating."""
    if count <= MATERIALIZE_LIMIT:
        return count
    raise ResourceGuardError(f"{what}={count} is above the materialization limit of {MATERIALIZE_LIMIT}")


# The ranges check_real takes: name -> (test of a finite float, what the message says the value must do).
_REAL_RANGES = {
    "finite": (lambda v: True, "be finite"),
    "> 0": (lambda v: v > 0.0, "be positive and finite"),
    ">= 0": (lambda v: v >= 0.0, "be nonnegative and finite"),
    "> 1": (lambda v: v > 1.0, "exceed 1 and be finite"),
    "(0, 1)": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
}


def check_real(value, name: str, within: str = "finite", error: type[Exception] = ParameterError) -> float:
    """The one real-number rule: float(value) for a finite, non-bool Python or numpy real in the range `within`, else `error` naming `name`."""
    test, rule = _REAL_RANGES[within]
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # a Python int beyond the float range
            v = math.inf
        if math.isfinite(v) and test(v):
            return v
    raise error(f"{name} must {rule}, got {value!r}")


def check_seed(seed) -> int:
    """int(seed) for a non-negative integer seed; ParameterError otherwise."""
    return check_count(seed, "seed", lo=0)


def snap_ceil(x: float) -> int:
    """Ceiling that forgives float noise: values within SNAP_REL of an integer snap to it.

    Quantities like 0.05 * delta**(-5/3) are exact integers in real arithmetic
    for the dyadic spacing grid but land an ulp above in floats; a bare ceil
    would overshoot by one.
    """
    if not math.isfinite(x):
        raise ParameterError(f"cannot take ceiling of {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= SNAP_REL * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def derive_seed(master: int, label: str) -> int:
    """Deterministic child seed for a named stage of a seeded pipeline.

    Distinct labels give statistically independent streams; the mapping is
    fixed so external callers can reproduce any stage in isolation.  A master
    seed that is not a non-negative integer, or an unknown label, raises
    ParameterError.
    """
    check_seed(master)
    codes = {"simulate": 1, "draws": 2}
    if label not in codes:
        raise ParameterError(f"unknown seed label {label!r}; expected one of {sorted(codes)}")
    ss = np.random.SeedSequence(entropy=master, spawn_key=(codes[label],))
    return int(ss.generate_state(1, np.uint64)[0])
