"""Simulation of discretely sampled Levy processes and their true Levy densities.

The observation model is a Levy process X sampled on a regular grid with
spacing delta over a horizon t_n = n*delta; the data are the n increments
Y_i = X_{i*delta} - X_{(i-1)*delta}.  Two process families are provided:

* variance gamma: Brownian motion with drift mu and volatility sigma run at
  an independent gamma clock with variance rate nu.  Increments are drawn
  exactly from the subordinated representation
  U_i ~ Gamma(shape=delta/nu, scale=nu),  Y_i | U_i ~ N(mu*U_i, sigma^2*U_i).
* compound Poisson: Poisson(rate*delta) jump counts per increment with iid
  jump sizes from a configurable distribution.

Each family is one model class (VarianceGammaParams, CompoundPoissonParams)
with one interface: model.block(scheme, seed, b) draws increment block b,
simulate(model, scheme, seed) serves those blocks as a series, and
model.levy_density() is the true Levy density.  Callers hold a model and
need not know its family.

Generation is counter based: increment block b (a fixed span of 2**20
indices) is produced by a Philox generator keyed on (seed, b).  The stream
is therefore reproducible increment-by-increment, independent of how many
blocks are materialized at once, and safe to generate in parallel.

One pool of forked worker processes (_pool_map) serves all parallel work:
IncrementSeries.map_blocks and write_increments.  Each worker draws, slices
or reads its own blocks and does its own file I/O: a block read from a
binary increments file is read by the worker that folds it, and a block
written to one is written at its offset by the worker that drew it, so no
block crosses a pipe and the whole body is never held in this process.  A
text increments file is read here, in one pass.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InputParseError,
    ParameterError,
    RangeError,
    ResourceGuardError,
)
from .util import MATERIALIZE_LIMIT, check_seed, decode_ascii, is_integer, open_ascii

# Fixed RNG block span.  Block b covers increment indices [b*BLOCK, (b+1)*BLOCK).
BLOCK = 1 << 20


@dataclass(frozen=True)
class SamplingScheme:
    """Regular sampling grid: n increments with spacing delta, horizon t_n = n*delta.

    t_n is derived, never passed; a horizon that overflows raises RangeError.
    """

    delta: float
    n: int

    def __post_init__(self) -> None:
        if not (is_integer(self.n) and self.n >= 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ParameterError(f"delta must be positive and finite, got {self.delta!r}")
        if not math.isfinite(self.t_n):
            raise RangeError(f"horizon n*delta overflows: n={self.n}, delta={self.delta}")

    @property
    def t_n(self) -> float:
        return self.n * self.delta

    @property
    def num_blocks(self) -> int:
        return (self.n + BLOCK - 1) // BLOCK


@dataclass(frozen=True)
class TrueLevyDensity:
    """Evaluatable true Levy density psi(x), defined for x != 0.

    Instances are callable and vectorized.  `family` tags the construction
    ("variance-gamma", "compound-poisson", "custom"); `params` echoes the
    generating parameters.
    """

    family: str
    params: dict
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        if np.any(arr == 0.0):
            raise DomainError("Levy density is not defined at x = 0")
        out = self._eval(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray], params: dict | None = None) -> "TrueLevyDensity":
        return cls("custom", dict(params or {}), fn)


@dataclass(frozen=True)
class VarianceGammaParams:
    """Variance gamma parameters: drift mu, volatility sigma >= 0, gamma variance rate nu > 0."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.nu <= 0.0:
            raise ParameterError(f"nu must be > 0, got {self.nu!r}")

    def block(self, scheme: SamplingScheme, seed: int, b: int) -> np.ndarray:
        """Increment block b of the series, drawn from the subordinated representation."""
        rng, m = _block_rng(seed, b), _block_size(scheme, b)
        # Exact subordinated draw; numpy's gamma sampler is valid for shape < 1,
        # which is the relevant regime (shape = delta/nu is tiny at high frequency).
        u = rng.gamma(scheme.delta / self.nu, self.nu, size=m)
        z = rng.standard_normal(m)
        return self.mu * u + self.sigma * np.sqrt(u) * z

    def levy_density(self, decaying: bool = True) -> TrueLevyDensity:
        """Levy density with exponent scales eta+/- from (mu, sigma, nu).

        The two-sided form is nu^{-1} |x|^{-1} exp(-x/eta+) for x > 0 and
        nu^{-1} |x|^{-1} exp(x/eta-) for x < 0, with
        eta+- = sqrt(mu^2 nu^2 / 4 + sigma^2 nu / 2) +- mu nu / 2, so both tails
        decay away from the origin (the density of the simulated process).
        decaying=False evaluates the form as printed, whose positive branch
        carries exp(+x/eta+) and grows in x.
        """
        root = math.sqrt(self.mu**2 * self.nu**2 / 4.0 + self.sigma**2 * self.nu / 2.0)
        eta_pos = root + self.mu * self.nu / 2.0
        eta_neg = root - self.mu * self.nu / 2.0
        if eta_pos <= 0.0 or eta_neg <= 0.0:
            raise ParameterError(f"exponent scales must be positive, got eta+={eta_pos!r}, eta-={eta_neg!r}")
        inv_nu = 1.0 / self.nu
        pos_sign = -1.0 if decaying else 1.0

        def evaluate(x: np.ndarray) -> np.ndarray:
            expo = np.where(x > 0.0, pos_sign * x / eta_pos, x / eta_neg)
            return inv_nu / np.abs(x) * np.exp(expo)

        meta = dict(mu=self.mu, sigma=self.sigma, nu=self.nu, eta_pos=eta_pos, eta_neg=eta_neg, decaying=decaying)
        return TrueLevyDensity("variance-gamma", meta, evaluate)


@dataclass(frozen=True)
class JumpDistribution:
    """Jump-size distribution handle for the compound Poisson family.

    Supported kinds: "point" (all jumps equal to c), "normal" (mean, sd),
    "uniform" (lo, hi), "exponential" (mean).  The string form used by the
    CLI is "kind:p1[,p2]", e.g. "normal:0,1".
    """

    kind: str
    params: tuple[float, ...]

    _ARITY = {"point": 1, "normal": 2, "uniform": 2, "exponential": 1}

    def __post_init__(self) -> None:
        if self.kind not in self._ARITY:
            raise ParameterError(
                f"unknown jump distribution {self.kind!r}; expected one of {sorted(self._ARITY)}"
            )
        if len(self.params) != self._ARITY[self.kind]:
            raise ParameterError(
                f"jump distribution {self.kind!r} takes {self._ARITY[self.kind]} "
                f"parameter(s), got {self.params!r}"
            )
        if any(not math.isfinite(p) for p in self.params):
            raise ParameterError(f"jump parameters must be finite, got {self.params!r}")
        if self.kind == "normal" and self.params[1] < 0.0:
            raise ParameterError(f"normal jump sd must be >= 0, got {self.params[1]!r}")
        if self.kind == "uniform" and self.params[0] >= self.params[1]:
            raise ParameterError(f"uniform jump bounds must satisfy lo < hi, got {self.params!r}")
        if self.kind == "exponential" and self.params[0] <= 0.0:
            raise ParameterError(f"exponential jump mean must be > 0, got {self.params[0]!r}")

    @classmethod
    def point(cls, c: float) -> "JumpDistribution":
        return cls("point", (float(c),))

    @classmethod
    def normal(cls, mean: float, sd: float) -> "JumpDistribution":
        return cls("normal", (float(mean), float(sd)))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "JumpDistribution":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def exponential(cls, mean: float) -> "JumpDistribution":
        return cls("exponential", (float(mean),))

    @classmethod
    def parse(cls, text: str) -> "JumpDistribution":
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind not in cls._ARITY:
            raise InputParseError(
                f"unknown jump distribution {kind!r}; expected one of {sorted(cls._ARITY)}"
            )
        try:
            params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise InputParseError(f"could not parse jump parameters from {text!r}") from exc
        try:
            return cls(kind, params)
        except ParameterError as exc:
            raise InputParseError(str(exc)) from exc

    def spec(self) -> str:
        return self.kind + ":" + ",".join(repr(p) for p in self.params)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(size, self.params[0])
        if self.kind == "normal":
            return self.params[0] + self.params[1] * rng.standard_normal(size)
        if self.kind == "uniform":
            return rng.uniform(self.params[0], self.params[1], size)
        return rng.exponential(self.params[0], size)


@dataclass(frozen=True)
class CompoundPoissonParams:
    """Compound Poisson parameters: jump rate > 0 and a jump-size distribution."""

    rate: float
    jumps: JumpDistribution

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ParameterError(f"rate must be positive and finite, got {self.rate!r}")

    def block(self, scheme: SamplingScheme, seed: int, b: int) -> np.ndarray:
        """Increment block b of the series: Poisson jump counts, then the sum of each increment's jumps."""
        rng, m = _block_rng(seed, b), _block_size(scheme, b)
        counts = rng.poisson(self.rate * scheme.delta, size=m)
        if self.jumps.kind == "point":
            # Summing k copies of c is exactly k*c here; keeps increments exact multiples.
            return counts * self.jumps.params[0]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(m)
        sizes = self.jumps.sample(rng, total)
        owners = np.repeat(np.arange(m), counts)
        return np.bincount(owners, weights=sizes, minlength=m)

    def levy_density(self) -> TrueLevyDensity:
        """rate * f, with f the density of the jump size; point jumps and a normal with sd 0 have none."""
        kind, p = self.jumps.kind, self.jumps.params
        if kind == "point" or (kind == "normal" and p[1] == 0.0):
            raise ParameterError(f"jumps {self.jumps.spec()} have no density, so the process has no Levy density")
        rate = self.rate
        if kind == "normal":
            def evaluate(x: np.ndarray) -> np.ndarray:
                z = (x - p[0]) / p[1]
                return rate * np.exp(-0.5 * z * z) / (p[1] * math.sqrt(2.0 * math.pi))
        elif kind == "uniform":
            def evaluate(x: np.ndarray) -> np.ndarray:
                return np.where((p[0] <= x) & (x <= p[1]), rate / (p[1] - p[0]), 0.0)
        else:
            def evaluate(x: np.ndarray) -> np.ndarray:
                return np.where(x > 0.0, rate * np.exp(-x / p[0]) / p[0], 0.0)
        return TrueLevyDensity("compound-poisson", {"rate": rate, "jumps": self.jumps.spec()}, evaluate)


# A process model: what simulate draws from and what a regime study runs on.
ProcessModel = VarianceGammaParams | CompoundPoissonParams


class IncrementSeries:
    """Increment data Y_1..Y_n together with the sampling scheme that produced them.

    The series is either materialized (one ndarray of length n) or streamed
    (block b served on demand by a block function: drawn by simulate, or
    read at its offset from a binary increments file by read_increments).
    A materialized series serves its BLOCK-sized chunks through a block
    function too, so every form yields the same chunks in the same order and
    any chunk-folding consumer produces bit-identical results on each.
    """

    def __init__(
        self,
        scheme: SamplingScheme,
        seed: int | None,
        values: np.ndarray | None = None,
        block_fn: Callable[[int], np.ndarray] | None = None,
    ) -> None:
        if (values is None) == (block_fn is None):
            raise ParameterError("exactly one of values/block_fn must be given")
        if values is not None:
            values = np.ascontiguousarray(values, dtype=float)
            if values.ndim != 1 or values.shape[0] != scheme.n:
                raise ParameterError(
                    f"values must be a 1-d array of length n={scheme.n}, got shape {values.shape}"
                )
        self.scheme = scheme
        self.seed = seed
        self._values = None
        self._block_fn = block_fn
        if values is not None:
            self._set_values(values)

    def _set_values(self, values: np.ndarray) -> None:
        self._values = values
        self._block_fn = lambda b: values[b * BLOCK : (b + 1) * BLOCK]

    @property
    def materialized(self) -> bool:
        return self._values is not None

    @property
    def values(self) -> np.ndarray:
        """Full increment array; materializes (and caches) a streamed series."""
        if self._values is None:
            n = self.scheme.n
            if n > MATERIALIZE_LIMIT:
                raise ResourceGuardError(
                    f"refusing to materialize {n} increments "
                    f"(limit {MATERIALIZE_LIMIT}); iterate chunks instead"
                )
            values = np.empty(n)
            for b, chunk in enumerate(self.iter_chunks()):
                values[b * BLOCK : (b + 1) * BLOCK] = chunk
            self._set_values(values)
        return self._values

    def __len__(self) -> int:
        return self.scheme.n

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield the series as BLOCK-sized chunks (last one shorter) in index order."""
        for b in range(self.scheme.num_blocks):
            yield self._block_fn(b)

    def map_blocks(
        self, fn: Callable[[np.ndarray], object], max_workers: int | None = None
    ) -> list:
        """[fn(chunk) for chunk in self.iter_chunks()], here or in at most max_workers forked workers.

        A series of several blocks is mapped by _pool_map's workers (by
        default one per CPU this process may run on): each worker generates
        or slices the blocks it is given and sends back only fn's results, so
        those must pickle; fn itself reaches the workers by fork and may be a
        closure.  Results are in block order either way, so reductions over
        the list are deterministic.
        """
        blocks = self.scheme.num_blocks
        cap = blocks if max_workers is None else min(blocks, max_workers)
        return _pool_map(cap, lambda block: fn(self._block_fn(block)), range(blocks))


def _io_workers() -> int:
    """The CPUs this process may run on, which is the worker count of one pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pool_map(cap: int, job: Callable, items) -> list:
    """[job(item) for item in items]: in at most `cap` forked workers, one per CPU, or here.

    Block generation and the block fold hold the GIL, so threads cannot
    share them.  Workers are forked: a pool of two starts in about 0.02 s on
    a 2-vCPU Xeon, against 0.7-1.0 s for spawn or forkserver, which also
    re-import __main__.  Fork also hands each worker `job` without pickling
    it, so a job may be a closure over this process's arrays; only the items
    and the results are pickled.  With one worker, no "fork" start method,
    or in a daemonic process (a multiprocessing.Pool worker, which may not
    have children) the builtin map runs here.  At most two items per worker are in flight, so what is
    held at once is bounded whatever the item count.  The pool is shut down
    and its workers joined on every exit, errors included.
    """
    workers = min(_io_workers(), cap)
    if workers > 1:
        # Imported here, so that importing the package does not pay about 8 ms for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_set_job, initargs=(job,))
            try:
                return list(_bounded_map(pool, 2 * workers, _run_job, items))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return list(map(job, items))


def _bounded_map(pool, bound: int, fn, items) -> Iterator:
    """fn over items in pool, results in item order; an item is submitted once taken, and at most `bound` are not yet yielded."""
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == bound:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


# The job of the _pool_map a forked worker serves; set only in workers.
_JOB = None


def _set_job(job: Callable) -> None:
    global _JOB
    _JOB = job


def _run_job(item):
    return _JOB(item)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Philox generator for one block, keyed on (seed, block index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _block_size(scheme: SamplingScheme, block: int) -> int:
    """The number of increments in block b: BLOCK, or fewer in the last block."""
    return min(scheme.n - block * BLOCK, BLOCK)


def simulate(model: ProcessModel, scheme: SamplingScheme, seed: int, materialize: bool = True) -> IncrementSeries:
    """Simulate the increments of a process model under the given scheme.

    With materialize=False the returned series generates blocks lazily and
    can be iterated repeatedly; the values are identical either way.  A seed
    that is not a non-negative integer raises ParameterError.
    """
    check_seed(seed)
    series = IncrementSeries(scheme, seed, block_fn=functools.partial(model.block, scheme, seed))
    if materialize:
        series.values  # generates and caches the blocks, or raises ResourceGuardError
    return series


# Plain aliases: the benchmark workloads in perfbench/ call simulate by these names.
simulate_vg = simulate_compound_poisson = simulate


# ---------------------------------------------------------------------------
# Increment files.  write_increments writes the binary format: one ASCII line
# holding the JSON object {"format": "levygibbs-increments", "version": 1,
# "delta": <number>, "n": <integer>, "seed": <integer or null>}, then exactly
# 8*n bytes of little-endian float64, a bit-for-bit round trip.  It writes a
# sibling temp file, each block at its own offset by the worker that drew it,
# and renames it over the path only once every block is written.  Text is the
# input format for data from outside: an optional header "# delta=<r> n=<d>
# seed=<d>", then one number per line.  A text file whose first line begins
# with '{' is not valid, so read_increments tells the formats apart by the
# first byte.  Either header is checked before any of the body is read.
# A binary body is read lazily: each block is read at its offset when it is
# folded (by the worker that folds it) or materialized, after a check that
# the file is the one whose header was read.
# A text file is read once, in this process, as ASCII with universal newlines
# (CRLF and a lone CR end a line too), in reads of READ_BATCH characters split
# into lines.  float() of each line is the one parse rule: a batch of lines is
# converted by one C-level np.fromiter over float(), and a batch holding a
# blank, '#' or bad line, or a value that is not finite, goes through the line
# loop, with line numbers carried on from the batches before it.  A line of
# LINE_BYTES characters or more, a value that is not finite, and a non-ASCII
# byte raise InputParseError; a file declaring, or holding, more than
# MATERIALIZE_LIMIT increments raises ResourceGuardError.
# ---------------------------------------------------------------------------

# Characters per read of the text reader.
READ_BATCH = 1 << 20
# The longest line read, its line end included: a binary file's header, or a line of a text file.
LINE_BYTES = 4096

# The first line of a binary increments file: these keys, this format name and version.
BINARY_KEYS = ("format", "version", "delta", "n", "seed")
BINARY_FORMAT, BINARY_VERSION = "levygibbs-increments", 1


def write_increments(path, series: IncrementSeries) -> None:
    """Write a series as a binary increments file: its JSON header line, then its values as little-endian float64.

    The file is first written as `<path>.<pid>.tmp` next to path (created
    anew, so the umask applies).  Each of _pool_map's workers draws, slices
    or reads the blocks it is given and writes each at its own offset; only
    block indices cross the pipe.  Once every block is written the temp file
    is renamed over path, which replaces a symlink rather than writing
    through it.  On any error the temp file is removed and path keeps what
    it held before.
    """
    scheme = series.scheme
    seed = None if series.seed is None else int(series.seed)
    header = {"format": BINARY_FORMAT, "version": BINARY_VERSION, "delta": float(scheme.delta), "n": int(scheme.n),
              "seed": seed}
    line = json.dumps(header).encode("ascii") + b"\n"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)

    def write_block(b: int) -> None:
        m = _block_size(scheme, b)
        block = np.ascontiguousarray(series._block_fn(b), dtype="<f8")
        if block.shape != (m,):
            raise ParameterError(f"block {b} holds {block.size} values, expected {m}")
        _pwrite(fd, block, len(line) + 8 * b * BLOCK)

    try:
        try:
            _pwrite(fd, line, 0)
            _pool_map(scheme.num_blocks, write_block, range(scheme.num_blocks))
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _pwrite(fd: int, data, offset: int) -> None:
    """All of data's bytes written to fd at offset, whatever each os.pwrite call takes."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def read_increments(path, delta: float | None = None) -> IncrementSeries:
    """Read a binary increments file written by :func:`write_increments`, or a text file of one float per line.

    A header (the binary file's JSON line, or a text file's optional '#'
    line) supplies delta/n/seed, and a header delta takes precedence over
    the delta argument.  A text file without a header needs the delta
    argument (the file is refused before its body is read) and n is the
    count of its increment lines.  A delta argument or header delta that is
    not positive and finite raises ParameterError or InputParseError before
    the body is read.  Malformed content raises :class:`InputParseError`
    naming the file (and the offending line of a text file); more than
    MATERIALIZE_LIMIT increments, declared or found, raise ResourceGuardError.

    A text file is read here and its series is materialized.  A binary file
    is read up to its header and its body size is checked; the series reads
    each block of the body when it is folded or materialized, so its errors
    come then: InputParseError naming the file if it changed since this call
    or a value is not finite (with its 1-based increment index).
    """
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise ParameterError(f"delta must be positive and finite, got {delta!r}")
    with open(path, "rb") as fh:
        line = fh.readline(LINE_BYTES)
        if line.startswith(b"{"):
            if not line.endswith(b"\n"):
                raise InputParseError(f"{path}: line 1: header has no line end in its first {LINE_BYTES} bytes")
            return _read_binary(path, line, os.fstat(fh.fileno()))
    header_n, header_seed, first_lineno = None, None, 1
    with open_ascii(path) as fh:
        batches = _line_batches(path, fh)
        lines = next(batches, [""])  # an empty file reads as one blank line
        text = lines[0].strip()
        if text.startswith("#"):
            delta, header_n, header_seed = _parse_header(path, text)
            _check_limit(path, header_n)
            lines, first_lineno = lines[1:], 2
        elif delta is None:
            raise InputParseError(f"{path}: no header and no delta supplied; sampling spacing unknown")
        values, count = _read_body(path, itertools.chain([lines], batches), first_lineno, header_n)
    if header_n is not None and header_n != count:
        raise InputParseError(
            f"{path}: header declares n={header_n} but file has {count} increments"
        )
    if count == 0:
        raise InputParseError(f"{path}: no increments found")
    scheme = SamplingScheme(delta, count)
    return IncrementSeries(scheme, header_seed, values=values)


def _check_limit(path, n: int) -> None:
    """ResourceGuardError for a header that declares more than MATERIALIZE_LIMIT increments."""
    if n > MATERIALIZE_LIMIT:
        raise ResourceGuardError(
            f"{path}: header declares n={n} increments, above the materialization limit of {MATERIALIZE_LIMIT}"
        )


def _read_binary(path, line: bytes, stat: os.stat_result) -> IncrementSeries:
    """The streamed series of a binary file with status `stat` whose first line is `line`: header and size checks only."""
    delta, n, seed = _parse_binary_header(path, line)
    _check_limit(path, n)
    if stat.st_size - len(line) != 8 * n:
        raise InputParseError(f"{path}: body holds {stat.st_size - len(line)} bytes, expected {8 * n} (n={n} float64 values)")
    scheme = SamplingScheme(delta, n)
    identity = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    return IncrementSeries(scheme, seed, block_fn=functools.partial(_read_block, path, len(line), identity, scheme))


def _read_block(path, offset: int, identity: tuple, scheme: SamplingScheme, b: int) -> np.ndarray:
    """Block b of a binary file's body, which starts at offset; InputParseError naming the file if it changed or a value is not finite.

    The file must still have the (device, inode, size, mtime) `identity`
    it had when its header was read.
    """
    m = _block_size(scheme, b)
    out = np.empty(m, dtype="<f8")
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns) != identity:
                raise InputParseError(f"{path}: file changed since its header was read")
            fh.seek(offset + 8 * b * BLOCK)
            got = fh.readinto(out)
    except FileNotFoundError as exc:
        raise InputParseError(f"{path}: file removed since its header was read") from exc
    if got != 8 * m:
        raise InputParseError(f"{path}: short read of block {b}: {got} of {8 * m} bytes")
    finite = np.isfinite(out)
    if not finite.all():
        first = int(np.argmin(finite))
        raise InputParseError(f"{path}: increment {b * BLOCK + first + 1} is not finite: {float(out[first])!r}")
    return out


def _parse_binary_header(path, line: bytes) -> tuple[float, int, int | None]:
    """(delta, n, seed) of a binary file's JSON header line; InputParseError naming the file for a malformed one."""
    try:
        header = json.loads(decode_ascii(path, line))
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path}: line 1: header is not JSON: {exc.msg}") from exc
    if set(header) != set(BINARY_KEYS):
        raise InputParseError(
            f"{path}: line 1: header keys are {', '.join(sorted(header))}; expected {', '.join(BINARY_KEYS)}"
        )
    kind, version, delta, n, seed = (header[key] for key in BINARY_KEYS)
    # type() is int: a JSON integer, not a bool.
    if kind != BINARY_FORMAT or type(version) is not int or version != BINARY_VERSION:
        raise InputParseError(
            f"{path}: line 1: expected format {BINARY_FORMAT!r} version {BINARY_VERSION}, got {kind!r} version {version!r}"
        )
    if type(n) is not int or n < 1 or not (seed is None or type(seed) is int):
        raise InputParseError(f"{path}: line 1: header n must be a positive integer and seed an integer or null")
    if type(delta) not in (int, float) or not 0.0 < delta <= sys.float_info.max:
        raise InputParseError(f"{path}: line 1: header delta must be positive and finite, got {delta!r}")
    return float(delta), n, seed


def _read_body(path, batches, first_lineno: int, n: int | None) -> tuple[np.ndarray, int]:
    """(values, count): the count of values in the rest of a text file, given as batches of lines, and the values when count is n or n is None.

    Each batch is converted by one C-level np.fromiter over float(), which
    strips what str.strip() strips, so a batch it takes gives the line
    loop's values; a blank, '#' or bad line or a value that is not finite
    sends the batch to the line loop, which stops once the count passes
    MATERIALIZE_LIMIT.  With a header, values go into one array of size n.
    """
    out = None if n is None else np.empty(max(n, 0))
    parts, count, lineno = [], 0, first_lineno
    for batch in batches:
        try:
            values = np.fromiter(map(float, batch), float, len(batch))
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            values = _parse_lines(path, batch, lineno, MATERIALIZE_LIMIT + 1 - count)
        lineno += len(batch)
        if out is None:
            parts.append(values)
        elif count + len(values) <= len(out):
            out[count : count + len(values)] = values
        count += len(values)
        if count > MATERIALIZE_LIMIT:
            raise ResourceGuardError(
                f"{path}: more than {MATERIALIZE_LIMIT} increments, above the materialization limit"
            )
    if out is None:
        out = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0)])
    return out, count


def _line_batches(path, fh) -> Iterator[list[str]]:
    """The lines of text file fh, without their line ends, in lists of about READ_BATCH characters.

    The first read is of one line's worth, so a header is checked first.  A
    line of LINE_BYTES characters or more raises InputParseError in the read
    that reaches that length, so about one read is held at once.
    """
    lineno, carry, size = 1, "", min(LINE_BYTES, READ_BATCH)
    while chunk := fh.read(size):
        lines = chunk.split("\n")  # universal newlines: CR and CRLF are already "\n"
        lines[0] = carry + lines[0]
        if max(map(len, lines)) >= LINE_BYTES:
            long = next(i for i, line in enumerate(lines) if len(line) >= LINE_BYTES)
            raise InputParseError(f"{path}: line {lineno + long}: longer than {LINE_BYTES} characters")
        carry, size = lines.pop(), READ_BATCH
        if lines:
            yield lines
            lineno += len(lines)
    if carry:
        yield [carry]


def _parse_lines(path, lines, first_lineno: int, limit: int) -> np.ndarray:
    """float() of each stripped line, skipping blank and '#' lines; stops after `limit` values.

    This loop defines which files are valid; the C-level parse only speeds it up.
    """
    values: list[float] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise InputParseError(f"{path}: line {lineno}: not a number: {text!r}") from exc
        if not math.isfinite(value):
            raise InputParseError(f"{path}: line {lineno}: not a finite number: {text!r}")
        values.append(value)
        if len(values) == limit:
            break
    return np.asarray(values, dtype=float)


def _parse_header(path, text: str) -> tuple[float, int, int | None]:
    fields = {}
    for tok in text.lstrip("#").split():
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        delta = float(fields["delta"])
        n = int(fields["n"])
        seed = int(fields["seed"]) if fields.get("seed") else None
    except (KeyError, ValueError) as exc:
        raise InputParseError(f"{path}: line 1: malformed header: {text!r}") from exc
    if not (math.isfinite(delta) and delta > 0.0):
        raise InputParseError(f"{path}: line 1: header delta must be positive and finite, got {delta!r}")
    return delta, n, seed
