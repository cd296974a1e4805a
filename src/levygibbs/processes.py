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
simulate(model, scheme, seed) serves those blocks as a series,
model.levy_density() is the true Levy density, and model.spec() is the text
form ('vg:mu,sigma,nu' or 'cpois:rate,kind:p1[,p2]') that parse_process
reads back.  Callers hold a model and need not know its family.

Generation is counter based: increment block b (a fixed span of 2**20
indices) is produced by a Philox generator keyed on (seed, b).  The stream
is therefore reproducible increment-by-increment, independent of how many
blocks are materialized at once, and safe to generate in parallel.

Forked workers (_pool_map) only draw, read, mask and write increments, for
IncrementSeries.in_window and write_increments; basis and posterior loops
run on threads (_fan_out).  Each worker does its own file I/O: it reads the
blocks of a binary increments file that it masks and writes each block it
draws at its offset, so no block crosses a pipe and the whole body is never
held in this process.  A text increments file is read here, in one pass.
"""

from __future__ import annotations

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
from .util import MATERIALIZE_LIMIT, check_budget, check_count, check_real, check_seed, decode_ascii, fmt_float, open_ascii

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
        object.__setattr__(self, "n", check_count(self.n, "n"))
        object.__setattr__(self, "delta", check_real(self.delta, "delta", "> 0"))
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
        for name, within in (("mu", "finite"), ("sigma", ">= 0"), ("nu", "> 0")):
            object.__setattr__(self, name, check_real(getattr(self, name), name, within))

    def spec(self) -> str:
        return "vg:" + ",".join(map(fmt_float, (self.mu, self.sigma, self.nu)))

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
    "uniform" (lo, hi), "exponential" (mean).  spec() is the string form
    "kind:p1[,p2]", e.g. "normal:0.0,1.0", that a "cpois:" process spec ends in.
    """

    kind: str
    params: tuple[float, ...]

    _ARITY = {"point": 1, "normal": 2, "uniform": 2, "exponential": 1}

    def __post_init__(self) -> None:
        if self.kind not in self._ARITY:
            raise ParameterError(
                f"unknown jump distribution {self.kind!r}; expected one of {sorted(self._ARITY)}"
            )
        if not isinstance(self.params, (tuple, list)) or len(self.params) != self._ARITY[self.kind]:
            raise ParameterError(
                f"jump distribution {self.kind!r} takes {self._ARITY[self.kind]} "
                f"parameter(s), got {self.params!r}"
            )
        object.__setattr__(self, "params", tuple(check_real(p, f"{self.kind} jump parameter") for p in self.params))
        if self.kind == "normal" and self.params[1] < 0.0:
            raise ParameterError(f"normal jump sd must be >= 0, got {self.params[1]!r}")
        if self.kind == "uniform" and self.params[0] >= self.params[1]:
            raise ParameterError(f"uniform jump bounds must satisfy lo < hi, got {self.params!r}")
        if self.kind == "exponential" and self.params[0] <= 0.0:
            raise ParameterError(f"exponential jump mean must be > 0, got {self.params[0]!r}")

    @classmethod
    def point(cls, c: float) -> "JumpDistribution":
        return cls("point", (c,))

    @classmethod
    def normal(cls, mean: float, sd: float) -> "JumpDistribution":
        return cls("normal", (mean, sd))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "JumpDistribution":
        return cls("uniform", (lo, hi))

    @classmethod
    def exponential(cls, mean: float) -> "JumpDistribution":
        return cls("exponential", (mean,))

    def spec(self) -> str:
        return self.kind + ":" + ",".join(map(fmt_float, self.params))

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
        object.__setattr__(self, "rate", check_real(self.rate, "rate", "> 0"))
        if not isinstance(self.jumps, JumpDistribution):
            raise ParameterError(f"jumps must be a JumpDistribution, got {self.jumps!r}")

    def spec(self) -> str:
        return f"cpois:{fmt_float(self.rate)},{self.jumps.spec()}"

    def block(self, scheme: SamplingScheme, seed: int, b: int) -> np.ndarray:
        """Increment block b of the series: Poisson jump counts, then the sum of each increment's jumps.

        ResourceGuardError when the block expects, or draws, more jumps than the budget (check_budget).
        """
        rng, m = _block_rng(seed, b), _block_size(scheme, b)
        lam = self.rate * scheme.delta
        check_budget(lam * m, f"block {b} expects jumps")
        counts = rng.poisson(lam, size=m)
        if self.jumps.kind == "point":
            # Summing k copies of c is exactly k*c here; keeps increments exact multiples.
            return counts * self.jumps.params[0]
        total = check_budget(int(counts.sum()), f"block {b} drew jumps")
        sizes = self.jumps.sample(rng, total)
        owners = np.repeat(np.arange(m), counts)
        # bincount of no owners gives int64 zeros, whatever the weights.
        return np.bincount(owners, weights=sizes, minlength=m).astype(float, copy=False)

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


# A process model: what simulate draws and a regime study runs on; parse_process reads back its spec().
ProcessModel = VarianceGammaParams | CompoundPoissonParams
PROCESS_FORMS = {"vg": "vg:mu,sigma,nu", "cpois": "cpois:rate,kind:p1[,p2]"}


def parse_process(text: str) -> ProcessModel:
    """The model of a spec; InputParseError for a malformed spec or parameters the model refuses."""
    family, _, rest = text.partition(":")
    if family not in PROCESS_FORMS:
        raise InputParseError(f"unknown process {text!r}; expected {' or '.join(map(repr, PROCESS_FORMS.values()))}")
    try:
        if family == "vg":
            mu, sigma, nu = map(float, rest.split(","))
            return VarianceGammaParams(mu, sigma, nu)
        rate, _, jumps = rest.partition(",")
        kind, _, params = jumps.partition(":")
        return CompoundPoissonParams(float(rate), JumpDistribution(kind, tuple(map(float, params.split(",")))))
    except ParameterError as exc:  # a ValueError too, so caught first
        raise InputParseError(f"{text!r}: {exc}") from exc
    except ValueError as exc:
        raise InputParseError(f"expected {PROCESS_FORMS[family]!r}, got {text!r}") from exc


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
        self.scheme = scheme
        self.seed = seed
        self._values = None
        self._block_fn = block_fn
        if values is not None:
            values = np.ascontiguousarray(values, dtype=float)
            if values.ndim != 1 or values.shape[0] != scheme.n:
                raise ParameterError(
                    f"values must be a 1-d array of length n={scheme.n}, got shape {values.shape}"
                )
            if not np.isfinite(values).all():
                first = int(np.argmin(np.isfinite(values)))
                raise ParameterError(f"values must be finite, got {float(values[first])!r} at increment {first + 1}")
            self._set_values(values)

    def _set_values(self, values: np.ndarray) -> None:
        self._values = values
        self._block_fn = lambda b: values[b * BLOCK : (b + 1) * BLOCK]

    @property
    def materialized(self) -> bool:
        return self._values is not None

    @property
    def values(self) -> np.ndarray:
        """Full increment array; materializes (and caches) a streamed series, within the budget (check_budget)."""
        if self._values is None:
            values = np.empty(check_budget(self.scheme.n, "increments"))
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

    def in_window(self, a: float, b: float, max_workers: int | None = None) -> list[np.ndarray]:
        """The values in [a, b] of each block, in block order, each block drawn, sliced or read and masked in one job.

        _pool_map runs the jobs in at most max_workers forked workers (default
        one per CPU), so only in-window values cross a pipe.  max_workers,
        unless None, must be a positive integer (ParameterError otherwise).
        """
        if max_workers is not None:
            max_workers = check_count(max_workers, "max_workers")

        def mask(block: int) -> np.ndarray:
            chunk = self._block_fn(block)
            return chunk[(chunk >= a) & (chunk <= b)]

        return _pool_map(mask, self.scheme.num_blocks, max_workers)


def _io_workers() -> int:
    """The CPUs this process may run on, which is the worker count of one pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pool_map(job: Callable[[int], object], blocks: int, max_workers: int | None = None) -> list:
    """[job(b) for b in range(blocks)]: in at most one forked worker per CPU, per block and max_workers, or here.

    Block generation runs mostly without the GIL (numpy 2.4, 2-vCPU Xeon:
    four VG j=2 blocks take 0.30-0.45 s serially and 0.18-0.23 s on two
    threads).  Workers are processes all the same, because each block's tens
    of MB of temporaries then live and die in its worker, and only its
    in-window values, or nothing, come back.  Workers are forked: a pool of
    two starts in about 0.02 s on a 2-vCPU Xeon, against 0.7-1.0 s for spawn
    or forkserver, which also re-import __main__.  Fork also hands each
    worker `job` without pickling it, so a job may be a closure over this
    process's arrays; only block indices and results are pickled.  With one
    worker, no "fork" start method, or in any process multiprocessing
    started (a worker of any pool, this one's included) the blocks are
    mapped here.  The pool is shut down and its workers joined on every
    exit, errors included.
    """
    # Imported here, so that importing the package does not pay about 8 ms for them.
    import multiprocessing

    workers = min(_io_workers(), blocks, blocks if max_workers is None else max_workers)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.parent_process() is not None:
        return [job(b) for b in range(blocks)]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_set_job, initargs=(job,))
    try:
        return list(pool.map(_run_job, range(blocks)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# The job of the _pool_map a forked worker serves; set only in workers.
_JOB = None


def _set_job(job: Callable) -> None:
    global _JOB
    _JOB = job


def _run_job(b: int):
    return _JOB(b)


def _fan_out(job, items: int) -> None:
    """Run job(lo, hi) on each run lo..hi of range(items), cut into one run of consecutive items per thread.

    There are min(_io_workers(), items) threads, so one per CPU at most.  The
    calling thread runs the first run and a thread pool the others; with
    fewer than two threads, job(0, items) runs here alone.  Each job writes
    only its own slice of a shared output and returns nothing, so the cut
    changes no result's bits.  numpy runs the jobs' einsum and ufunc loops
    without the GIL.  An exception of any job is raised here.  Every pool
    thread has exited on return, so a later fork copies none.
    """
    workers = min(_io_workers(), items)
    if workers < 2:
        job(0, items)
        return
    # Imported here, so that importing the package does not load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    cuts = [items * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(job, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        job(cuts[0], cuts[1])
    for future in rest:
        future.result()


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
# "delta": <number>, "n": <integer>, "seed": <seed or null>}, then exactly
# 8*n bytes of little-endian float64, a bit-for-bit round trip.  It writes a
# sibling temp file, each block at its own offset by the worker that drew it,
# and renames it over the path only once every block is written.  Text is the
# input format for data from outside: an optional header "# delta=<r> n=<d>
# seed=<d>", then one number per line.  A text file whose first line begins
# with '{' is not valid, so read_increments tells the formats apart by the
# first byte.  Either header is checked before any of the body is read, and
# a seed in either is one that util.check_seed accepts.
# A binary body is read lazily: each block is read at its offset when it is
# masked (by the worker that masks it) or materialized, after a check that
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
    it held before.  A series seed that is not None or a non-negative
    integer raises ParameterError before the temp file is created.
    """
    scheme = series.scheme
    check_seed(0 if series.seed is None else series.seed)  # so that the header reads back
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
            _pool_map(write_block, scheme.num_blocks)
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
    count of its increment lines.  A delta argument that fails
    util.check_real's "> 0" rule, even when a header would supply delta,
    raises ParameterError, and a header delta that is not positive and
    finite raises InputParseError, both before the body is read.  Malformed
    content raises :class:`InputParseError` naming the file (and the
    offending line of a text file); more than MATERIALIZE_LIMIT increments,
    declared or found, raise ResourceGuardError.

    A text file is read here and its series is materialized.  A binary file
    is read up to its header and its body size is checked; the series reads
    each block of the body when it is folded or materialized, so its errors
    come then: InputParseError naming the file if it changed since this call
    or a value is not finite (with its 1-based increment index).
    """
    if delta is not None:
        delta = check_real(delta, "delta", "> 0")
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
            _check_header(path, header_n, header_seed)
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


def _check_header(path, n: int, seed: int | None) -> None:
    """InputParseError naming the file and line 1 for a header seed check_seed refuses; ResourceGuardError for n above MATERIALIZE_LIMIT."""
    try:
        check_seed(0 if seed is None else seed)
    except ParameterError as exc:
        raise InputParseError(f"{path}: line 1: header {exc}") from exc
    if n > MATERIALIZE_LIMIT:
        raise ResourceGuardError(
            f"{path}: header declares n={n} increments, above the materialization limit of {MATERIALIZE_LIMIT}"
        )


def _read_binary(path, line: bytes, stat: os.stat_result) -> IncrementSeries:
    """The streamed series of a binary file with status `stat` whose first line is `line`: header and size checks only."""
    delta, n, seed = _parse_binary_header(path, line)
    _check_header(path, n, seed)
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
    """(delta, n, seed) of a text header line, whose keys are delta, n and an optional seed, each at most once."""
    fields = {}
    for tok in text.lstrip("#").split():
        key, _, val = tok.partition("=")
        if key in fields or key not in ("delta", "n", "seed"):
            raise InputParseError(
                f"{path}: line 1: {'repeated' if key in fields else 'unknown'} header key {key!r}: {text!r}"
            )
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
