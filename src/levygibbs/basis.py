"""Orthonormal function systems on an estimation window.

A family is a subclass of `BasisSystem` that owns its size checks, its rows
(`_eval_rows`), its `features`, the intervals on which its functions are
smooth (`segments`, where quadrature panels break) and its descriptor fields.
Two families are implemented on a window [a, b]:

* `TrigonometricBasis` ("trigonometric", nested): f_1 = (b-a)^{-1/2}; for
  even k, f_k = sqrt(2/(b-a)) * cos(k*pi*(x-a)/(b-a)); for odd k > 1,
  f_k = sqrt(2/(b-a)) * sin((k-1)*pi*(x-a)/(b-a)).
* `PiecewiseLegendreBasis` ("piecewise-legendre", not nested): the window is
  split into L equal pieces of width h; on piece l the scaled Legendre
  polynomials sqrt((2j+1)/h) * Q_j(2(x - mid_l)/h), j = 0..J-1, vanish off
  the open piece.  Basis size is K = J*L, indexed piece-major: within piece 1
  all degrees, then piece 2, and so on.

All evaluations return 0 exactly outside the window (and, for the piecewise
family, at piece boundaries).  Feature functionals F1 and F2 bound the
sup/derivative growth of the system and feed the sampling-spacing check.

scipy is imported only inside the function that needs it (`eval_legendre`
for the piecewise family), so importing the package, and the trig pipeline,
never load it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    BasisIndexError,
    DimensionError,
    IntegrationError,
    LevyGibbsError,
    ParameterError,
    ResourceGuardError,
    WindowError,
)
from .util import MATERIALIZE_LIMIT, is_integer

MAX_TRIG_K = 512
MAX_LEGENDRE_J = 5
MAX_LEGENDRE_L = 64

# Fixed default node count: satisfies the 4K floor for every legal basis size,
# and a K-independent rule keeps trig projections nested across K.
DEFAULT_QUAD_NODES = 2048

# Largest absolute quadrature-error estimate project_density accepts per coefficient.
PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class Window:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise WindowError(f"window endpoints must be finite, got [{self.a!r}, {self.b!r}]")
        if not self.a < self.b:
            raise WindowError(f"window requires a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, other: "Window") -> bool:
        return self.a <= other.a and other.b <= self.b

    def check_contains(self, D: "Window", name: str) -> None:
        """WindowError unless the reporting window D lies inside this window, called `name` in the message."""
        if not self.contains(D):
            raise WindowError(f"D=[{D.a}, {D.b}] must be contained in {name} [{self.a}, {self.b}]")

    def grid(self, grid_points: int) -> np.ndarray:
        """Uniform grid of `grid_points` points from a to b.

        ParameterError below two points; ResourceGuardError, before allocating, above MATERIALIZE_LIMIT.
        """
        if grid_points < 2:
            raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
        if grid_points > MATERIALIZE_LIMIT:
            raise ResourceGuardError(
                f"grid_points={grid_points} is above the materialization limit of {MATERIALIZE_LIMIT}"
            )
        return np.linspace(self.a, self.b, grid_points)


class BasisSystem:
    """Orthonormal basis of size K on a window; each family is a subclass (see module docstring)."""

    family: str
    nested = False

    def __init__(self, window: Window, K: int):
        self.window = window
        self.K = K

    @classmethod
    def trigonometric(cls, window: Window, K: int) -> "TrigonometricBasis":
        return TrigonometricBasis(window, K)

    @classmethod
    def piecewise_legendre(cls, window: Window, J: int, L: int) -> "PiecewiseLegendreBasis":
        return PiecewiseLegendreBasis(window, J, L)

    def segments(self) -> list[tuple[float, float]]:
        """Intervals on which every basis function is smooth."""
        return [(self.window.a, self.window.b)]

    def _check_k(self, k) -> int:
        if not (isinstance(k, (int, np.integer)) and 1 <= k <= self.K):
            raise BasisIndexError(f"basis index k={k!r} outside 1..{self.K}")
        return int(k)

    def eval(self, k, x):
        """Evaluate f_k at x (scalar or array); k may be (j, l) for the piecewise family."""
        k = self._check_k(k)
        arr = np.asarray(x, dtype=float)
        out = self._eval_rows(np.array([k]), arr.ravel())[0].reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    def evaluate_all(self, x) -> np.ndarray:
        """Matrix of basis values, shape (K, len(x))."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        return self._eval_rows(np.arange(1, self.K + 1), arr)

    def descriptor(self) -> dict:
        return {"family": self.family, "a": self.window.a, "b": self.window.b, "K": self.K}

    @classmethod
    def from_descriptor(cls, d: dict) -> "BasisSystem":
        """The basis a descriptor() names; ParameterError for a malformed one or an unknown family."""
        with _parsing("basis descriptor"):
            window = Window(_number(d["a"], "basis window a"), _number(d["b"], "basis window b"))
            family, K = d["family"], _size(d, "K")
            if family == "trigonometric":
                basis = cls.trigonometric(window, K)
            elif family == "piecewise-legendre":
                basis = cls.piecewise_legendre(window, _size(d, "J"), _size(d, "L"))
            else:
                raise ParameterError(f"unknown basis family {family!r}")
        if basis.K != K:
            raise ParameterError(f"descriptor K={K} inconsistent with J*L={basis.K}")
        return basis

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisSystem) and self.descriptor() == other.descriptor()

    def __repr__(self) -> str:
        return f"BasisSystem({self.descriptor()!r})"


class TrigonometricBasis(BasisSystem):
    """The nested trigonometric system f_1..f_K."""

    family = "trigonometric"
    nested = True

    def __init__(self, window: Window, K: int):
        if not 1 <= K <= MAX_TRIG_K:
            raise ParameterError(f"trigonometric K must be in 1..{MAX_TRIG_K}, got {K}")
        super().__init__(window, K)

    def _eval_rows(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        a, width = self.window.a, self.window.length
        inside = (x >= a) & (x <= self.window.b)
        u = np.where(inside, (x - a) / width, 0.0)
        s = math.sqrt(2.0 / width)
        out = np.empty((len(ks), len(x)))
        # cos row k and sin row k+1 share the angle fl(k*pi)*u: computed once.
        angle = np.empty_like(u)
        angle_freq = None
        for row, k in enumerate(ks):
            even = k % 2 == 0
            freq = k if even else k - 1
            if freq == 0:
                out[row] = 1.0 / math.sqrt(width)
                continue
            if freq != angle_freq:
                np.multiply(freq * math.pi, u, out=angle)
                angle_freq = freq
            (np.cos if even else np.sin)(angle, out=out[row])
            out[row] *= s
        out[:, ~inside] = 0.0
        return out

    def features(self) -> "BasisFeatures":
        """F1 = max_k (sup|f_k| + int|f_k'|), F2 = max_k (sup f_k^2 + 2 int|f_k f_k'|)."""
        width = self.window.length
        kstar = self.K - self.K % 2  # highest frequency: k for even k, k-1 for odd k
        f1, f2 = 1.0 / math.sqrt(width), 1.0 / width
        if kstar > 0:
            f1 = max(f1, math.sqrt(2.0 / width) * (1.0 + 2.0 * kstar))
            f2 = max(f2, (2.0 + 4.0 * kstar) / width)
        return BasisFeatures(f1, f2)


class PiecewiseLegendreBasis(BasisSystem):
    """J scaled Legendre polynomials on each of L equal pieces; K = J*L, not nested."""

    family = "piecewise-legendre"

    def __init__(self, window: Window, J: int, L: int):
        if not 1 <= J <= MAX_LEGENDRE_J:
            raise ParameterError(f"J must be in 1..{MAX_LEGENDRE_J}, got {J}")
        if not 1 <= L <= MAX_LEGENDRE_L:
            raise ParameterError(f"L must be in 1..{MAX_LEGENDRE_L}, got {L}")
        super().__init__(window, J * L)
        self.J, self.L = J, L
        self._h = window.length / L
        self._edges = window.a + self._h * np.arange(L + 1)
        self._edges[-1] = window.b

    def segments(self) -> list[tuple[float, float]]:
        return list(zip(self._edges[:-1], self._edges[1:]))

    def linear_index(self, j: int, l: int) -> int:
        """1-based linear index of degree j on piece l."""
        if not (0 <= j < self.J and 1 <= l <= self.L):
            raise BasisIndexError(f"(j={j}, l={l}) outside degrees 0..{self.J - 1}, pieces 1..{self.L}")
        return (l - 1) * self.J + j + 1

    def _check_k(self, k) -> int:
        return self.linear_index(*k) if isinstance(k, tuple) else super()._check_k(k)

    def _eval_rows(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        from scipy.special import eval_legendre

        edges, h = self._edges, self._h
        piece = np.floor((x - self.window.a) / h).astype(int)
        piece = np.clip(piece, 0, self.L - 1)
        # Open pieces: boundary points (including a and b) evaluate to 0.
        inside = (x > edges[piece]) & (x < edges[piece + 1])
        mid = (edges[piece] + edges[piece + 1]) / 2.0
        u = np.where(inside, 2.0 * (x - mid) / h, 0.0)
        out = np.zeros((len(ks), len(x)))
        for row, k in enumerate(ks):
            j = (k - 1) % self.J
            l = (k - 1) // self.J + 1
            mask = inside & (piece == l - 1)
            scale = math.sqrt((2 * j + 1) / h)
            out[row] = np.where(mask, scale * eval_legendre(j, u), 0.0)
        return out

    def features(self) -> "BasisFeatures":
        """F1 = max_k (sup|f_k| + int|f_k'|), F2 = max_k (sup f_k^2 + 2 int|f_k f_k'|), on each piece."""
        h = self._h
        f1 = f2 = 0.0
        for j in range(self.J):
            scale = math.sqrt((2 * j + 1) / h)
            tv, sq_tv = _legendre_variations(j)
            f1 = max(f1, scale * (1.0 + tv))
            f2 = max(f2, scale**2 * (1.0 + sq_tv))
        return BasisFeatures(f1, f2)

    def descriptor(self) -> dict:
        return super().descriptor() | {"J": self.J, "L": self.L}


@contextmanager
def _parsing(what: str):
    """Re-raise a missing key or a value of the wrong type inside the block as ParameterError."""
    try:
        yield
    except KeyError as exc:
        raise ParameterError(f"{what} missing field {exc}") from exc
    except LevyGibbsError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed {what}: {exc}") from exc


def _size(d: dict, key: str) -> int:
    """The integer field `key` of a descriptor; a bool, a float or a string raises ParameterError."""
    value = d[key]
    if not is_integer(value):
        raise ParameterError(f"malformed basis descriptor: {key} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A finite JSON number as a float; a bool, a string, nan, inf or any other value raises ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParameterError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class BasisFeatures:
    """Growth functionals of a basis, used by the sampling-spacing diagnostic."""

    F1: float
    F2: float


def _legendre_variations(j: int) -> tuple[float, float]:
    """Total variations of Q_j and Q_j^2 on [-1, 1], between critical points (Q_j^2 also turns at Q_j's roots)."""
    from scipy.special import eval_legendre

    q = np.polynomial.legendre.Legendre.basis(j)
    crit = np.sort(np.concatenate([[-1.0, 1.0], np.real(q.deriv().roots())]))
    crit_sq = np.sort(np.concatenate([crit, np.real(q.roots())]))
    tv = np.sum(np.abs(np.diff(eval_legendre(j, crit))))
    return float(tv), float(np.sum(np.abs(np.diff(eval_legendre(j, crit_sq) ** 2))))


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


@dataclass
class CoefficientVector:
    """Length-K coefficient vector tied to a basis.

    `role` records how the vector arose ("empirical", "projected", "draw", "generic");
    `t_n` carries the observation horizon for empirical vectors; `quad_error`
    carries per-coefficient quadrature error estimates for projected ones.
    """

    basis: BasisSystem
    values: np.ndarray
    role: str = "generic"
    t_n: float | None = None
    quad_error: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) != self.basis.K:
            raise DimensionError(
                f"coefficient vector has length {self.values.shape}, basis expects {self.basis.K}"
            )

    def __len__(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        d = {"basis": self.basis.descriptor(), "role": self.role, "values": [float(v) for v in self.values]}
        if self.t_n is not None:
            d["t_n"] = self.t_n
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientVector":
        """The vector a to_dict() record holds; ParameterError or DimensionError for a malformed record."""
        with _parsing("coefficient record"):
            basis = BasisSystem.from_descriptor(d["basis"])
            values = np.array([_number(v, "each coefficient value") for v in d["values"]])
            t_n = d.get("t_n")
            if t_n is not None and not _number(t_n, "t_n") > 0:
                raise ParameterError(f"t_n must be a positive finite number, got {t_n!r}")
            role = d.get("role", "generic")
        if not isinstance(role, str):
            raise ParameterError(f"role must be a string, got {role!r}")
        return cls(basis, values, role=role, t_n=t_n)


# ---------------------------------------------------------------------------
# Quadrature, Gram matrix, projection, synthesis
# ---------------------------------------------------------------------------

_PANEL = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL)


def quadrature_rule(basis: BasisSystem, quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the basis window with >= quad_nodes nodes.

    Panels never straddle piece boundaries of a piecewise basis, so basis
    rows are smooth on every panel and the rule converges at spectral rate.
    The node set depends only on the basis segments and quad_nodes, never on K.
    """
    if quad_nodes < 1:
        raise ParameterError(f"quad_nodes must be >= 1, got {quad_nodes}")
    segments = basis.segments()
    per_segment = -(-quad_nodes // len(segments))
    panels_per_segment = -(-per_segment // _PANEL)
    xs, ws = [], []
    for lo, hi in segments:
        bounds = np.linspace(lo, hi, panels_per_segment + 1)
        for plo, phi in zip(bounds[:-1], bounds[1:]):
            half = (phi - plo) / 2.0
            xs.append((plo + phi) / 2.0 + half * _GL_NODES)
            ws.append(half * _GL_WEIGHTS)
    return np.concatenate(xs), np.concatenate(ws)


def gram_matrix(basis: BasisSystem, quad_nodes: int = DEFAULT_QUAD_NODES) -> np.ndarray:
    """K x K matrix of pairwise inner products over the window (identity up to quadrature)."""
    if quad_nodes < 4 * basis.K:
        raise ParameterError(f"quad_nodes={quad_nodes} below the 4K floor for K={basis.K}")
    x, w = quadrature_rule(basis, quad_nodes)
    rows = basis.evaluate_all(x)
    return (rows * w) @ rows.T


def project_density(basis: BasisSystem, psi, quad_nodes: int = DEFAULT_QUAD_NODES) -> CoefficientVector:
    """Coefficients of psi against the basis: theta_k = int f_k(x) psi(x) dx over the window.

    psi is any callable accepting an ndarray of window points.  Each
    coefficient carries an absolute quadrature-error estimate (coarse/fine
    rule comparison); if any estimate exceeds PROJECTION_TOL an IntegrationError
    asks for more nodes rather than returning silently degraded values.
    """
    if quad_nodes < 4 * basis.K:
        raise ParameterError(f"quad_nodes={quad_nodes} below the 4K floor for K={basis.K}")

    def integrate(nodes: int) -> np.ndarray:
        x, w = quadrature_rule(basis, nodes)
        vals = np.asarray(psi(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise IntegrationError("density is not finite everywhere on the window")
        return basis.evaluate_all(x) @ (w * vals)

    fine = integrate(quad_nodes)
    coarse = integrate(max(quad_nodes // 2, 4 * basis.K))
    err = np.abs(fine - coarse)
    if np.max(err) > PROJECTION_TOL:
        raise IntegrationError(
            f"quadrature error estimate {np.max(err):.3e} exceeds {PROJECTION_TOL:.1e}; "
            f"increase quad_nodes (got {quad_nodes})"
        )
    return CoefficientVector(basis, fine, role="projected", quad_error=err)


def _coefficient_values(theta) -> np.ndarray:
    """The 1-d float values of a CoefficientVector or of an array-like; DimensionError otherwise."""
    vec = theta.values if isinstance(theta, CoefficientVector) else np.asarray(theta, dtype=float)
    if vec.ndim != 1:
        raise DimensionError(f"coefficient vector must be 1-d, got shape {vec.shape}")
    return vec


def synthesize(basis: BasisSystem, theta, x):
    """Evaluate sum_k theta_k f_k at x; theta is a CoefficientVector or length-K array."""
    vec = _coefficient_values(theta)
    if len(vec) != basis.K:
        raise DimensionError(f"theta has shape {vec.shape}, basis expects length {basis.K}")
    arr = np.asarray(x, dtype=float)
    out = vec @ basis.evaluate_all(arr.ravel())
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)
