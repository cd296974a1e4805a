"""Orthonormal function systems on an estimation window.

A family is a subclass of `BasisSystem` that owns its size checks, its rows
(`_row_chunks`: consecutive C-ordered row blocks in k order), its row sums
over a set of points (`_row_sums`, the estimator's fold; by default the
pairwise sums of the `_row_chunks` rows), its `features`, the intervals on
which its functions are smooth (`segments`, where quadrature panels break) and
its descriptor fields.
Two families are implemented on a window [a, b]:

* `TrigonometricBasis` ("trigonometric", nested): f_1 = (b-a)^{-1/2}; for
  even k, f_k = sqrt(2/(b-a)) * cos(k*pi*(x-a)/(b-a)); for odd k > 1,
  f_k = sqrt(2/(b-a)) * sin((k-1)*pi*(x-a)/(b-a)).
* `PiecewiseLegendreBasis` ("piecewise-legendre", not nested): the window is
  split into L equal pieces of width h; on piece l the scaled Legendre
  polynomials sqrt((2j+1)/h) * Q_j(2(x - mid_l)/h), j = 0..J-1, vanish off
  the open piece.  Basis size is K = J*L, indexed piece-major: row
  (l-1)*J + j of evaluate_all (0-based) is degree j on piece l.

All evaluations return 0 exactly outside the window (and, for the piecewise
family, at piece boundaries).  Feature functionals F1 and F2 bound the
sup/derivative growth of the system and feed the sampling-spacing check.

Both families need numpy only.  Every trig value is one libm cos/sin call at
the angle (f*pi)*u, u = (x-a)/(b-a), rounded once (`_cos_sin`): the rows
f_2j, f_2j+1 are s*cos/sin(2 j pi u), one call per row and point.  Only the
fold (`_row_sums`) uses angle addition: it calls libm for a table of
cos/sin(2 r pi u), r < T (T = 12), and for each group's anchor pair
C_q, S_q = cos/sin(2 qT pi u), and with j = qT + r sums
sum_i f_2j = s*(sum_i C_q c_r - sum_i S_q s_r) and
sum_i f_2j+1 = s*(sum_i S_q c_r + sum_i C_q s_r), so each group's 2T sums are
one einsum of each anchor with the table and no row past the table is built
(2T + 2*floor(K/2T) cos/sin calls per point instead of K).  Its sums of rows
k < 2T are the sums of the rows bit for bit; the others agree with them to
rounding of the angle.  The Legendre rows come from one Legendre Vandermonde
matrix (`legvander`) per evaluation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss, legvander

from .errors import (
    DimensionError,
    IntegrationError,
    LevyGibbsError,
    ParameterError,
    WindowError,
)
from .util import check_budget, check_count, check_real

MAX_TRIG_K = 512
MAX_LEGENDRE_J = 5
MAX_LEGENDRE_L = 64

# T: the trig fold sums rows by angle addition from one libm table of cos/sin(2 r pi u), r < T.
_TRIG_TABLE = 12

# Fixed default node count: satisfies the 4K floor for every legal basis size,
# and a K-independent rule keeps trig projections nested across K.
DEFAULT_QUAD_NODES = 2048

# Largest absolute quadrature-error estimate project_density accepts per coefficient.
PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class Window:
    """Closed interval [a, b] with a < b; an endpoint check_real refuses raises WindowError."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, check_real(getattr(self, name), "window endpoints", error=WindowError))
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
        """Uniform grid of `grid_points` points from a to b; ParameterError unless an integer >= 2, ResourceGuardError (check_budget)."""
        grid_points = check_budget(check_count(grid_points, "grid_points", lo=2), "grid_points")
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

    def check_rows(self, points: int) -> None:
        """ResourceGuardError, before anything is allocated, when the K rows at `points` points exceed the budget (check_budget)."""
        check_budget(self.K * points, f"basis values (K={self.K}, points={points})")

    def evaluate_all(self, x) -> np.ndarray:
        """Matrix of basis values, shape (K, len(x)): row k-1 is f_k; DimensionError unless x is 0-d or 1-d, and check_rows guards the size."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim > 1:
            raise DimensionError(f"basis points must be a scalar or 1-d, got shape {arr.shape}")
        arr = np.atleast_1d(arr)
        self.check_rows(len(arr))
        out, lo = np.empty((self.K, len(arr))), 0
        for rows in self._row_chunks(arr):
            out[lo : lo + len(rows)] = rows
            lo += len(rows)
        return out

    def _row_sums(self, x: np.ndarray) -> np.ndarray:
        """sum_i f_k(x_i) for k = 1..K: each row of each _row_chunks block summed pairwise, as evaluate_all(x).sum(axis=1)."""
        return np.concatenate([rows.sum(axis=1) for rows in self._row_chunks(x)])

    def descriptor(self) -> dict:
        return {"family": self.family, "a": self.window.a, "b": self.window.b, "K": self.K}

    @classmethod
    def from_descriptor(cls, d: dict) -> "BasisSystem":
        """The basis a descriptor() names; ParameterError for a malformed one or an unknown family."""
        with _parsing("basis descriptor"):
            window = Window(check_real(d["a"], "basis window a"), check_real(d["b"], "basis window b"))
            family, K = d["family"], check_count(d["K"], "basis descriptor K")
            if family == "trigonometric":
                basis = cls.trigonometric(window, K)
            elif family == "piecewise-legendre":
                basis = cls.piecewise_legendre(window, d["J"], d["L"])
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
        super().__init__(window, check_count(K, "trigonometric K", hi=MAX_TRIG_K))

    @staticmethod
    def _cos_sin(u: np.ndarray, freq: int) -> tuple[np.ndarray, np.ndarray]:
        """The libm pair cos/sin(freq pi u), the angle rounded once as (freq*pi)*u: every trig row, table row and anchor."""
        angle = np.multiply(freq * math.pi, u)
        return np.cos(angle), np.sin(angle, out=angle)

    def _unit(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The on-window mask and u = (x - a)/(b - a) there, 0 off the window."""
        inside = (x >= self.window.a) & (x <= self.window.b)
        return inside, np.where(inside, (x - self.window.a) / self.window.length, 0.0)

    def _table(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and the fold's table, 0 off the window: rows r and t + r are cos/sin(2 r pi u), r < t = min(T, K//2 + 1)."""
        inside, u = self._unit(x)
        t = min(_TRIG_TABLE, self.K // 2 + 1)
        table = np.empty((2 * t, len(x)))
        for r in range(t):
            table[r], table[t + r] = self._cos_sin(u, 2 * r)
        table[:, ~inside] = 0.0
        return u, table

    def _row_chunks(self, x: np.ndarray):
        """f_1, then each pair f_2j, f_2j+1 = s*cos/sin(2 j pi u) (f_K alone for even K); every row is 0 off the window."""
        inside, u = self._unit(x)
        yield np.where(inside, 1.0 / math.sqrt(self.window.length), 0.0)[None]
        s = np.where(inside, math.sqrt(2.0 / self.window.length), 0.0)
        for j in range(1, self.K // 2 + 1):
            yield np.multiply(self._cos_sin(u, 2 * j), s)[: self.K + 1 - 2 * j]

    def _row_sums(self, x: np.ndarray) -> np.ndarray:
        """sum_i f_k(x_i) for k = 1..K, building no row past the table.

        Rows k < 2T are table rows scaled by s (f_1: the constant) and summed
        pairwise, as evaluate_all(x).sum(axis=1) sums them.  Group q >= 1 sums
        by angle addition, sum_i f_2j = s*(sum_i C_q c_r - sum_i S_q s_r) and
        sum_i f_2j+1 = s*(sum_i S_q c_r + sum_i C_q s_r) with j = qT + r: each
        anchor is reduced against the whole table by einsum, which never calls
        BLAS, so the bits depend on no BLAS thread count or kernel.
        """
        u, table = self._table(x)
        t, T = len(table) // 2, _TRIG_TABLE
        s = math.sqrt(2.0 / self.window.length)
        out, buf = np.empty(self.K + 1), np.empty(len(x))  # out[k] is the sum of f_k; out[0] is unused
        for k in range(1, min(2 * T, self.K + 1)):
            if k == 1:
                np.multiply(table[0], 1.0 / math.sqrt(self.window.length), out=buf)
            else:
                np.multiply(table[k % 2 * t + k // 2], s, out=buf)  # cos row k/2 for even k, sin row (k-1)/2 for odd
            out[k] = buf.sum()
        for k0 in range(2 * T, self.K + 1, 2 * T):
            pc, ps = (np.einsum("m,rm->r", anchor, table) for anchor in self._cos_sin(u, k0))
            group = out[k0 : k0 + 2 * T]
            group[0::2] = (s * (pc[:T] - ps[T:]))[: (len(group) + 1) // 2]
            group[1::2] = (s * (ps[:T] + pc[T:]))[: len(group) // 2]
        return out[1:]

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
        J, L = check_count(J, "J", hi=MAX_LEGENDRE_J), check_count(L, "L", hi=MAX_LEGENDRE_L)
        super().__init__(window, J * L)
        self.J, self.L = J, L
        self._h = window.length / L
        self._edges = window.a + self._h * np.arange(L + 1)
        self._edges[-1] = window.b

    def segments(self) -> list[tuple[float, float]]:
        return list(zip(self._edges[:-1], self._edges[1:]))

    def _row_chunks(self, x: np.ndarray):
        """Rows piece by piece (row j of piece l is the scaled Q_j there), from one legvander per evaluation."""
        edges, h = self._edges, self._h
        piece = np.floor((x - self.window.a) / h).astype(int)
        piece = np.clip(piece, 0, self.L - 1)
        # Open pieces: boundary points (including a and b) evaluate to 0.
        inside = (x > edges[piece]) & (x < edges[piece + 1])
        mid = (edges[piece] + edges[piece + 1]) / 2.0
        u = np.where(inside, 2.0 * (x - mid) / h, 0.0)
        scaled = np.ascontiguousarray((legvander(u, self.J - 1) * np.sqrt((2 * np.arange(self.J) + 1) / h)).T)
        for l in range(self.L):
            yield np.where(inside & (piece == l), scaled, 0.0)

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


@dataclass(frozen=True)
class BasisFeatures:
    """Growth functionals of a basis, used by the sampling-spacing diagnostic."""

    F1: float
    F2: float


def _legendre_variations(j: int) -> tuple[float, float]:
    """Total variations of Q_j and Q_j^2 on [-1, 1], between critical points (Q_j^2 also turns at Q_j's roots)."""
    q = Legendre.basis(j)
    crit = np.sort(np.concatenate([[-1.0, 1.0], np.real(q.deriv().roots())]))
    crit_sq = np.sort(np.concatenate([crit, np.real(q.roots())]))
    tv = np.sum(np.abs(np.diff(q(crit))))
    return float(tv), float(np.sum(np.abs(np.diff(q(crit_sq) ** 2))))


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
        if self.t_n is not None:
            self.t_n = check_real(self.t_n, "t_n", "> 0")

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
            values = np.array([check_real(v, "each coefficient value") for v in d["values"]])
            role = d.get("role", "generic")
        if not isinstance(role, str):
            raise ParameterError(f"role must be a string, got {role!r}")
        return cls(basis, values, role=role, t_n=d.get("t_n"))


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
    ParameterError unless quad_nodes is a positive integer; ResourceGuardError,
    before anything is allocated, above the budget (check_budget).
    """
    quad_nodes = check_budget(check_count(quad_nodes, "quad_nodes"), "quad_nodes")
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


def _floored_rule(basis: BasisSystem, quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """quadrature_rule for the Gram matrix and the projection, which need at least 4K nodes."""
    if quad_nodes < 4 * basis.K:
        raise ParameterError(f"quad_nodes={quad_nodes} below the 4K floor for K={basis.K}")
    return quadrature_rule(basis, quad_nodes)


def gram_matrix(basis: BasisSystem, quad_nodes: int = DEFAULT_QUAD_NODES) -> np.ndarray:
    """K x K matrix of pairwise inner products over the window (identity up to quadrature), by einsum, never BLAS."""
    x, w = _floored_rule(basis, quad_nodes)
    rows = basis.evaluate_all(x)
    return np.einsum("km,lm->kl", rows * w, rows)


def project_density(basis: BasisSystem, psi, quad_nodes: int = DEFAULT_QUAD_NODES) -> CoefficientVector:
    """Coefficients of psi against the basis: theta_k = int f_k(x) psi(x) dx over the window, by einsum (never BLAS).

    psi is any callable accepting an ndarray of window points.  Each
    coefficient carries an absolute quadrature-error estimate (coarse/fine
    rule comparison); if any estimate exceeds PROJECTION_TOL an IntegrationError
    asks for more nodes rather than returning silently degraded values.
    """

    def integrate(nodes: int) -> np.ndarray:
        x, w = _floored_rule(basis, nodes)
        vals = np.asarray(psi(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise IntegrationError("density is not finite everywhere on the window")
        return np.einsum("km,m->k", basis.evaluate_all(x), w * vals)

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
    """Evaluate sum_k theta_k f_k at x, added in k order by einsum (never BLAS); theta is a CoefficientVector or length-K array."""
    vec = _coefficient_values(theta)
    if len(vec) != basis.K:
        raise DimensionError(f"theta has shape {vec.shape}, basis expects length {basis.K}")
    arr = np.asarray(x, dtype=float)
    out = np.einsum("k,kj->j", vec, basis.evaluate_all(arr.ravel()))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)
