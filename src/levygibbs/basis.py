"""Orthonormal function systems on an estimation window.

Two families are implemented on a window [a, b]:

* "trigonometric" (nested): f_1 = (b-a)^{-1/2}; for even k,
  f_k = sqrt(2/(b-a)) * cos(k*pi*(x-a)/(b-a)); for odd k > 1,
  f_k = sqrt(2/(b-a)) * sin((k-1)*pi*(x-a)/(b-a)).
* "piecewise-legendre" (not nested): the window is split into L equal pieces
  of width h; on piece l the scaled Legendre polynomials
  sqrt((2j+1)/h) * Q_j(2(x - mid_l)/h), j = 0..J-1, vanish off the open
  piece.  Basis size is K = J*L, indexed piece-major: within piece 1 all
  degrees, then piece 2, and so on.

All evaluations return 0 exactly outside the window (and, for the piecewise
family, at piece boundaries).  Feature functionals F1 and F2 bound the
sup/derivative growth of the system and feed the sampling-spacing check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_legendre

from .errors import (
    BasisIndexError,
    DimensionError,
    IntegrationError,
    ParameterError,
    WindowError,
)

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

    def grid(self, grid_points: int) -> np.ndarray:
        """Uniform grid of `grid_points` points from a to b; ParameterError below two points."""
        if grid_points < 2:
            raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
        return np.linspace(self.a, self.b, grid_points)


class BasisSystem:
    """Orthonormal basis of size K on a window; see module docstring for families."""

    def __init__(self, family: str, window: Window, K: int, J: int | None = None, L: int | None = None):
        if family == "trigonometric":
            if not 1 <= K <= MAX_TRIG_K:
                raise ParameterError(f"trigonometric K must be in 1..{MAX_TRIG_K}, got {K}")
            if J is not None or L is not None:
                raise ParameterError("J/L apply only to the piecewise-legendre family")
        elif family == "piecewise-legendre":
            if J is None or L is None:
                raise ParameterError("piecewise-legendre requires J and L")
            if not 1 <= J <= MAX_LEGENDRE_J:
                raise ParameterError(f"J must be in 1..{MAX_LEGENDRE_J}, got {J}")
            if not 1 <= L <= MAX_LEGENDRE_L:
                raise ParameterError(f"L must be in 1..{MAX_LEGENDRE_L}, got {L}")
            if K != J * L:
                raise ParameterError(f"K must equal J*L = {J * L}, got {K}")
        else:
            raise ParameterError(f"unknown basis family {family!r}")
        self.family = family
        self.window = window
        self.K = K
        self.J = J
        self.L = L
        if family == "piecewise-legendre":
            h = window.length / L
            edges = window.a + h * np.arange(L + 1)
            edges[-1] = window.b
            self._edges = edges
            self._h = h

    @classmethod
    def trigonometric(cls, window: Window, K: int) -> "BasisSystem":
        return cls("trigonometric", window, K)

    @classmethod
    def piecewise_legendre(cls, window: Window, J: int, L: int) -> "BasisSystem":
        return cls("piecewise-legendre", window, J * L, J=J, L=L)

    @property
    def nested(self) -> bool:
        return self.family == "trigonometric"

    # -- indexing ----------------------------------------------------------

    def linear_index(self, j: int, l: int) -> int:
        """1-based linear index of degree j on piece l (piecewise family only)."""
        if self.family != "piecewise-legendre":
            raise ParameterError("degree/piece indexing applies only to piecewise-legendre")
        if not (0 <= j < self.J and 1 <= l <= self.L):
            raise BasisIndexError(f"(j={j}, l={l}) outside degrees 0..{self.J - 1}, pieces 1..{self.L}")
        return (l - 1) * self.J + j + 1

    def _check_k(self, k) -> int:
        if isinstance(k, tuple):
            return self.linear_index(*k)
        if not (isinstance(k, (int, np.integer)) and 1 <= k <= self.K):
            raise BasisIndexError(f"basis index k={k!r} outside 1..{self.K}")
        return int(k)

    # -- evaluation --------------------------------------------------------

    def eval(self, k, x):
        """Evaluate f_k at x (scalar or array); k may be (j, l) for the piecewise family."""
        k = self._check_k(k)
        arr = np.asarray(x, dtype=float)
        out = self._eval_rows(np.array([k]), arr.ravel())[0].reshape(arr.shape)
        if arr.ndim == 0:
            return float(out)
        return out

    def evaluate_all(self, x) -> np.ndarray:
        """Matrix of basis values, shape (K, len(x))."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        return self._eval_rows(np.arange(1, self.K + 1), arr)

    def _eval_rows(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self.family == "trigonometric":
            return self._trig_rows(ks, x)
        return self._legendre_rows(ks, x)

    def _trig_rows(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
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

    def _legendre_rows(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
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

    # -- features ----------------------------------------------------------

    def features(self) -> "BasisFeatures":
        """F1 = max_k (sup|f_k| + int|f_k'|), F2 = max_k (sup f_k^2 + 2 int|f_k f_k'|)."""
        if self.family == "trigonometric":
            width = self.window.length
            # Effective frequency index: k for even k, k-1 for odd k (0 for k=1).
            kstar = max((k if k % 2 == 0 else k - 1) for k in range(1, self.K + 1))
            s = math.sqrt(2.0 / width)
            f1 = 1.0 / math.sqrt(width)
            f2 = 1.0 / width
            if kstar > 0:
                f1 = max(f1, s * (1.0 + 2.0 * kstar))
                f2 = max(f2, (2.0 + 4.0 * kstar) / width)
            return BasisFeatures(f1, f2, self.K, self.family)
        h = self._h
        f1 = f2 = 0.0
        for j in range(self.J):
            scale = math.sqrt((2 * j + 1) / h)
            f1 = max(f1, scale * (1.0 + _legendre_tv(j)))
            f2 = max(f2, scale**2 * (1.0 + _legendre_sq_tv(j)))
        return BasisFeatures(f1, f2, self.K, self.family)

    # -- serialization -----------------------------------------------------

    def descriptor(self) -> dict:
        d = {"family": self.family, "a": self.window.a, "b": self.window.b, "K": self.K}
        if self.family == "piecewise-legendre":
            d["J"] = self.J
            d["L"] = self.L
        return d

    @classmethod
    def from_descriptor(cls, d: dict) -> "BasisSystem":
        try:
            window = Window(float(d["a"]), float(d["b"]))
            family = d["family"]
            if family == "piecewise-legendre":
                basis = cls.piecewise_legendre(window, int(d["J"]), int(d["L"]))
            else:
                basis = cls(family, window, int(d["K"]))
        except KeyError as exc:
            raise ParameterError(f"basis descriptor missing field {exc}") from exc
        if basis.K != int(d["K"]):
            raise ParameterError(f"descriptor K={d['K']} inconsistent with J*L={basis.K}")
        return basis

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisSystem) and self.descriptor() == other.descriptor()

    def __repr__(self) -> str:
        return f"BasisSystem({self.descriptor()!r})"


@dataclass(frozen=True)
class BasisFeatures:
    """Growth functionals of a basis, used by the sampling-spacing diagnostic."""

    F1: float
    F2: float
    K: int
    family: str


def _legendre_critical(j: int) -> np.ndarray:
    """Endpoints plus interior critical points of Q_j, sorted."""
    pts = [-1.0, 1.0]
    if j >= 2:
        deriv = np.polynomial.legendre.Legendre.basis(j).deriv()
        pts.extend(np.real(deriv.roots()).tolist())
    return np.sort(np.asarray(pts))


def _legendre_tv(j: int) -> float:
    """Total variation of Q_j on [-1, 1]."""
    if j == 0:
        return 0.0
    pts = _legendre_critical(j)
    vals = eval_legendre(j, pts)
    return float(np.sum(np.abs(np.diff(vals))))


def _legendre_sq_tv(j: int) -> float:
    """Total variation of Q_j^2 on [-1, 1]; critical points are roots of Q_j and Q_j'."""
    if j == 0:
        return 0.0
    roots = np.polynomial.legendre.Legendre.basis(j).roots()
    pts = np.sort(np.concatenate([_legendre_critical(j), np.real(roots)]))
    vals = eval_legendre(j, pts) ** 2
    return float(np.sum(np.abs(np.diff(vals))))


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
        try:
            basis = BasisSystem.from_descriptor(d["basis"])
            values = np.asarray(d["values"], dtype=float)
        except KeyError as exc:
            raise ParameterError(f"coefficient record missing field {exc}") from exc
        return cls(basis, values, role=d.get("role", "generic"), t_n=d.get("t_n"))


# ---------------------------------------------------------------------------
# Quadrature, Gram matrix, projection, synthesis
# ---------------------------------------------------------------------------

_PANEL = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL)


def quadrature_rule(basis: BasisSystem, quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the basis window with >= quad_nodes nodes.

    Panels never straddle piece boundaries of a piecewise basis, so basis
    rows are smooth on every panel and the rule converges at spectral rate.
    The node set depends only on (family, window, L, quad_nodes), never on K.
    """
    if quad_nodes < 1:
        raise ParameterError(f"quad_nodes must be >= 1, got {quad_nodes}")
    if basis.family == "piecewise-legendre":
        segments = list(zip(basis._edges[:-1], basis._edges[1:]))
    else:
        segments = [(basis.window.a, basis.window.b)]
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
