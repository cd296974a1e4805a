"""Projection estimator of the Levy density and its empirical risk.

The coefficient estimator is theta_hat_k = t_n^{-1} sum_i f_k(Y_i): increments
outside the basis window contribute exactly 0, so the sums run over in-window
increments only.  Block partial sums are combined with compensated (Kahan)
addition in fixed block order, which makes the result bit-identical whether
the series is materialized, streamed, or folded by forked workers.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSystem, CoefficientVector, Window, _coefficient_values, synthesize
from .errors import DimensionError, ParameterError
from .processes import IncrementSeries

# Points of the uniform grid on D on which densities are compared and drawn.
DEFAULT_GRID_POINTS = 512

# Basis rows evaluated at once in the fold, so no (K, in-window) matrix is
# held.  Each row is summed pairwise on its own, so the sums do not depend on it.
_FOLD_ROWS = 32


def empirical_coefficients(
    series: IncrementSeries,
    basis: BasisSystem,
    max_workers: int | None = None,
) -> CoefficientVector:
    """Estimate basis coefficients of the Levy density from increment data.

    Blocks are folded by IncrementSeries.map_blocks, in at most max_workers
    forked workers (default one per CPU); the result does not depend on it.
    """
    t_n = series.scheme.t_n
    if t_n <= 0.0:
        raise ParameterError(f"horizon must be positive, got t_n={t_n!r}")
    a, b = basis.window.a, basis.window.b
    ks = np.arange(1, basis.K + 1)

    def partial(chunk: np.ndarray) -> np.ndarray:
        y = chunk[(chunk >= a) & (chunk <= b)]
        out = np.zeros(basis.K)
        for lo in range(0, basis.K, _FOLD_ROWS):
            out[lo : lo + _FOLD_ROWS] = basis._eval_rows(ks[lo : lo + _FOLD_ROWS], y).sum(axis=1)
        return out

    total = np.zeros(basis.K)
    carry = np.zeros(basis.K)
    for part in series.map_blocks(partial, max_workers=max_workers):
        y = part - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return CoefficientVector(basis, total / t_n, role="empirical", t_n=t_n)


def empirical_risk(theta, theta_hat) -> float:
    """R_{n,K}(theta) = -2 <theta, theta_hat> + ||theta||^2, minimized at theta_hat.

    With the projected truth theta_perp in place of theta_hat this is the
    population risk.
    """
    t = _coefficient_values(theta)
    that = _coefficient_values(theta_hat)
    if len(that) != len(t):
        raise DimensionError(f"coefficient length {len(that)} does not match {len(t)}")
    return -2.0 * float(t @ that) + float(t @ t)


def l2_error_on_D(theta, reference, D: Window, grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """L2(D) distance between the synthesized estimate and a reference density.

    `theta` is a CoefficientVector; `reference` is either a callable (true
    density) or another CoefficientVector.  The distance is a trapezoid-rule
    integral on a uniform grid of `grid_points` points over D.
    """
    if not isinstance(theta, CoefficientVector):
        raise ParameterError("theta must be a CoefficientVector (basis required for synthesis)")
    theta.basis.window.check_contains(D, "the basis window")
    grid = D.grid(grid_points)
    est = synthesize(theta.basis, theta, grid)
    if isinstance(reference, CoefficientVector):
        ref = synthesize(reference.basis, reference, grid)
    else:
        ref = np.asarray(reference(grid), dtype=float)
    return float(np.sqrt(np.trapezoid((est - ref) ** 2, grid)))
