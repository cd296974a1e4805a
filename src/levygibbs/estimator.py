"""Projection estimator of the Levy density and its empirical risk.

The coefficient estimator is theta_hat_k = t_n^{-1} sum_i f_k(Y_i): increments
outside the basis window contribute exactly 0, so the sums run over in-window
increments only.  A block's partial sum is the basis's `_row_sums` of its
in-window points.  For the Legendre family, and for trig rows k <= 23, that is
evaluate_all(y).sum(axis=1) bit for bit, each row summed by numpy's pairwise
sum.  Trig rows k >= 24 are never built: each is a sum of products of its
24-row group's libm anchor pair with the table, reduced by einsum (never BLAS),
and agrees with the row sum to rounding of the angle.  Block partial sums are
combined with compensated (Kahan) addition in fixed block order, so the result
has the same bits for a materialized or streamed series, however many forked
workers mask its blocks (IncrementSeries.in_window) or threads sum them.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSystem, CoefficientVector, Window, _coefficient_values, synthesize
from .errors import DimensionError, ParameterError
from .processes import IncrementSeries, _fan_out
from .util import check_count

# Points of the uniform grid on D on which densities are compared and drawn.
DEFAULT_GRID_POINTS = 512


def empirical_coefficients(
    series: IncrementSeries,
    basis: BasisSystem,
    max_workers: int | None = None,
) -> CoefficientVector:
    """Estimate basis coefficients of the Levy density from increment data.

    IncrementSeries.in_window masks the blocks in at most max_workers forked
    workers (default one per CPU); here basis._row_sums sums each block's
    in-window values on _fan_out threads.  The result depends on neither count.
    """
    t_n = series.scheme.t_n
    blocks = series.in_window(basis.window.a, basis.window.b, max_workers)
    parts = np.empty((len(blocks), basis.K))

    def fold(lo: int, hi: int) -> None:
        parts[lo:hi] = [basis._row_sums(y) for y in blocks[lo:hi]]

    _fan_out(fold, len(blocks))
    total = np.zeros(basis.K)
    carry = np.zeros(basis.K)
    for part in parts:
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
    integral on a uniform grid of `grid_points` points over D, built after check_rows.
    """
    if not isinstance(theta, CoefficientVector):
        raise ParameterError("theta must be a CoefficientVector (basis required for synthesis)")
    theta.basis.window.check_contains(D, "the basis window")
    theta.basis.check_rows(check_count(grid_points, "grid_points", lo=2))
    grid = D.grid(grid_points)
    est = synthesize(theta.basis, theta, grid)
    if isinstance(reference, CoefficientVector):
        ref = synthesize(reference.basis, reference, grid)
    else:
        ref = np.asarray(reference(grid), dtype=float)
    return float(_l2_norm(est - ref, grid))


def _l2_norm(diff: np.ndarray, grid: np.ndarray):
    """L2 norm along the last axis of `diff`, sampled on `grid`, by the trapezoid rule; squares `diff` in place."""
    return np.sqrt(np.trapezoid(np.square(diff, out=diff), grid, axis=-1))
