"""Closed-form comparison densities for diffusions with bounded drift.

The sign-drift diffusion  dX_t = beta sgn(y - X_t) dt + dW_t, X_0 = x  is
the extremal process among unit diffusions whose drift is bounded by beta:
its transition density majorizes every such diffusion's.  The density has
an explicit two-term expression,

    p(t, x, z) = I(t, x, z) + e^{beta(|y-x| - |z-y|) - beta^2 t / 2}
                               [ g(t, z - x) - g(t, A) ],
    A = |z - y| + |y - x|,

where I is an integral over excursion heights,

    I = (2 pi)^{-1/2} t^{-3/2} int_0^inf  e^{beta(|y-x| + u - |z-y|) - beta^2 t/2}
                                          (u + A) e^{-(u + A)^2 / (2 t)} du.

Completing the square in w = u + A gives I in closed form,

    I = e^{-2 beta |z-y|} tail(t, A, beta),
    tail(t, a, beta) = g(t, a - beta t) + (beta / 2) erfc((a - beta t) / sqrt(2 t)),

so qz_density is a composition of ufuncs, vectorized in z.  The prefactor
of the Gaussian difference is folded into each Gaussian's exponent, which
is then at most 0 (it is -(d - beta t)^2 / (2t) for z between x and y,
d = |z - x|), so no factor overflows.  At z = y the Gaussian difference
vanishes and the density is tail(t, |x - y|, beta), which is also the
universal pointwise bound for all drifts with sup |b| <= beta: any such
transition density satisfies p^(b)(t, x, z) <= bound(t, x, z, beta).
verify_bound checks a simulated ensemble's histogram against the bound, bin
by bin, with an exact binomial tail test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import heat_kernel
from .special import binomial_sf, erfc

# Family-wise false-alarm rate of the Monte Carlo histogram checks:
# verify_bound's bins, and the mc_histogram_sup record of `ksmv qz`.
QZ_HISTOGRAM_ALPHA = 1e-3

__all__ = [
    "QZ_HISTOGRAM_ALPHA",
    "QZParams",
    "BoundReport",
    "qz_density",
    "verify_bound",
]


@dataclass(frozen=True)
class QZParams:
    """Parameters of the sign-drift diffusion: drift magnitude beta toward
    the attractor y, start x, elapsed time t."""

    beta: float
    y: float
    x: float
    t: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"need beta >= 0, got {self.beta}")
        if self.t <= 0:
            raise ValueError(f"need t > 0, got {self.t}")


def qz_density(params: QZParams, z):
    """Transition density of the sign-drift diffusion at z (scalar or array)."""
    beta, y, x, t = params.beta, params.y, params.x, params.t
    z = np.asarray(z, dtype=float)
    dzy = np.abs(z - y)
    dyx = abs(y - x)
    A = dzy + dyx
    excursion = np.exp(-2.0 * beta * dzy) * _tail_eval(t, A, beta)
    pref = beta * (dyx - dzy) - beta * beta * t / 2.0
    direct = (np.exp(pref - (z - x) ** 2 / (2.0 * t))
              - np.exp(pref - A * A / (2.0 * t))) / math.sqrt(2.0 * math.pi * t)
    return excursion + direct


def _tail_eval(t: float, a, beta: float):
    """(2 pi t)^{-1/2} int_{a / sqrt t}^inf  z e^{-(z - beta sqrt t)^2 / 2} dz
    in closed form, vectorized in a: Gaussian term plus an erfc tail."""
    shift = (a - beta * t) / math.sqrt(2.0 * t)
    return heat_kernel(t, a - beta * t) + beta / 2.0 * erfc(shift)


@dataclass
class BoundReport:
    """Outcome of checking an ensemble against the universal bound: counts,
    bound_probs and p_values hold every tested bin of every snapshot at
    t > 0, in order, and violations the indices of the bins whose p-value
    falls below level."""

    level: float
    counts: np.ndarray
    bound_probs: np.ndarray
    p_values: np.ndarray

    @property
    def violations(self) -> np.ndarray:
        return np.flatnonzero(self.p_values < self.level)

    @property
    def passed(self) -> bool:
        return not self.violations.size

    def min_p_value(self) -> float:
        return float(self.p_values.min()) if self.p_values.size else 1.0


def verify_bound(ensemble, beta: float, bins: int = 60) -> BoundReport:
    """Histogram every stored ensemble snapshot at t > 0 and test each bin's
    count against the universal bound.

    The bound decreases in |z - x0|, so width x bound at the bin point nearest
    x0 bounds the bin's probability.  A bin's p-value is the exact binomial
    upper tail P(Binomial(N, that probability) >= count); a bin violates the
    bound when its p-value is below QZ_HISTOGRAM_ALPHA / (bins x snapshots),
    the Bonferroni level that keeps the chance of any false alarm below
    QZ_HISTOGRAM_ALPHA.  Sparse bins are tested as strictly as full ones.

    Requires a deterministic start (ensemble.x0) and a declared drift bound
    no larger than beta; both are usage errors otherwise.
    """
    if getattr(ensemble, "drift_bound", None) is None:
        raise ValueError("ensemble carries no declared drift bound")
    if ensemble.drift_bound > beta + 1e-12:
        raise ValueError(f"declared drift bound {ensemble.drift_bound} exceeds beta {beta}")
    x0 = getattr(ensemble, "x0", None)
    if x0 is None:
        raise ValueError("pointwise bound check needs a deterministic start x0")
    snapshots = [(float(t), positions) for t, positions
                 in zip(ensemble.snapshot_times, ensemble.positions) if t > 0]
    counts = np.empty((len(snapshots), bins), dtype=np.intp)
    probs = np.empty((len(snapshots), bins))
    for (t, positions), count, prob in zip(snapshots, counts, probs):
        edges = np.linspace(np.min(positions), np.max(positions), bins + 1)
        count[:] = np.histogram(positions, bins=edges)[0]
        nearest = np.clip(x0, edges[:-1], edges[1:])
        prob[:] = np.minimum((edges[1] - edges[0]) * _tail_eval(t, np.abs(nearest - x0), beta), 1.0)
    counts, probs = counts.ravel(), probs.ravel()
    # one call over every bin: each element's continued fraction runs alone
    return BoundReport(QZ_HISTOGRAM_ALPHA / (bins * max(1, len(snapshots))), counts, probs,
                       binomial_sf(counts, ensemble.n_particles, probs))
