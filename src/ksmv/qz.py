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
from dataclasses import dataclass, field
from typing import List

import numpy as np

# Family-wise false-alarm rate of the Monte Carlo histogram checks:
# verify_bound's bins, and the mc_histogram_sup record of `ksmv qz`.
QZ_HISTOGRAM_ALPHA = 1e-3

__all__ = [
    "QZ_HISTOGRAM_ALPHA",
    "QZParams",
    "BoundReport",
    "qz_density",
    "qz_bound",
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


def _gauss(t: float, u) -> np.ndarray:
    return np.exp(-np.asarray(u) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


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
    from scipy import special

    shift = (a - beta * t) / math.sqrt(2.0 * t)
    return _gauss(t, a - beta * t) + beta / 2.0 * special.erfc(shift)


def qz_bound(t: float, x: float, y: float, beta: float) -> float:
    """Universal density bound: any diffusion with unit noise and drift
    bounded by beta has transition density p(t, x, y) at most this value.
    It is the sign-drift density at the attractor, qz_density(p, y) with
    p = QZParams(beta, y, x, t)."""
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    if beta < 0:
        raise ValueError(f"need beta >= 0, got {beta}")
    return _tail_eval(t, abs(x - y), beta)


@dataclass
class BinCheck:
    """One histogram bin versus the bound at one sample time."""

    time: float
    center: float
    count: int
    bound_prob: float
    p_value: float


@dataclass
class BoundReport:
    """Outcome of checking an ensemble against the universal bound; a bin is
    a violation when its p-value falls below level."""

    beta: float
    times: List[float]
    level: float
    checks: List[BinCheck] = field(default_factory=list)
    violations: List[BinCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def min_p_value(self) -> float:
        return min((c.p_value for c in self.checks), default=1.0)

    def lines(self) -> List[str]:
        out = [f"universal bound check, beta={self.beta:g}: "
               f"{'PASS' if self.passed else 'FAIL'} ({len(self.checks)} bins, "
               f"smallest p-value {self.min_p_value():.3e} vs level {self.level:.3e})"]
        for v in self.violations:
            out.append(f"  t={v.time:g} z={v.center:+.3f}: {v.count} paths where the bound "
                       f"allows bin probability {v.bound_prob:.4g} (p-value {v.p_value:.3e})")
        return out


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
    from scipy import special

    if getattr(ensemble, "drift_bound", None) is None:
        raise ValueError("ensemble carries no declared drift bound")
    if ensemble.drift_bound > beta + 1e-12:
        raise ValueError(f"declared drift bound {ensemble.drift_bound} exceeds beta {beta}")
    x0 = getattr(ensemble, "x0", None)
    if x0 is None:
        raise ValueError("pointwise bound check needs a deterministic start x0")
    times = [float(t) for t in ensemble.snapshot_times]
    level = QZ_HISTOGRAM_ALPHA / (bins * max(1, sum(t > 0 for t in times)))
    report = BoundReport(beta=beta, times=times, level=level)
    N = ensemble.n_particles
    for t, positions in zip(times, ensemble.positions):
        if t <= 0:
            continue
        edges = np.linspace(np.min(positions), np.max(positions), bins + 1)
        counts, _ = np.histogram(positions, bins=edges)
        nearest = np.clip(x0, edges[:-1], edges[1:])
        prob = np.minimum((edges[1] - edges[0]) * _tail_eval(t, np.abs(nearest - x0), beta), 1.0)
        p_values = special.bdtrc(counts - 1, N, prob)
        centers = 0.5 * (edges[:-1] + edges[1:])
        for c, k, pb, pv in zip(centers, counts, prob, p_values):
            chk = BinCheck(t, float(c), int(k), float(pb), float(pv))
            report.checks.append(chk)
            if chk.p_value < level:
                report.violations.append(chk)
    return report
