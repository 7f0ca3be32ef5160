"""Uniform discretization primitives shared by every solver in this package.

Space is a periodic box [-L, L) with n equispaced points; time is a uniform
mesh on [0, T].  All densities, drifts and chemical fields live on these
grids.  The module also provides the Gaussian heat kernel, discrete
periodic convolution by FFT and the composite 8-point Gauss-Legendre rule.

Quadrature convention: on the periodic grid the trapezoid and rectangle
rules coincide, so every integral is h * sum(values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "TimeMesh",
    "DensityField",
    "heat_kernel",
    "convolve",
    "gauss_legendre",
]

#: Negative values beyond this magnitude are treated as scheme errors, not roundoff.
CLIP_TOL = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with n points and spacing h = 2L/n."""

    half_width: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"need n >= 16 grid points, got {self.n}")
        if self.n % 2:
            raise ValueError(f"need even n for the FFT paths, got {self.n}")
        if self.half_width <= 0:
            raise ValueError(f"need positive half width, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def x(self) -> np.ndarray:
        """Grid points x_i = -L + i h, i = 0..n-1 (right endpoint excluded)."""
        return -self.half_width + self.h * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers xi_j for the rfft of a real field on this grid.

        A convolution with an analytically known kernel is applied as
        rfft(f) * symbol(xi) followed by irfft; this equals convolving with
        the periodization of the kernel, so no sampling error enters even
        when the kernel is narrower than h.
        """
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a sampled field (rectangle = trapezoid on the torus)."""
        return float(np.sum(values, axis=-1) * self.h)

    def tail_bound(self, t_max: float, sigma0_sq: float = 1.0) -> float:
        """Crude bound on the Gaussian mass beyond the box edge at the run horizon.

        Reported per run because the continuum problem lives on the whole line
        and the periodic box is a truncation of our choosing.
        """
        return float(np.exp(-self.half_width ** 2 / (2.0 * (sigma0_sq + t_max))))


@dataclass(frozen=True)
class TimeMesh:
    """Uniform mesh t_k = k dt, k = 0..M, on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0 or self.steps < 1:
            raise ValueError(f"need T > 0 and M >= 1, got T={self.horizon}, M={self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        # linspace pins t_0 = 0 and t_M = T exactly
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass
class DensityField:
    """A probability density sampled on a Grid1D at one instant."""

    grid: Grid1D
    values: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {self.values.shape}")

    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def normalized(self, clip_tol: float = CLIP_TOL) -> "DensityField":
        """Clip roundoff negativity and rescale to unit mass.

        Values below -clip_tol are genuine scheme output and are kept (the
        caller decides whether that is an instability); only the roundoff
        band [-clip_tol, 0) is zeroed.
        """
        v = self.values.copy()
        v[(v < 0.0) & (v >= -clip_tol)] = 0.0
        m = self.grid.integrate(v)
        if m <= 0.0:
            raise ValueError("density has non-positive mass, cannot normalize")
        return DensityField(self.grid, v / m, self.time_tag)


def heat_kernel(t: float, x) -> np.ndarray:
    """Gaussian transition density g(t, x) = (2 pi t)^{-1/2} exp(-x^2 / (2t)).

    Even in x and integrates to one over the line.  Vectorized in x.
    """
    if t <= 0:
        raise ValueError(f"heat kernel needs t > 0, got t={t}")
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


def _as_values(f) -> np.ndarray:
    return f.values if isinstance(f, DensityField) else np.asarray(f, dtype=float)


def convolve(f, g_samples, grid: Grid1D) -> np.ndarray:
    """Discrete convolution of two sampled fields (arrays or DensityFields on
    `grid`), scaled by the spacing h, by FFT.

    (f * g)_i = h * sum_j f_j g_{i-j}, with the index wrapped periodically.
    """
    fv = _as_values(f)
    gv = _as_values(g_samples)
    if fv.shape != gv.shape or fv.shape != (grid.n,):
        raise ValueError(f"field shapes {fv.shape}, {gv.shape} do not match grid n={grid.n}")
    n = grid.n
    # both factors are sampled at x_i = -L + i h, so raw index convolution
    # lands the result at index (i + j), i.e. offset by the n/2 cells that
    # encode x = 0; the roll undoes that offset
    out = np.roll(np.fft.irfft(np.fft.rfft(fv) * np.fft.rfft(gv), n), -(n // 2))
    return out * grid.h


# Positive nodes of the 8-point Gauss-Legendre rule on [-1, 1] and their
# weights; the rule is symmetric.  Tabulated: computing them takes a LAPACK
# call, whose first use costs about 0.8 MB resident.
_GL8_POS = np.array([0.1834346424956498, 0.5255324099163290,
                     0.7966664774136267, 0.9602898564975362])
_GL8_POS_W = np.array([0.3626837833783620, 0.3137066458778873,
                       0.2223810344533745, 0.1012285362903763])
_GL8_X = np.concatenate([-_GL8_POS[::-1], _GL8_POS])
_GL8_W = np.concatenate([_GL8_POS_W[::-1], _GL8_POS_W])


def gauss_legendre(edges) -> tuple:
    """Nodes and weights, each of shape (panels, 8), of the 8-point
    Gauss-Legendre rule on every panel [edges[i], edges[i+1]]: the integral
    of f over [edges[0], edges[-1]] is about sum(weights * f(nodes))."""
    edges = np.asarray(edges, dtype=float)
    half = np.diff(edges)[:, None] / 2.0
    mid = edges[:-1, None] + half
    return mid + half * _GL8_X, half * _GL8_W
