"""Helpers shared by the test modules: the acceptance-line recorder, test
densities, row-wise history distances, the quadrature oracle for the
sign-drift comparison density, the per-value reference text of the table
writers, and sequential oracles for the particle noise streams and the
cloud-in-cell cells.

The acceptance suite registers one line per criterion through
`record_criterion`; the terminal-summary hook in conftest.py prints them.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy import integrate

from ksmv.grid import Grid1D, DensityField, heat_kernel
from ksmv.mild import MarginalHistory
from ksmv.qz import QZParams

ACCEPTANCE_LINES = {}


def record_criterion(num: int, passed: bool, text: str):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES[num] = f"criterion {num:2d} [{verdict}] {text}"
    print(ACCEPTANCE_LINES[num])


def reference_rows(columns, sep: str) -> str:
    """Rows of the columns, one "%.17g" % v per value joined by sep: the text
    every ksmv.cli table writer must reproduce byte for byte."""
    return "".join(sep.join("%.17g" % v for v in row) + "\n" for row in zip(*columns))


def gaussian_density(grid: Grid1D, var: float, mean: float = 0.0) -> DensityField:
    return DensityField(grid, heat_kernel(var, grid.x - mean), 0.0).normalized()


def l1_distance(grid: Grid1D, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.abs(a - b)) * grid.h)


@dataclass
class ErrorTable:
    """Per-row distances between two histories on a shared discretization."""

    t: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    linf: np.ndarray

    @property
    def max_l1(self) -> float:
        return float(np.max(self.l1))

    @property
    def max_l2(self) -> float:
        return float(np.max(self.l2))

    @property
    def max_linf(self) -> float:
        return float(np.max(self.linf))

    def lines(self) -> List[str]:
        return [f"max over rows: L1 {self.max_l1:.6e}  L2 {self.max_l2:.6e}  "
                f"Linf {self.max_linf:.6e}"]


def compare_histories(a: MarginalHistory, b: MarginalHistory) -> ErrorTable:
    """Row-wise L1, L2, Linf distances; requires identical grid and mesh."""
    if a.grid != b.grid or a.mesh != b.mesh:
        raise ValueError("histories live on different discretizations")
    diff = a.densities - b.densities
    h = a.grid.h
    return ErrorTable(
        t=a.mesh.nodes.copy(),
        l1=np.sum(np.abs(diff), axis=1) * h,
        l2=np.sqrt(np.sum(diff * diff, axis=1) * h),
        linf=np.max(np.abs(diff), axis=1),
    )


def qz_density_oracle(params: QZParams, z: float) -> float:
    """Sign-drift density at one z with the excursion-height integral by
    adaptive quadrature, independent of ksmv.qz's closed form.

    The integrand's exponent is -(u - c)^2 / (2t) + const with
    c = beta t - A, largest at u* = max(0, c); the upper limit lies far
    enough past u* that the quadratic drop alone takes the integrand below
    1e-15 of its maximum, with margin for the polynomial factor.
    """
    beta, y, x, t = params.beta, params.y, params.x, params.t
    dzy, dyx = abs(z - y), abs(y - x)
    A = dzy + dyx
    pref = beta * (dyx - dzy) - beta * beta * t / 2.0
    c = beta * t - A
    ubar = c + math.sqrt((max(0.0, c) - c) ** 2
                         + 2.0 * t * (-math.log(1e-15) + 6.0)) + math.sqrt(t)
    val, abserr = integrate.quad(
        lambda u: math.exp(pref + beta * u - (u + A) ** 2 / (2.0 * t)) * (u + A),
        0.0, ubar, epsabs=1e-14, epsrel=1e-11, limit=200)
    assert abserr <= 1e-8 * max(1.0, abs(val)), "oracle quadrature did not converge"
    gauss = lambda u: math.exp(-u * u / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return val / (math.sqrt(2.0 * math.pi) * t ** 1.5) + math.exp(pref) * (gauss(z - x) - gauss(A))


def step_noise_oracle(seed: int, k: int, keys: np.ndarray) -> np.ndarray:
    """Variates keys[i] of the path-noise stream of step k, drawn by a new
    generator on one thread: the stream every thread count must reproduce."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 1], counter=[0, k, 0, 0]))
    return gen.standard_normal(int(keys.max()) + 1)[keys]


def cloud_in_cell_oracle(grid: Grid1D, positions: np.ndarray):
    """Cells and weights by the periodic fold of every position and integer
    remainders: (idx, idx1, w0, w1) with w0 = 1 - frac, w1 = frac."""
    rel = np.mod(positions + grid.half_width, 2.0 * grid.half_width) / grid.h
    floor = np.floor(rel)
    idx = floor.astype(np.int64) % grid.n
    frac = rel - floor
    return idx, (idx + 1) % grid.n, 1.0 - frac, frac
