"""Helpers shared by the test modules: the acceptance-line recorder, test
densities, and the quadrature oracle for the sign-drift comparison density.

The acceptance suite registers one line per criterion through
`record_criterion`; the terminal-summary hook in conftest.py prints them.
"""

import math

import numpy as np
from scipy import integrate

from ksmv.grid import Grid1D, DensityField, heat_kernel
from ksmv.qz import QZParams

ACCEPTANCE_LINES = {}


def record_criterion(num: int, passed: bool, text: str):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES[num] = f"criterion {num:2d} [{verdict}] {text}"
    print(ACCEPTANCE_LINES[num])


def gaussian_density(grid: Grid1D, var: float, mean: float = 0.0) -> DensityField:
    return DensityField(grid, heat_kernel(var, grid.x - mean), 0.0).normalized()


def l1_distance(grid: Grid1D, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.abs(a - b)) * grid.h)


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
