"""Exogenous drift and chemical concentration field.

The cell density rho feeds a chemical concentration c through the damped heat
equation dc/dt = (1/2) c_xx - lambda c + rho, c(0) = c0.  Its Duhamel solution

    c_t = e^{-lambda t} g(t,.) * c0 + int_0^t e^{-lambda s} (rho_{t-s} * g(s,.)) ds

is evaluated spectrally, with the s -> 0 endpoint (where g(s,.) tends to the
identity) assigned its limit value rho_t, and exact exp(-lambda s) subinterval
weights so only the smooth factor is discretized (trapezoid, second order).

c and d/dx c at a node are two lanes of the solver's drift recursion
U <- q U + E1 rho_hat (kernel._push) over the past rows: the gradient lane
runs the unit kernel's E1, the memory drift's quadrature, so that the
structural identity  chi * d/dx c = b + B  holds on the shared
discretization, and central differencing of c checks it independently at
O(h^2) + O(dt^2) accuracy.  Node k costs O(k n log n).

The exogenous drift is b(t, x) = chi e^{-lambda t} E[c0'(x + W_t)], bounded
by chi ||c0'||_inf for all times, and evaluated spectrally on the chemical's
grid.

:func:`ks_residual`, the finite-difference residual of the equation for c,
serves acceptance criterion 6 and scripts/refinement_study.py; it is
evaluated node by node, since no command calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid1D
from .kernel import KernelSpec, _push, integrated_kernel_symbol, symbol_decay

__all__ = [
    "InitialChemical",
    "ChemicalField",
    "drift_b",
    "chemical_concentration",
    "ks_residual",
]


@dataclass
class InitialChemical:
    """Initial chemical concentration c0 with its derivative, sampled on a grid."""

    grid: Grid1D
    c0: np.ndarray
    c0_prime: np.ndarray

    def __post_init__(self):
        self.c0 = np.asarray(self.c0, dtype=float)
        self.c0_prime = np.asarray(self.c0_prime, dtype=float)
        for arr in (self.c0, self.c0_prime):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"chemical samples must have shape ({self.grid.n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError("chemical initial data must be bounded")

    @classmethod
    def sine(cls, grid: Grid1D, amp: float = 1.0, freq: float = 1.0) -> "InitialChemical":
        """c0 = amp sin(freq x), with freq snapped to the nearest nonzero grid
        harmonic (multiple of pi / half_width) so the profile is exactly
        periodic on the box."""
        fund = math.pi / grid.half_width
        freq_eff = max(1, round(freq / fund)) * fund
        x = grid.x
        return cls(grid, amp * np.sin(freq_eff * x), amp * freq_eff * np.cos(freq_eff * x))

    @classmethod
    def gaussian_bump(cls, grid: Grid1D, amp: float = 1.0, width: float = 1.0) -> "InitialChemical":
        """c0 = amp exp(-x^2 / (2 width^2))."""
        x, width_sq = grid.x, np.float64(width) ** 2   # inf past 1e154: a flat c0
        c0 = amp * np.exp(-x * x / (2.0 * width_sq))
        return cls(grid, c0, -x / width_sq * c0)

    @classmethod
    def from_samples(cls, grid: Grid1D, c0: np.ndarray,
                     c0_prime: Optional[np.ndarray] = None) -> "InitialChemical":
        c0 = np.asarray(c0, dtype=float)
        if c0_prime is None:
            c0_prime = (np.roll(c0, -1) - np.roll(c0, 1)) / (2.0 * grid.h)
        return cls(grid, c0, c0_prime)


@dataclass
class ChemicalField:
    """Concentration and its spatial gradient at one time."""

    grid: Grid1D
    values: np.ndarray
    gradient: np.ndarray
    time_tag: float = 0.0


def drift_b(spec: KernelSpec, chem: InitialChemical, t: float) -> np.ndarray:
    """Exogenous drift b(t, .) = chi e^{-lambda t} (c0' * g(t, .)) on the
    chemical's grid, by spectral evaluation.  At t = 0 the convolution is the
    identity, so b(0, .) = chi c0'.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    pref = spec.chi * math.exp(-spec.lam * t)
    # xi^2 overflows only where the heat symbol is 0, and a drift past the
    # float range reads inf, which the solvers' step checks name
    with np.errstate(over="ignore"):
        if t == 0.0:
            return pref * chem.c0_prime.copy()
        xi = chem.grid.wavenumbers
        heat = np.exp(-xi * xi * t / 2.0)
        smoothed = np.fft.irfft(np.fft.rfft(chem.c0_prime) * heat, chem.grid.n)
        return pref * smoothed


def chemical_concentration(history, chem: InitialChemical, lam: float, k: int) -> ChemicalField:
    """Concentration c and its gradient d/dx c at mesh node k from the
    density history rows 0..k.

    Both are lanes of U <- q U + E1 rho_hat_l, pushed over rows l < k with
    q = e^{-(lam + xi^2/2) dt}.  The c lane is the Duhamel trapezoid in the
    smooth factor rho_{t-s} * g(s), with exact subinterval integrals
    w0 e^{-lam s_j} of e^{-lam s} and F(0) at its identity-limit value
    rho_{t_k}: it starts at c0_hat - (w0/2) rho_hat_0, pushes with
    E1 = (w0/2)(q + r), r = e^{-xi^2 dt/2}, and gains (w0/2) rho_hat_k at
    the end.  The gradient lane starts at rfft(c0') and pushes with the unit
    kernel's E1, which gives e^{-lam t} (c0' * g(t)) plus the memory drift
    of KernelSpec(1, lam).
    """
    history.require_rows(k)
    grid, dt = history.grid, history.mesh.dt
    if k == 0:
        return ChemicalField(grid, chem.c0.copy(), chem.c0_prime.copy(), history.mesh.nodes[0])
    xi = grid.wavenumbers
    rho_hat = np.fft.rfft(history.densities[: k + 1], axis=1)
    q = symbol_decay(lam, dt, xi).astype(complex)   # cast once, not in every push
    half_w0 = 0.5 * (dt if lam == 0.0 else -math.expm1(-lam * dt) / lam)
    E1 = np.stack([half_w0 * (q + symbol_decay(0.0, dt, xi)),
                   integrated_kernel_symbol(KernelSpec(1.0, lam), dt, xi)])
    U = np.stack([np.fft.rfft(chem.c0) - half_w0 * rho_hat[0], np.fft.rfft(chem.c0_prime)])
    spare = np.empty_like(U)
    for row in rho_hat[:k]:
        _push(U, q, E1, row, spare)
    U[0] += half_w0 * rho_hat[k]
    values, gradient = np.fft.irfft(U, grid.n, axis=1)
    return ChemicalField(grid, values, gradient, history.mesh.nodes[k])


def ks_residual(history, chem: InitialChemical, lam: float) -> np.ndarray:
    """Finite-difference residual of dc/dt - (1/2) c_xx + lambda c - rho.

    Central differences in both time (mesh neighbours) and space; returns the
    spatial L^2 norm of the residual at each sampled interior node (none
    when M = 1), each sample reading its three nodes through
    chemical_concentration, which checks the history rows itself.  The
    residual measures the consistency of the computed (rho, c) pair and
    shrinks under (h, dt) refinement.
    """
    grid, mesh = history.grid, history.mesh
    M = mesh.steps
    # below M = 4 the sample from node 2 on is empty: every interior node
    ks = range(2, M - 1, max(1, M // 16)) if M >= 4 else range(1, M)
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        c_prev, c_mid, c_next = (chemical_concentration(history, chem, lam, j).values
                                 for j in (k - 1, k, k + 1))
        dcdt = (c_next - c_prev) / (2.0 * mesh.dt)
        cxx = (np.roll(c_mid, -1) - 2.0 * c_mid + np.roll(c_mid, 1)) / grid.h ** 2
        res = dcdt - 0.5 * cxx + lam * c_mid - history.densities[k]
        out[i] = math.sqrt(grid.integrate(res * res))
    return out
