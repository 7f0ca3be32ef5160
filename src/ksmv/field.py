"""Exogenous drift and chemical concentration field.

The cell density rho feeds a chemical concentration c through the damped heat
equation dc/dt = (1/2) c_xx - lambda c + rho, c(0) = c0.  Its Duhamel solution

    c_t = e^{-lambda t} g(t,.) * c0 + int_0^t e^{-lambda s} (rho_{t-s} * g(s,.)) ds

is evaluated spectrally, with the s -> 0 endpoint (where g(s,.) tends to the
identity) assigned its limit value rho_t, and exact exp(-lambda s) subinterval
weights so only the smooth factor is discretized (trapezoid, second order).
The trapezoid sum reads off the history's running memory sums
(MarginalHistory.memory_sums), so each node costs O(n).

Two routes to the chemical gradient exist on purpose:

* :func:`chemical_gradient` assembles d/dx c directly from the density
  history with the same quadrature the memory drift uses,
  so that the structural identity  chi * d/dx c = b + B  holds on the shared
  discretization;
* central differencing of :func:`chemical_concentration` gives an
  independent cross-check at O(h^2) + O(dt^2) accuracy.

The exogenous drift is b(t, x) = chi e^{-lambda t} E[c0'(x + W_t)], bounded
by chi ||c0'||_inf for all times, and evaluated spectrally on the chemical's
grid.

:func:`ks_residual`, the finite-difference residual of the equation for c,
serves acceptance criterion 6 and scripts/refinement_study.py; it is
evaluated node by node, since no command calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Grid1D
from .kernel import KernelSpec, symbol_decay

__all__ = [
    "InitialChemical",
    "ChemicalField",
    "drift_b",
    "chemical_concentration",
    "chemical_gradient",
    "ks_residual",
]


@dataclass
class InitialChemical:
    """Initial chemical concentration c0 with its derivative, sampled on a grid.

    params holds the parameters of the closed-form builders:
      sine:          c0 = amp * sin(freq x), freq as snapped to the grid
      gaussian_bump: c0 = amp * exp(-x^2 / (2 width^2))
    """

    grid: Grid1D
    c0: np.ndarray
    c0_prime: np.ndarray
    params: dict = field(default_factory=dict)

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
        """Sinusoidal chemical.  freq is snapped to the nearest nonzero grid
        harmonic (multiple of pi / half_width) so the profile is exactly
        periodic on the box; the snapped value is stored in params."""
        fund = math.pi / grid.half_width
        freq_eff = max(1, round(freq / fund)) * fund
        x = grid.x
        return cls(grid, amp * np.sin(freq_eff * x), amp * freq_eff * np.cos(freq_eff * x),
                   {"amp": amp, "freq": freq_eff})

    @classmethod
    def gaussian_bump(cls, grid: Grid1D, amp: float = 1.0, width: float = 1.0) -> "InitialChemical":
        x = grid.x
        c0 = amp * np.exp(-x * x / (2.0 * width ** 2))
        return cls(grid, c0, -x / width ** 2 * c0, {"amp": amp, "width": width})

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
    if t == 0.0:
        return pref * chem.c0_prime.copy()
    xi = chem.grid.wavenumbers
    smoothed = np.fft.irfft(np.fft.rfft(chem.c0_prime) * np.exp(-xi * xi * t / 2.0), chem.grid.n)
    return pref * smoothed


def _concentration(history, chem: InitialChemical, lam: float, k: int) -> np.ndarray:
    """Concentration c at mesh node k on the grid, without its gradient.

    The Duhamel term is the trapezoid in the smooth factor rho_{t-s} * g(s),
    with exact subinterval integrals w0 e^{-lam s_j} of e^{-lam s} and F(0)
    at its identity-limit value rho_{t_k}.  With q = e^{-(lam + xi^2/2) dt},
    r = e^{-xi^2 dt/2} and the history's running memory sums S (the same
    ones the memory drift uses) the trapezoid sum is
    (w0/2) [S_{k+1} - q^k rho_hat_0 + r S_k].
    """
    history.require_rows(k)
    if k == 0:
        return chem.c0.copy()
    grid, mesh = history.grid, history.mesh
    xi, dt, tk = grid.wavenumbers, mesh.dt, mesh.nodes[k]
    S = history.memory_sums(lam)
    rho0_hat = np.fft.rfft(history.densities[0])
    r = symbol_decay(0.0, dt, xi)
    w0 = dt if lam == 0.0 else -math.expm1(-lam * dt) / lam
    duhamel = 0.5 * w0 * (S[k + 1] - symbol_decay(lam, k * dt, xi) * rho0_hat + r * S[k])
    c_hat = math.exp(-lam * tk) * np.fft.rfft(chem.c0) * np.exp(-xi * xi * tk / 2.0) + duhamel
    return np.fft.irfft(c_hat, grid.n)


def chemical_concentration(history, chem: InitialChemical, lam: float, k: int) -> ChemicalField:
    """Concentration c at mesh node k from the density history, with gradient.

    The returned gradient is :func:`chemical_gradient`, assembled from the
    memory drift rather than by differentiating c.
    """
    return ChemicalField(history.grid, _concentration(history, chem, lam, k),
                         chemical_gradient(history, chem, lam, k), history.mesh.nodes[k])


def chemical_gradient(history, chem: InitialChemical, lam: float, k: int) -> np.ndarray:
    """d/dx c at mesh node k, assembled directly from the density history.

    Uses the decomposition d/dx c = e^{-lam t} (c0' * g(t)) + (1/chi) B-type
    sum, sharing the memory drift's quadrature, so that
    chi * (d/dx c) - [b + B] vanishes on the shared discretization.
    Kernel-free: only the decay rate lam enters.
    """
    from .mild import memory_drift  # local import, mild depends on this module

    history.require_rows(k)
    tk = history.mesh.nodes[k]
    unit = KernelSpec(chi=1.0, lam=lam)
    part_c0 = drift_b(unit, chem, tk)
    if k == 0:
        return part_c0
    return part_c0 + memory_drift(history, unit, k)


def ks_residual(history, chem: InitialChemical, lam: float) -> np.ndarray:
    """Finite-difference residual of dc/dt - (1/2) c_xx + lambda c - rho.

    Central differences in both time (mesh neighbours) and space; returns the
    spatial L^2 norm of the residual at each sampled interior node (none
    when M = 1), each sample reading its three nodes through _concentration,
    which checks the history rows itself.  The residual measures the
    consistency of the computed (rho, c) pair and shrinks under (h, dt)
    refinement.
    """
    grid, mesh = history.grid, history.mesh
    M = mesh.steps
    # below M = 4 the sample from node 2 on is empty: every interior node
    ks = range(2, M - 1, max(1, M // 16)) if M >= 4 else range(1, M)
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        c_prev, c_mid, c_next = (_concentration(history, chem, lam, j) for j in (k - 1, k, k + 1))
        dcdt = (c_next - c_prev) / (2.0 * mesh.dt)
        cxx = (np.roll(c_mid, -1) - 2.0 * c_mid + np.roll(c_mid, 1)) / grid.h ** 2
        res = dcdt - 0.5 * cxx + lam * c_mid - history.densities[k]
        out[i] = math.sqrt(grid.integrate(res * res))
    return out
