"""Causal solver for the time marginals of the memory-drift dynamics.

The density family (p_t) solves, in mild form,

    p_t = g(t,.) * p_0  +  int_0^t d/dx g(t-s,.) * ( p_s (b(s,.) + B(s,.)) ) ds,
    B(t,x) = int_0^t (K_{t-s} * p_s)(x) ds,

where the memory drift B integrates the singular interaction kernel against
the whole past of the density.  Everything here is spectral on the periodic
grid: convolutions with the heat kernel and with K are exact Fourier-symbol
multiplications, which sidesteps kernel sampling entirely (important since
the one-step kernels have width sqrt(dt), often below the grid spacing).

Discretization of B at node t_k: on every subinterval [t_l, t_{l+1}] the
density is frozen at the left node and the kernel's time profile is
integrated exactly.  The kernel symbol chi_eff (i xi) e^{-(lam + xi^2/2) a}
is exponential in the age a, so the subinterval of age m = k - l weighs
p_hat_l by E1 q^{m-1}, with

    E1 = int_0^dt K_hat_a da   (kernel.integrated_kernel_symbol),
    q  = e^{-(lam + xi^2/2) dt} (kernel.symbol_decay),

and the whole memory sum is one running sum per frequency:

    B_hat_k = E1 S_k,    S_0 = 0,    S_{k+1} = q S_k + p_hat_k.

The march, the fixed-point iteration, the window restart, the chemical
field and the binned particles all use this sum; it costs O(n) per step,
so a march of M steps costs O(M n log n).

The one-step march multiplies by the heat symbol and adds the one-step
Duhamel drift term; mass is conserved exactly by construction (the
derivative symbol vanishes at frequency zero), so the per-step mass log is a
pure roundoff diagnostic.

Fixed-point iteration (the contraction construction): iterate 1 computes B
against the history frozen at p_0; iterate j marches the linear equation
with drift b + B(.; iterate j-1).  The discrete system is lower triangular
in time, so the iterates collapse onto the march output; their successive
L^1 distances contract at rate ~ D(T_0) when the horizon satisfies
D(T_0) < 1.  Longer horizons are covered by restarting: the running sum of
the already-solved windows is carried to the next window start as S_base,
and enters that window as the frozen exogenous drift E1 q^j S_base at its
node j, so the concatenated discretization reproduces the single global
march.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .grid import Grid1D, TimeMesh, DensityField
from .kernel import (KernelSpec, has_memory, horizon_D, find_T0,
                     integrated_kernel_symbol, symbol_decay)
from .field import InitialChemical, drift_b

__all__ = [
    "MarginalHistory",
    "SchemeInstabilityError",
    "PicardDivergenceError",
    "running_sums",
    "memory_drift",
    "prefix_memory",
    "march",
    "picard",
    "solve_global",
]


class SchemeInstabilityError(RuntimeError):
    """Mass drifted beyond 10x the tolerance; names the offending step."""

    def __init__(self, step: int, mass: float):
        super().__init__(f"mass {mass:.6g} at step {step} exceeds the stability band")
        self.step = step
        self.mass = mass


class PicardDivergenceError(RuntimeError):
    """Successive iterate distances grew three times in a row."""

    def __init__(self, distances):
        super().__init__(f"fixed-point iteration diverging, distances {distances}")
        self.distances = list(distances)


@dataclass
class MarginalHistory:
    """The density family across the mesh: row k of `densities` is p_{t_k}.

    mass_log holds each row's quadrature mass as produced, before any
    renormalization; meta carries provenance and run diagnostics.  Instances
    are treated as immutable once built.
    """

    grid: Grid1D
    mesh: TimeMesh
    densities: np.ndarray
    mass_log: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.mesh.steps + 1, self.grid.n)
        if self.densities.shape != expected:
            raise ValueError(f"density stack must have shape {expected}")
        self._spectra: Optional[np.ndarray] = None
        self._sums: Dict[float, np.ndarray] = {}

    @classmethod
    def constant(cls, p0: DensityField, mesh: TimeMesh) -> "MarginalHistory":
        """History frozen at p_0 on every row (the iteration's starting point)."""
        rows = np.tile(p0.values, (mesh.steps + 1, 1))
        mass = np.full(mesh.steps + 1, p0.mass())
        return cls(p0.grid, mesh, rows, mass, {"provenance": "frozen-initial"})

    def row(self, k: int) -> DensityField:
        self.require_rows(k)
        return DensityField(self.grid, self.densities[k], float(self.mesh.nodes[k]))

    def require_rows(self, k: int):
        if not 0 <= k <= self.mesh.steps:
            raise ValueError(f"node index {k} outside 0..{self.mesh.steps}")
        if np.isnan(self.densities[: k + 1]).any():
            raise ValueError(f"history rows up to {k} are not all populated")

    def spectra(self) -> np.ndarray:
        """Cached rfft of every row (the solver's working representation)."""
        if self._spectra is None:
            self._spectra = np.fft.rfft(self.densities, axis=1)
        return self._spectra

    def memory_sums(self, lam: float) -> np.ndarray:
        """Cached running sums S_0..S_{M+1} of the rows at decay rate lam
        (module docstring); row k depends on rows 0..k-1 only."""
        if lam not in self._sums:
            q = symbol_decay(lam, self.mesh.dt, self.grid.wavenumbers)
            self._sums[lam] = running_sums(self.spectra(), q)
        return self._sums[lam]

    def max_mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass_log - 1.0)))

    def scaling_table(self) -> dict:
        """sqrt(t_k) ||p_k||_inf and t_k^{1/4} ||p_k||_L2 per row (smoothing
        diagnostics; both stay bounded for integrable initial data)."""
        t = self.mesh.nodes
        linf = np.max(np.abs(self.densities), axis=1)
        l2 = np.sqrt(np.sum(self.densities ** 2, axis=1) * self.grid.h)
        return {"t": t, "sqrt_t_linf": np.sqrt(t) * linf, "qrt_t_l2": t ** 0.25 * l2}


def running_sums(spectra: np.ndarray, q: np.ndarray,
                 start: Optional[np.ndarray] = None) -> np.ndarray:
    """S_0 = start (default 0) and S_{l+1} = q S_l + spectra[l]: the memory
    sums over the given rows, one more row than spectra."""
    S = np.empty((len(spectra) + 1, q.size), dtype=complex)
    S[0] = 0.0 if start is None else start
    for l, row in enumerate(spectra):
        S[l + 1] = q * S[l] + row
    return S


def memory_drift(history: MarginalHistory, spec: KernelSpec, k: int) -> np.ndarray:
    """B(t_k, .) = irfft(E1 S_k) on the grid, from history rows 0..k-1 (row k
    itself is never touched)."""
    history.require_rows(max(k - 1, 0))
    grid, mesh = history.grid, history.mesh
    if not has_memory(spec) or k == 0:
        return np.zeros(grid.n)
    E1 = integrated_kernel_symbol(spec, mesh.dt, grid.wavenumbers)
    B_hat = E1 * history.memory_sums(spec.lam)[k]
    return np.fft.irfft(B_hat, grid.n)


def prefix_memory(spec: KernelSpec, grid: Grid1D, dt: float, S_base: np.ndarray,
                  j: int) -> np.ndarray:
    """Memory drift of the rows before a window, j steps into the window:
    irfft(E1 q^j S_base), with S_base the running sum carried to the window
    start.  This is the frozen exogenous drift of the window restart."""
    xi = grid.wavenumbers
    B_hat = integrated_kernel_symbol(spec, dt, xi) * symbol_decay(spec.lam, j * dt, xi) * S_base
    return np.fft.irfft(B_hat, grid.n)


def _run_mild(p0_values: np.ndarray, grid: Grid1D, mesh: TimeMesh,
              drift_fn: Callable[[int, np.ndarray], np.ndarray],
              mass_tol: float, renormalize: bool) -> Tuple[np.ndarray, np.ndarray, float]:
    """Shared march loop.  drift_fn(k, p_hat_k) returns u(t_k) on the grid;
    it is called once per step, in step order.  Returns (density stack,
    mass log, sup of |drift| seen)."""
    n, M, dt = grid.n, mesh.steps, mesh.dt
    xi = grid.wavenumbers
    heat = np.exp(-xi * xi * dt / 2.0)
    deriv = 1j * xi
    P = np.empty((M + 1, n))
    mass_log = np.empty(M + 1)
    P[0] = p0_values
    cur = np.fft.rfft(P[0])
    mass_log[0] = cur[0].real * grid.h
    sup_drift = 0.0
    for k in range(M):
        u = drift_fn(k, cur)
        sup_drift = max(sup_drift, float(np.max(np.abs(u))))
        # a blow-up overflows here first; the finiteness check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = heat * (cur - dt * deriv * np.fft.rfft(u * P[k]))
        mass = nxt[0].real * grid.h
        mass_log[k + 1] = mass
        if not math.isfinite(mass) or abs(mass - 1.0) > 10.0 * mass_tol:
            raise SchemeInstabilityError(k + 1, mass)
        if renormalize:
            nxt = nxt / mass
        P[k + 1] = np.fft.irfft(nxt, n)
        cur = nxt
    return P, mass_log, sup_drift


def _check_p0(p0: DensityField, grid: Grid1D, mass_tol: float):
    if p0.grid != grid:
        raise ValueError("initial density lives on a different grid")
    m = p0.mass()
    if abs(m - 1.0) > max(mass_tol, 1e-3):
        raise ValueError(f"initial density mass {m:.6g} is not 1")


def march(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
          grid: Grid1D, mesh: TimeMesh, mass_tol: float = 1e-3,
          renormalize: bool = True) -> MarginalHistory:
    """Causal march of the mild equation over the whole mesh.

    Step k assembles u_k = b(t_k,.) + B(t_k,.; rows so far), then applies the
    one-step Duhamel update

        p_{k+1} = g(dt,.) * p_k  -  dt (d/dx g(dt,.)) * (u_k p_k),

    whose advection direction matches the sign of u (a positive drift moves
    mass right; checked against the linear-drift closed form in the tests).
    The memory sum S_k is updated online, O(n) per step.  Mass is logged
    pre-renormalization at every step.
    """
    _check_p0(p0, grid, mass_tol)
    memory = has_memory(spec)
    b_rows = _drift_rows(spec, chem, grid, mesh)
    xi = grid.wavenumbers
    if memory:
        E1 = integrated_kernel_symbol(spec, mesh.dt, xi)
        q = symbol_decay(spec.lam, mesh.dt, xi)
    S = np.zeros(xi.size, dtype=complex)

    def drift(k, p_hat):
        nonlocal S
        u = b_rows[k]
        if memory:
            if k > 0:
                u = u + np.fft.irfft(E1 * S, grid.n)
            S = q * S + p_hat
        return u

    P, mass_log, sup_drift = _run_mild(p0.values, grid, mesh, drift, mass_tol, renormalize)
    var0 = _variance(grid, p0.values)
    meta = {"provenance": "march", "sup_drift": sup_drift,
            "tail_bound": grid.tail_bound(mesh.horizon, max(var0, 1e-6))}
    return MarginalHistory(grid, mesh, P, mass_log, meta)


def _drift_rows(spec, chem, grid, mesh) -> np.ndarray:
    if chem is None:
        return np.zeros((mesh.steps + 1, grid.n))
    return np.stack([drift_b(spec, chem, float(t)) for t in mesh.nodes])


def _variance(grid: Grid1D, values: np.ndarray) -> float:
    m1 = grid.integrate(grid.x * values)
    m2 = grid.integrate(grid.x ** 2 * values)
    return float(m2 - m1 * m1)


def _sup_l1_distance(A: np.ndarray, B: np.ndarray, h: float) -> float:
    return float(np.max(np.sum(np.abs(A - B), axis=1)) * h)


def picard(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
           grid: Grid1D, mesh: TimeMesh, k_max: int = 25, tol: float = 1e-8,
           extra_drift: Optional[Callable[[int], np.ndarray]] = None,
           mass_tol: float = 1e-3) -> Tuple[List[MarginalHistory], List[float]]:
    """Fixed-point iteration on the contraction horizon.

    Iterate j solves the linear equation whose memory term E1 S_k is one
    running-sum pass over iterate j-1; iterate 1 takes the same pass over
    the history frozen at p_0.  Distances are sup over nodes of the row L^1
    difference between consecutive iterates.  Stops at tol or k_max; three
    consecutive growing distances raise PicardDivergenceError.

    extra_drift(k) -> grid values is an additional exogenous drift (used by
    the window restart; it is held fixed across iterates).
    """
    _check_p0(p0, grid, mass_tol)
    memory = has_memory(spec)
    if memory:
        D = horizon_D(spec, mesh.horizon)
        if D >= 1.0:
            warnings.warn(f"horizon has D(T)={D:.3g} >= 1; iteration may not contract",
                          RuntimeWarning, stacklevel=2)
        E1 = integrated_kernel_symbol(spec, mesh.dt, grid.wavenumbers)
    b_rows = _drift_rows(spec, chem, grid, mesh)
    if extra_drift is not None:
        b_rows = b_rows + np.stack([np.asarray(extra_drift(k), dtype=float)
                                    for k in range(mesh.steps + 1)])

    prev = MarginalHistory.constant(p0, mesh)
    histories: List[MarginalHistory] = []
    distances: List[float] = []
    grow_streak = 0
    for j in range(1, k_max + 1):
        sums = prev.memory_sums(spec.lam) if memory else None

        def drift(k, _p_hat, _sums=sums):
            if _sums is None or k == 0:
                return b_rows[k]
            return b_rows[k] + np.fft.irfft(E1 * _sums[k], grid.n)

        P, mass_log, sup_drift = _run_mild(p0.values, grid, mesh, drift, mass_tol, True)
        hist = MarginalHistory(grid, mesh, P, mass_log,
                               {"provenance": f"iterate-{j}", "sup_drift": sup_drift})
        histories.append(hist)
        d = _sup_l1_distance(P, prev.densities, grid.h)
        distances.append(d)
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise PicardDivergenceError(distances)
        else:
            grow_streak = 0
        if d < tol:
            break
        prev = hist
    return histories, distances


def solve_global(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
                 grid: Grid1D, T: float, mode: str = "march", steps: int = 400,
                 safety: float = 0.5, k_max: int = 25, tol: float = 1e-8) -> MarginalHistory:
    """Solve on [0, T] either by one causal march or by window-restarted
    fixed-point iteration; both approximate the same solution and agree
    within discretization tolerance.

    In restart mode the horizon is cut into equal windows no longer than the
    contraction horizon T0 (D(T0) <= safety); each window runs the iteration
    with the memory of all earlier windows, prefix_memory of the carried
    running sum S_base, as a frozen drift.
    """
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if mode == "march":
        return march(p0, spec, chem, grid, TimeMesh(T, steps))
    if mode != "picard_with_restart":
        raise ValueError(f"unknown mode {mode!r}")

    memory = has_memory(spec)
    T0 = find_T0(spec, safety) if memory else math.inf
    n_win = 1 if not math.isfinite(T0) else max(1, math.ceil(T / T0 - 1e-12))
    steps_w = math.ceil(steps / n_win)
    M = steps_w * n_win
    mesh_g = TimeMesh(T, M)
    mesh_w = TimeMesh(T / n_win, steps_w)
    q = symbol_decay(spec.lam, mesh_g.dt, grid.wavenumbers)
    S_base = np.zeros(q.size, dtype=complex)

    P = np.empty((M + 1, grid.n))
    mass_log = np.empty(M + 1)
    P[0] = p0.values
    mass_log[0] = p0.mass()
    iterations = []
    for w in range(n_win):
        base = w * steps_w

        def prefix_drift(j, _base=base, _S=S_base):
            tg = mesh_g.nodes[_base + j]
            u = drift_b(spec, chem, float(tg)) if chem is not None else np.zeros(grid.n)
            if not memory or _base == 0:
                return u
            return u + prefix_memory(spec, grid, mesh_g.dt, _S, j)

        window_p0 = DensityField(grid, P[base], float(mesh_g.nodes[base]))
        hists, dists = picard(window_p0, spec, None, grid, mesh_w,
                              k_max=k_max, tol=tol, extra_drift=prefix_drift)
        last = hists[-1]
        P[base : base + steps_w + 1] = last.densities
        mass_log[base : base + steps_w + 1] = last.mass_log
        iterations.append(len(dists))
        if memory:
            S_base = running_sums(last.spectra()[:-1], q, S_base)[-1]
    meta = {"provenance": "picard_with_restart", "windows": n_win,
            "iterations_per_window": iterations,
            "tail_bound": grid.tail_bound(T, max(_variance(grid, p0.values), 1e-6))}
    return MarginalHistory(grid, mesh_g, P, mass_log, meta)
