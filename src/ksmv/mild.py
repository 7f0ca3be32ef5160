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

The chemical field reads this sum.  The solvers and the binned particles
carry more: the exogenous drift b = chi e^{-lam t} g(t,.) * c0' obeys
b_hat(t + dt) = q b_hat(t) exactly, so the whole drift u = b + B is one
spectral state per frequency,

    U_0 = b_hat(0),    U_{k+1} = q U_k + E1 p_hat_k,    u_k = irfft(U_k),

and b is evaluated once per solve.  It costs O(n) per step, so a march of
M steps costs O(M n log n).

At n of a few hundred a transform call costs several times its per-row
work, so the step loop counts calls.  A march step makes two: the forward
transform of the flux u_k p_k, and one two-row inverse that yields p_{k+1}
and the next drift u_{k+1}, whose state U_{k+1} is known by then.  A
fixed-point iterate's drift reads only the previous iterate, so the
iterate builds U for a block of up to 64 steps by the same recursion and
inverts the block in one call; each step then makes one forward and one
inverse call, 2 M + ceil(M / 64) calls per iterate.  Both give the values
of the loop that inverts u_k and p_{k+1} by one call each.

The one-step march multiplies by the heat symbol and adds the one-step
Duhamel drift term.  Mass is conserved exactly by construction: the heat
symbol is 1 and the derivative symbol 0 at frequency zero, so every step
keeps the zero mode of p_0's spectrum, which is normalized once to unit mass.

Fixed-point iteration (the contraction construction): iterate j marches the
linear equation whose drift runs the same recursion from U_0 but pushes the
rows of iterate j-1 (iterate 1: the history frozen at p_0), so only the
previous iterate is kept.  The discrete
system is lower triangular in time, so the iterates collapse onto the march
output; their successive L^1 distances contract at rate ~ D(T_0) when the
horizon satisfies D(T_0) < 1.  Longer horizons are covered by restarting:
the drift state U reached at a window's start (b plus the memory of every
earlier window) is that window's U_0, and after the window U is pushed on
over its accepted rows, so the concatenated discretization reproduces the
single global march.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    "march",
    "picard",
    "solve_global",
]


class SchemeInstabilityError(RuntimeError):
    """The march produced a non-finite state; names the offending step."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


class PicardDivergenceError(RuntimeError):
    """Successive iterate distances grew three times in a row."""

    def __init__(self, distances):
        super().__init__(f"fixed-point iteration diverging, distances {distances}")
        self.distances = list(distances)


@dataclass
class MarginalHistory:
    """The density family across the mesh: row k of `densities` is p_{t_k}.

    meta carries provenance and run diagnostics.  Instances are treated as
    immutable once built.
    """

    grid: Grid1D
    mesh: TimeMesh
    densities: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.mesh.steps + 1, self.grid.n)
        if self.densities.shape != expected:
            raise ValueError(f"density stack must have shape {expected}")
        self._spectra: Optional[np.ndarray] = None
        self._sums: Dict[float, np.ndarray] = {}

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

    def masses(self) -> np.ndarray:
        """Quadrature mass of each row."""
        return np.sum(self.densities, axis=1) * self.grid.h

    def max_mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses() - 1.0)))

    def scaling_table(self) -> dict:
        """sqrt(t_k) ||p_k||_inf and t_k^{1/4} ||p_k||_L2 per row (smoothing
        diagnostics; both stay bounded for integrable initial data)."""
        t = self.mesh.nodes
        linf = np.max(np.abs(self.densities), axis=1)
        l2 = np.sqrt(np.sum(self.densities ** 2, axis=1) * self.grid.h)
        return {"t": t, "sqrt_t_linf": np.sqrt(t) * linf, "qrt_t_l2": t ** 0.25 * l2}


def running_sums(spectra: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S_0 = 0 and S_{l+1} = q S_l + spectra[l]: the memory sums over the
    given rows, one more row than spectra."""
    S = np.empty((len(spectra) + 1, q.size), dtype=complex)
    S[0] = 0.0
    q = q.astype(complex)   # cast once, not in every product
    for l, row in enumerate(spectra):
        np.multiply(q, S[l], out=S[l + 1])
        S[l + 1] += row
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


def _drift_symbols(spec: KernelSpec, grid: Grid1D,
                   dt: float) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(q, E1) of the drift recursion at step dt; E1 is None without memory."""
    xi = grid.wavenumbers
    E1 = integrated_kernel_symbol(spec, dt, xi) if has_memory(spec) else None
    return symbol_decay(spec.lam, dt, xi), E1


def _start_drift(spec: KernelSpec, chem: Optional[InitialChemical], grid: Grid1D) -> np.ndarray:
    """U_0 = b_hat(0, .), the drift state at the first node."""
    if chem is None:
        return np.zeros(grid.wavenumbers.size, dtype=complex)
    return np.fft.rfft(drift_b(spec, chem, 0.0))


def _push(U: np.ndarray, q: np.ndarray, E1: Optional[np.ndarray],
          p_hat: np.ndarray) -> np.ndarray:
    """The drift state one node on: b_hat decays by q, the memory gains E1 p_hat."""
    return q * U if E1 is None else q * U + E1 * p_hat


# Picard steps whose drift one inverse transform call produces: the block
# buffers hold this many rows however many steps there are
_DRIFT_BLOCK = 64


def _run_mild(p0_values: np.ndarray, grid: Grid1D, mesh: TimeMesh, U: np.ndarray,
              q: np.ndarray, E1: Optional[np.ndarray],
              pushed: Optional[np.ndarray]) -> Tuple[np.ndarray, float]:
    """Shared march loop from the drift state U at t_0: u_k = irfft(U_k), then
    U_{k+1} = q U_k + E1 r_k, where r_k is the row being produced
    (pushed=None) or pushed[k].  Returns (density stack, sup of |drift|
    seen).

    Without pushed rows a step inverts its next row and next drift state in
    one two-row call; with them the drift of up to _DRIFT_BLOCK steps is
    built and inverted first (transform calls: module docstring).
    """
    n, M, dt = grid.n, mesh.steps, mesh.dt
    xi = grid.wavenumbers
    # the real symbols cast to complex once, not in every product
    heat, q = np.exp(-xi * xi * dt / 2.0).astype(complex), q.astype(complex)
    dt_deriv = dt * (1j * xi)
    P = np.empty((M + 1, n))
    P[0] = p0_values
    cur = np.fft.rfft(P[0])
    cur /= cur[0].real * grid.h   # unit mass once: heat[0] = 1 and dt_deriv[0] = 0 keep cur[0]
    prod, flux, spare = np.empty(n), np.empty_like(cur), np.empty_like(cur)

    def advance(k: int, u: np.ndarray, cur: np.ndarray):
        """cur = P_hat_k becomes P_hat_{k+1}, by the drift u = u_k."""
        np.multiply(u, P[k], out=prod)
        np.fft.rfft(prod, out=flux)
        np.multiply(dt_deriv, flux, out=flux)
        np.subtract(cur, flux, out=flux)
        np.multiply(heat, flux, out=cur)
        if not np.isfinite(cur).all():
            raise SchemeInstabilityError(k + 1)

    # a blow-up overflows in a step first; the step's finiteness check names it
    with np.errstate(over="ignore", invalid="ignore"):
        if pushed is None:
            # pair = [P_hat_k, U_k] is inverted to [P_k, u_k] in one call
            pair = np.stack([cur, U])
            inv = np.empty((2, n))
            np.fft.irfft(U, n, out=inv[1])
            u, abs_u, sup = inv[1], np.empty(n), np.zeros(n)
            for k in range(M):
                np.abs(u, out=abs_u)
                np.maximum(sup, abs_u, out=sup)
                np.multiply(q, pair[1], out=pair[1])
                if E1 is not None:
                    np.multiply(E1, pair[0], out=spare)
                    np.add(pair[1], spare, out=pair[1])
                advance(k, u, pair[0])
                np.fft.irfft(pair, n, axis=1, out=inv)
                P[k + 1] = inv[0]
            return P, float(np.max(sup))

        # row j of U_block is U_{k0 + j}; row j + 1 starts as E1 pushed[k0 + j]
        rows = min(M, _DRIFT_BLOCK)
        U_block, u_block = np.empty((rows + 1, cur.size), dtype=complex), np.empty((rows, n))
        U_block[0] = U
        sup = 0.0
        for k0 in range(0, M, rows):
            m = min(rows, M - k0)
            if E1 is not None:
                np.multiply(E1, pushed[k0 : k0 + m], out=U_block[1 : m + 1])
            for j in range(m):
                if E1 is None:
                    np.multiply(q, U_block[j], out=U_block[j + 1])
                else:
                    np.multiply(q, U_block[j], out=spare)
                    np.add(spare, U_block[j + 1], out=U_block[j + 1])
            np.fft.irfft(U_block[:m], n, axis=1, out=u_block[:m])
            sup = max(sup, float(np.max(np.abs(u_block[:m]))))
            for j in range(m):
                advance(k0 + j, u_block[j], cur)
                np.fft.irfft(cur, n, out=P[k0 + j + 1])
            U_block[0] = U_block[m]
        return P, sup


# how far the initial density's quadrature mass may sit from 1 on load
_P0_MASS_TOL = 1e-3


def _check_p0(p0: DensityField, grid: Grid1D):
    if p0.grid != grid:
        raise ValueError("initial density lives on a different grid")
    m = p0.mass()
    if abs(m - 1.0) > _P0_MASS_TOL:
        raise ValueError(f"initial density mass {m:.6g} is not 1")


def march(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
          grid: Grid1D, mesh: TimeMesh) -> MarginalHistory:
    """Causal march of the mild equation over the whole mesh.

    Step k reads u_k = b(t_k,.) + B(t_k,.; rows so far) off the drift state
    U_k (module docstring), then applies the one-step Duhamel update

        p_{k+1} = g(dt,.) * p_k  -  dt (d/dx g(dt,.)) * (u_k p_k),

    whose advection direction matches the sign of u (a positive drift moves
    mass right; checked against the linear-drift closed form in the tests).
    U is pushed on by the row just used, O(n) per step.
    """
    _check_p0(p0, grid)
    q, E1 = _drift_symbols(spec, grid, mesh.dt)
    P, sup_drift = _run_mild(p0.values, grid, mesh, _start_drift(spec, chem, grid),
                             q, E1, None)
    var0 = _variance(grid, p0.values)
    meta = {"provenance": "march", "sup_drift": sup_drift,
            "tail_bound": grid.tail_bound(mesh.horizon, max(var0, 1e-6))}
    return MarginalHistory(grid, mesh, P, meta)


def _variance(grid: Grid1D, values: np.ndarray) -> float:
    m1 = grid.integrate(grid.x * values)
    m2 = grid.integrate(grid.x ** 2 * values)
    return float(m2 - m1 * m1)


def _sup_l1_distance(A: np.ndarray, B: np.ndarray, h: float) -> float:
    diff = A - B
    np.abs(diff, out=diff)   # one A-sized buffer, not two
    return float(np.max(np.sum(diff, axis=1)) * h)


def picard(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
           grid: Grid1D, mesh: TimeMesh, k_max: int = 25, tol: float = 1e-8,
           start_drift: Optional[np.ndarray] = None) -> Tuple[MarginalHistory, List[float]]:
    """Fixed-point iteration on the contraction horizon; returns the last
    iterate and the distances between consecutive iterates.

    Iterate j runs the march's drift recursion from the same U_0 but pushes
    the rows of iterate j-1 instead of its own; iterate 1 pushes the history
    frozen at p_0.  Only the previous iterate's rows and spectra are kept.
    Distances are sup over nodes of the row L^1 difference between
    consecutive iterates.  Stops at tol or k_max; three consecutive growing
    distances raise PicardDivergenceError.

    start_drift is U_0, the rfft of the total drift at the first node; by
    default it is b(0,.) of chem.  The window restart passes the state it
    carries (b plus the earlier windows' memory) with chem None.
    """
    _check_p0(p0, grid)
    if start_drift is not None and chem is not None:
        raise ValueError("give chem or start_drift, not both")
    q, E1 = _drift_symbols(spec, grid, mesh.dt)
    D = horizon_D(spec, mesh.horizon)
    if D >= 1.0:
        warnings.warn(f"horizon has D(T)={D:.3g} >= 1; iteration may not contract",
                      RuntimeWarning, stacklevel=2)
    U0 = _start_drift(spec, chem, grid) if start_drift is None else start_drift

    # iterate 0 is p_0 on every row: one row, broadcast
    prev = p0.values
    prev_hat = np.broadcast_to(np.fft.rfft(prev), (mesh.steps + 1, grid.wavenumbers.size))
    distances: List[float] = []
    grow_streak = 0
    for j in range(1, k_max + 1):
        P, sup_drift = _run_mild(p0.values, grid, mesh, U0, q, E1, prev_hat)
        d = _sup_l1_distance(P, prev, grid.h)
        distances.append(d)
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise PicardDivergenceError(distances)
        else:
            grow_streak = 0
        if d < tol or j == k_max:
            break
        prev, prev_hat = P, np.fft.rfft(P, axis=1)
    return MarginalHistory(grid, mesh, P, {"provenance": f"iterate-{j}",
                                           "sup_drift": sup_drift}), distances


def solve_global(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
                 grid: Grid1D, T: float, mode: str = "march", steps: int = 400,
                 safety: float = 0.5, k_max: int = 25, tol: float = 1e-8) -> MarginalHistory:
    """Solve on [0, T] either by one causal march or by window-restarted
    fixed-point iteration; both approximate the same solution and agree
    within discretization tolerance.

    In restart mode the horizon is cut into equal windows no longer than the
    contraction horizon T0 (D(T0) <= safety).  Each window runs the iteration
    from the drift state U carried to its start, which holds b and the memory
    of all earlier windows; U is then pushed on over the window's accepted
    rows.
    """
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if mode == "march":
        return march(p0, spec, chem, grid, TimeMesh(T, steps))
    if mode != "picard_with_restart":
        raise ValueError(f"unknown mode {mode!r}")

    T0 = find_T0(spec, safety) if has_memory(spec) else math.inf
    n_win = 1 if not math.isfinite(T0) else max(1, math.ceil(T / T0 - 1e-12))
    steps_w = math.ceil(steps / n_win)
    M = steps_w * n_win
    mesh_g = TimeMesh(T, M)
    mesh_w = TimeMesh(T / n_win, steps_w)
    q, E1 = _drift_symbols(spec, grid, mesh_w.dt)
    U = _start_drift(spec, chem, grid)

    P = np.empty((M + 1, grid.n))
    P[0] = p0.values
    iterations = []
    for w in range(n_win):
        base = w * steps_w
        window_p0 = DensityField(grid, P[base], float(mesh_g.nodes[base]))
        last, dists = picard(window_p0, spec, None, grid, mesh_w,
                             k_max=k_max, tol=tol, start_drift=U)
        P[base : base + steps_w + 1] = last.densities
        iterations.append(len(dists))
        for p_hat in last.spectra()[:-1]:
            U = _push(U, q, E1, p_hat)
    meta = {"provenance": "picard_with_restart", "windows": n_win,
            "iterations_per_window": iterations,
            "tail_bound": grid.tail_bound(T, max(_variance(grid, p0.values), 1e-6))}
    return MarginalHistory(grid, mesh_g, P, meta)
