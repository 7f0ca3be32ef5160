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

The exogenous drift b = chi e^{-lam t} g(t,.) * c0' obeys
b_hat(t + dt) = q b_hat(t) exactly, so the whole drift u = b + B is one
spectral state per frequency,

    U_0 = b_hat(0),    U_{k+1} = q U_k + E1 p_hat_k,    u_k = irfft(U_k),

and b is evaluated once per solve.  It costs O(n) per step, so a march of
M steps costs O(M n log n).  `kernel._push` is the one place U advances:
the march, the fixed-point lanes (and with them the window restart's
hand-off), the binned particles (ksmv.particle) and the chemical field's
c and d/dx c (ksmv.field) all push through it, in place.

At n of a few hundred a transform call costs several times its per-row
work, so the step loop counts calls and rows.  A march step makes two: the
forward transform of the flux u_k p_k, one row, and one two-row inverse
that yields p_{k+1} and the next drift u_{k+1}, whose state U_{k+1} is
known by then.  The fixed-point iterates run the same loop as a batch of J
lanes advancing in lockstep (below): each lane pushes a spectrum straight
from the buffer the inverse reads, so a step's forward call transforms the
J fluxes alone, J rows, and its inverse the J next spectra and J drift
states.  A march, or a batch of any width, of M steps thus makes 2 M
transform calls besides its setup (a batch one more: the inverse that
gives its last iterate's rows when they are read), and gives the values of
the loop that transforms every row by a call of its own.

The one-step march multiplies by the heat symbol and adds the one-step
Duhamel drift term.  Mass is conserved exactly by construction: the heat
symbol is 1 and the derivative symbol 0 at frequency zero, so every step
keeps the zero mode of p_0's spectrum, which is normalized once to unit mass.

Fixed-point iteration (the contraction construction): iterate j marches the
linear equation whose drift runs the same recursion from U_0 but pushes the
spectra of iterate j-1 (iterate 1: the history frozen at p_0, whose
spectrum at every node is the march's unit-mass p_hat_0).  Step k of
iterate j reads only spectrum k of iterate j-1, which that iterate made at
its step k-1, so a batch of consecutive iterates runs one step loop in
lockstep, each lane pushing its predecessor's spectrum (pipelined waveform
relaxation: Lelarasmee, Ruehli & Sangiovanni-Vincentelli, IEEE TCAD 1,
1982), at 2 transform calls per step for the whole batch.  Only one batch
of iterates is kept; its last iterate keeps its spectra in place of its
rows, for a continuation batch to push.  The discrete system is lower
triangular in time, so the iterates collapse onto the march output, the
prefix exactly: iterate j pushes the march's own spectra up to node j, so
its rows 0..j+1 are the march's bit for bit.  Their successive L^1
distances contract at rate ~ D(T_0) when the horizon satisfies D(T_0) < 1.
Longer horizons are covered by restarting: the drift state U reached at a
window's start (b plus the memory of every earlier window) is that
window's U_0, and the window hands on its end state, U_0 pushed over its
accepted iterate's spectra.  The batch pushes that state in its step loop:
it is the next lane's final state, or one more state pushed beside the
last lane.  So the concatenated discretization reproduces the single
global march.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .grid import Grid1D, TimeMesh, DensityField
from .kernel import (KernelSpec, has_memory, horizon_D, find_T0,
                     integrated_kernel_symbol, symbol_decay, _push)
from .field import InitialChemical, drift_b

__all__ = [
    "MarginalHistory",
    "SchemeInstabilityError",
    "PicardDivergenceError",
    "RestartTooLargeError",
    "march",
    "picard",
    "solve_global",
]


class SchemeInstabilityError(RuntimeError):
    """The march produced a non-finite state, or the restart a row whose mass
    roundoff moved; names the offending step."""

    def __init__(self, step: int, what: str = "non-finite state"):
        super().__init__(f"{what} at step {step}")
        self.step = step


class PicardDivergenceError(RuntimeError):
    """Successive iterate distances grew three times in a row."""

    def __init__(self, distances):
        super().__init__(f"fixed-point iteration diverging, distances {distances}")
        self.distances = list(distances)


class RestartTooLargeError(MemoryError):
    """The window restart's row array, one row per node of all its windows,
    cannot be allocated; raised before any window runs."""

    def __init__(self, windows: int, T0: float, shape: Tuple[int, int]):
        # as Decimals, counts past the float range take the format too; the
        # module is imported here, as only this refusal needs it
        from decimal import Decimal
        rows, cols = shape
        super().__init__(f"{Decimal(windows):.3g} windows of at most T0 = {T0:.3g}, whose "
                         f"({Decimal(rows):.3g}, {cols}) row array cannot be allocated")
        self.windows, self.T0 = windows, T0


@dataclass
class MarginalHistory:
    """The density family across the mesh: row k of `densities` is p_{t_k}.

    meta carries run diagnostics.  Instances are treated as immutable once built.
    """

    grid: Grid1D
    mesh: TimeMesh
    densities: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.mesh.steps + 1, self.grid.n)
        if self.densities.shape != expected:
            raise ValueError(f"density stack must have shape {expected}")

    def require_rows(self, k: int):
        if not 0 <= k <= self.mesh.steps:
            raise ValueError(f"node index {k} outside 0..{self.mesh.steps}")
        # min propagates a NaN, and builds no mask of the rows
        if np.isnan(self.densities[: k + 1].min()):
            raise ValueError(f"history rows up to {k} are not all populated")

    def masses(self) -> np.ndarray:
        """Quadrature mass of each row."""
        return np.sum(self.densities, axis=1) * self.grid.h

    def max_mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses() - 1.0)))


def _drift(spec: KernelSpec, chem: Optional[InitialChemical], grid: Grid1D,
           dt: float) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(U_0, q, E1) of the drift recursion at step dt: U_0 = b_hat(0, .), the
    drift state at the first node (zero without chem), and E1 None without
    memory.  A b(0, .) past the float range is a non-finite state at step 0."""
    xi = grid.wavenumbers
    U0 = np.zeros(xi.size, dtype=complex)
    if chem is not None:
        b0 = drift_b(spec, chem, 0.0)
        if not np.isfinite(b0).all():
            raise SchemeInstabilityError(0)
        U0 = np.fft.rfft(b0)
    E1 = integrated_kernel_symbol(spec, dt, xi) if has_memory(spec) else None
    return U0, symbol_decay(spec.lam, dt, xi), E1


def _unit_spectrum(p0_values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """rfft of p_0 scaled to unit mass, once: the heat symbol's 1 and the
    derivative symbol's 0 at frequency zero keep that mass in every step."""
    p_hat = np.fft.rfft(p0_values)
    p_hat /= p_hat[0].real * grid.h
    return p_hat


def _run_mild(p0_values: np.ndarray, grid: Grid1D, mesh: TimeMesh, U: np.ndarray,
              q: np.ndarray, E1: Optional[np.ndarray], lead: Optional[np.ndarray] = None,
              lanes: int = 1) -> Tuple[List[np.ndarray], List[float], Optional[int], np.ndarray]:
    """Shared step loop of `lanes` solutions, all from p_0 and the drift
    state U at t_0: u_k = irfft(U_k), then U_{k+1} = q U_k + E1 r_k by
    _push on the flat view of the lanes' states.

    With lead None there is one lane and r_k is the spectrum it produces
    (the march).  Otherwise lane 0 pushes row k of the lead's stack of
    spectra (a broadcast row for picard's iterate 0), and lane j the spectrum
    lane j - 1 holds at step k, so the lanes are consecutive fixed-point
    iterates advancing in lockstep; no pushed row is transformed (transform
    calls: module docstring).

    Returns (one stack per lane, sup of |drift| per lane, failure, ends).
    A stack holds the lane's density rows, except that the last lane of a
    batch keeps its spectra instead, P_hat_0..P_hat_M.  ends[j] is the
    state U_M pushed over lane j's spectra 0..M-1: the next lane's final
    state, and for the last lane (and the march) one more state pushed
    beside the lanes.  A lane whose state turns non-finite ends the lanes
    kept at the one before it, and failure is the step it failed at (None
    if every lane stayed finite); when lane 0 fails the step raises
    SchemeInstabilityError.
    """
    n, M, dt, J = grid.n, mesh.steps, mesh.dt, lanes
    xi = grid.wavenumbers
    batch = lead is not None
    extra = int(batch)   # a batch's lead spectrum and its end state
    # the symbols cast to complex once and tiled over the lanes (the states
    # over one more in a batch), so every product below runs on flat views
    # of the lanes' rows, as for one lane
    # xi^2 overflows only where the heat symbol is 0, and dt xi where a step
    # blows up, which the step's finiteness check names
    with np.errstate(over="ignore"):
        heat = np.tile(np.exp(-xi * xi * dt / 2.0).astype(complex), J)
        dt_deriv = np.tile(dt * (1j * xi), J)
    q = np.tile(q.astype(complex), J + extra)
    E1 = None if E1 is None else np.tile(E1, J + extra)
    # hats = [lead; P_hat_k of the lanes; U_k of the lanes; end state] in a
    # batch, [P_hat_k; U_k] in the march: state i pushes spectrum i, and
    # pair = [P_hat_k; U_k] is inverted to inv = [P_k; u_k] in one call
    hats = np.empty((2 * (J + extra), xi.size), dtype=complex)
    spectra, state_rows = hats[:J + extra], hats[J + extra:]
    pushed, states = spectra.reshape(-1), state_rows.reshape(-1)
    pair = hats[extra:extra + 2 * J]
    cur = pair[:J].reshape(-1)
    pair[:J] = _unit_spectrum(p0_values, grid)
    state_rows[:] = U
    inv = np.empty((2 * J, n))
    inv[:J], inv[J:] = p0_values, np.fft.irfft(U, n)
    now, u = inv[:J].reshape(-1), inv[J:].reshape(-1)
    # the forward call transforms the J fluxes u_k p_k alone
    fwd, fwd_hat = np.empty((J, n)), np.empty((J, xi.size), dtype=complex)
    fluxes, flux = fwd.reshape(-1), fwd_hat.reshape(-1)
    rows = [np.empty((M + 1, n)) for _ in range(J - extra)]
    stores = list(zip(rows, inv))
    if batch:   # the last lane keeps its spectra, which the next batch pushes
        rows.append(np.empty((M + 1, xi.size), dtype=complex))
        stores.append((rows[-1], pair[J - 1]))
    for P, row in stores:
        P[0] = row
    spare = np.empty_like(states)
    abs_u, sup = np.empty_like(u), np.zeros_like(u)
    kept, failure = J, None

    # a blow-up overflows in a step first; the step's finiteness check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            np.abs(u, out=abs_u)
            np.maximum(sup, abs_u, out=sup)
            if batch:
                hats[0] = lead[k]
            np.multiply(u, now, out=fluxes)
            np.fft.rfft(fwd, axis=1, out=fwd_hat)
            _push(states, q, E1, pushed, spare)
            # cur = P_hat_k becomes P_hat_{k+1}, by the drift u = u_k
            np.multiply(dt_deriv, flux, out=flux)
            np.subtract(cur, flux, out=flux)
            np.multiply(heat, flux, out=cur)
            if not np.isfinite(cur).all():
                bad = int(np.argmin(np.isfinite(pair[:J]).all(axis=1)))
                if bad < kept:
                    kept, failure = bad, k + 1
                if kept == 0:
                    raise SchemeInstabilityError(failure)
            np.fft.irfft(pair, n, axis=1, out=inv)
            for P, row in stores:
                P[k + 1] = row
    ends = state_rows[extra:extra + kept].copy()
    return rows[:kept], np.max(sup.reshape(J, n)[:kept], axis=1).tolist(), failure, ends


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
    (P,), (sup_drift,), _, _ = _run_mild(p0.values, grid, mesh,
                                         *_drift(spec, chem, grid, mesh.dt))
    var0 = _variance(grid, p0.values)
    meta = {"sup_drift": sup_drift, "tail_bound": grid.tail_bound(mesh.horizon, max(var0, 1e-6))}
    return MarginalHistory(grid, mesh, P, meta)


def _variance(grid: Grid1D, values: np.ndarray) -> float:
    """p_0's variance, which reads nan where x^2 overflows (|x| past 1e154)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = grid.integrate(grid.x * values)
        m2 = grid.integrate(grid.x ** 2 * values)
    return float(m2 - m1 * m1)


def _sup_l1_distance(A: np.ndarray, B: np.ndarray, h: float) -> float:
    diff = A - B
    np.abs(diff, out=diff)   # one A-sized buffer, not two
    return float(np.max(np.sum(diff, axis=1)) * h)


# iterates in picard's first batch; continuation batches run one fewer
_FIRST_WIDTH = 4


def _check_iteration(k_max: int, tol: float):
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")


def picard(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
           grid: Grid1D, mesh: TimeMesh, k_max: int = 25, tol: float = 1e-8,
           start_drift: Optional[np.ndarray] = None) -> Tuple[MarginalHistory, List[float]]:
    """Fixed-point iteration on the contraction horizon; returns the last
    iterate and the distances between consecutive iterates.

    Iterate j runs the march's drift recursion from the same U_0 but pushes
    the spectra of iterate j-1 instead of its own; iterate 1 pushes the
    history frozen at p_0, the march's unit-mass p_hat_0 at every node.
    Distances are sup over nodes of the row L^1 difference
    between consecutive iterates.  Stops at the first iterate closer than
    tol to its predecessor, or at iterate k_max; three consecutive growing
    distances raise PicardDivergenceError.  tol = 0 runs all k_max iterates.

    Step k of iterate j reads only spectrum k of iterate j-1, so the
    iterates advance in lockstep, a batch of them per step loop.  The first batch
    runs _FIRST_WIDTH iterates (2 without memory; fewer if k_max comes
    first) and pushes p_hat_0; the stopping rule then reads their distances
    in order, so the result is the iterate the one-at-a-time rule stops at,
    and the iterates after it are discarded.  If no iterate of a batch
    stops the rule, a continuation batch of one fewer iterates (at least
    one) pushes the spectra the batch's last iterate kept, so every batch
    holds at most _FIRST_WIDTH iterates' rows or spectra, whatever k_max is.

    The result's meta holds end_drift, U_0 pushed over the result's spectra
    0..M-1: the drift state at the window's end, which the restart hands to
    the next window.

    start_drift is U_0, the rfft of the total drift at the first node; by
    default it is b(0,.) of chem.  The window restart passes the state it
    carries (b plus the earlier windows' memory) with chem None.
    """
    _check_p0(p0, grid)
    _check_iteration(k_max, tol)
    if start_drift is not None and chem is not None:
        raise ValueError("give chem or start_drift, not both")
    U0, q, E1 = _drift(spec, chem, grid, mesh.dt)
    if start_drift is not None:
        U0 = start_drift
    D = horizon_D(spec, mesh.horizon)
    if D >= 1.0:
        warnings.warn(f"horizon has D(T)={D:.3g} >= 1; iteration may not contract",
                      RuntimeWarning, stacklevel=2)

    # iterate 0 is p_0 on every row: one row and its spectrum, broadcast,
    # which the first batch's lane 0 pushes
    prev = np.broadcast_to(p0.values, (mesh.steps + 1, grid.n))
    lead = np.broadcast_to(_unit_spectrum(p0.values, grid), (mesh.steps + 1, grid.n // 2 + 1))
    distances: List[float] = []
    grow_streak = 0
    # without memory every iterate from the first on is the same history, so
    # the rule stops at iterate 2 and a wider first batch would be discarded
    width = lanes = _FIRST_WIDTH if E1 is not None else 2
    while True:
        lanes = min(lanes, k_max - len(distances))
        batch, sups, failure, ends = _run_mild(p0.values, grid, mesh, U0, q, E1, lead, lanes)
        if prev is None:   # a continuation: the lead's rows, back from its spectra
            prev, lead = _rows(lead, p0.values), None
        for j, sup_drift in enumerate(sups):
            # each lane's stack is dropped once read: prev is all that stays
            P, batch[j] = batch[j], None
            if P.dtype == complex:   # the batch's last lane keeps its spectra
                lead, P = P, _rows(P, p0.values)
            d = _sup_l1_distance(P, prev, grid.h)
            distances.append(d)
            if len(distances) >= 2 and distances[-1] > distances[-2]:
                grow_streak += 1
                if grow_streak >= 3:
                    raise PicardDivergenceError(distances)
            else:
                grow_streak = 0
            if d < tol or len(distances) == k_max:
                meta = {"sup_drift": sup_drift, "end_drift": ends[j]}
                return MarginalHistory(grid, mesh, P, meta), distances
            prev = P
        if failure is not None:
            raise SchemeInstabilityError(failure)
        # the next batch pushes the lead's spectra; their rows are rebuilt
        # after it, so no batch holds them beside the spectra
        prev = P = None
        lanes = max(width - 1, 1)


def _rows(spectra: np.ndarray, p0_values: np.ndarray) -> np.ndarray:
    """The density rows of a lane kept as spectra: p_0 and one batched
    inverse of P_hat_1..P_hat_M, the rows the step loop's inverse makes."""
    P = np.empty((len(spectra), p0_values.size))
    P[0] = p0_values
    np.fft.irfft(spectra[1:], p0_values.size, axis=1, out=P[1:])
    return P


def solve_global(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
                 grid: Grid1D, T: float, mode: str = "march", steps: int = 400,
                 safety: float = 0.5, k_max: int = 25, tol: float = 1e-8) -> MarginalHistory:
    """Solve on [0, T] either by one causal march or by window-restarted
    fixed-point iteration; both approximate the same solution and agree
    within discretization tolerance.

    In restart mode the horizon is cut into equal windows no longer than the
    contraction horizon T0 (D(T0) <= safety).  Each window runs the iteration
    from the drift state U carried to its start, which holds b and the memory
    of all earlier windows, and hands on its end state.  A row array over
    all windows that cannot be allocated raises RestartTooLargeError before
    any window runs.
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
    U = _drift(spec, chem, grid, mesh_w.dt)[0]

    try:
        P = np.empty((M + 1, grid.n))
    except (ValueError, MemoryError) as exc:   # too many elements, or too many bytes
        raise RestartTooLargeError(n_win, T0, (M + 1, grid.n)) from exc
    P[0] = p0.values
    iterations = []
    for w in range(n_win):
        base = w * steps_w
        window_p0 = DensityField(grid, P[base], float(mesh_g.nodes[base]))
        mass = window_p0.mass()
        if abs(mass - 1.0) > _P0_MASS_TOL:   # rows so large that roundoff moved their sum
            raise SchemeInstabilityError(base, f"a row of mass {mass:.6g}")
        last, dists = picard(window_p0, spec, None, grid, mesh_w,
                             k_max=k_max, tol=tol, start_drift=U)
        P[base : base + steps_w + 1] = last.densities
        iterations.append(len(dists))
        U = last.meta["end_drift"]
        del last   # its rows, freed before the next window's batch
    meta = {"windows": n_win, "iterations_per_window": iterations,
            "tail_bound": grid.tail_bound(T, max(_variance(grid, p0.values), 1e-6))}
    return MarginalHistory(grid, mesh_g, P, meta)
