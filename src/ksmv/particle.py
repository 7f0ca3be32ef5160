"""Interacting-particle simulation of the memory-drift dynamics.

Each of N particles follows an Euler scheme for

    dX^i = [ b(t, X^i) + (1/N) sum_j int_0^t K_{t-s}(X^i - X^j_s) ds ] dt + dW^i,

where the memory integral runs over the whole recorded past of every other
particle.  The time discretization of the singular integral copies
mild.memory_drift exactly: each past position is frozen over its subinterval
and the kernel's time profile is integrated over that subinterval in closed
form, so the particle system and the density solver share the same
quadrature bias and comparisons isolate Monte Carlo error.  Both
evaluators below apply this one rule.

Two interaction evaluators:

* "pairwise": the literal sum in x-space, J_{m dt} - J_{(m-1) dt} of
  kernel.time_integrated_kernel for the subinterval of age m, over all
  pairs and past rows: O(N^2 k) at step k, O(N^2 M^2) total.  Honest
  baseline, only viable for small N.
* "binned": each step deposits the particles onto the density grid
  (cloud-in-cell) and folds the deposit's spectrum into the running memory
  sum of mild; drifts come back to the particles by linear interpolation.
  O(N + n log n) per step, with an additional O(h^2) projection bias.

Both run on one Euler stepper that takes a drift callback and keeps only
the requested path rows.

Randomness is counter-based (Philox, Salmon et al., SC'11) and step-major:
step k of phase p owns the stream Philox(key=[seed, p], counter=[0, k, 0, 0]),
with phase 0 for the initial inverse-CDF uniforms (k = 0) and phase 1 for
the path noise of step k.  The particle with key kappa takes variate kappa
of each stream, so a step draws max(keys) + 1 values and indexes them by
the keys; no (M, N) noise array is ever held.  Consequences, by
construction:

* paths are bit-reproducible for fixed (seed, keys, mesh, parameters), at
  any thread count;
* permuting the particle keys permutes the trajectories exactly;
* the default keys arange(N) nest: a smaller run's streams are a prefix of
  a larger run's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid1D, TimeMesh, DensityField
from .kernel import (KernelSpec, has_memory, integrated_kernel_symbol, symbol_decay,
                     time_integrated_kernel)
from .field import InitialChemical, drift_b

__all__ = [
    "ParticleEnsemble",
    "simulate_particles",
    "simulate_bounded_drift",
    "kde_density",
]


@dataclass
class ParticleEnsemble:
    """Simulated particle paths: row k of positions is the ensemble at
    snapshot_times[k] (all mesh nodes unless only some rows were stored).

    Immutable after simulation.  x0 is set when the start is deterministic
    (all particles at one point), else None.  drift_bound is the declared
    sup-norm bound on the total drift when the caller provides one.
    """

    mesh: TimeMesh
    positions: np.ndarray
    seed: int
    grid: Optional[Grid1D] = None
    drift_bound: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.positions.ndim != 2:
            raise ValueError("positions must be a (rows, N) array")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @property
    def x0(self) -> Optional[float]:
        row0 = self.positions[0]
        return float(row0[0]) if np.ptp(row0) == 0.0 else None

    @property
    def snapshot_times(self) -> np.ndarray:
        return self.meta.get("row_times", self.mesh.nodes)

    def marginal_variance(self, row: int) -> float:
        return float(np.var(self.positions[row]))


_INIT, _NOISE = 0, 1   # stream phases: initial uniforms, path noise
_LEGACY_BLOCK = 20000


def _keyed_draws(seed: int, phase: int, k: int, keys: np.ndarray) -> np.ndarray:
    """Variates keys[i] of the counter-based stream of step k and phase:
    uniforms on [0, 1) for _INIT, standard normals for _NOISE.  Draws
    max(keys) + 1 values, so the cost is O(max key + 1)."""
    gen = np.random.Generator(np.random.Philox(key=[seed, phase], counter=[0, k, 0, 0]))
    width = int(keys.max()) + 1
    draws = gen.random(width) if phase == _INIT else gen.standard_normal(width)
    return draws[keys]


def _particle_keys(particle_keys: Optional[np.ndarray], N: int) -> np.ndarray:
    keys = np.arange(N) if particle_keys is None else np.asarray(particle_keys)
    if keys.shape != (N,):
        raise ValueError("particle_keys must have shape (N,)")
    if not np.issubdtype(keys.dtype, np.integer) or int(keys.min()) < 0:
        raise ValueError(f"particle_keys must be non-negative integers, got dtype "
                         f"{keys.dtype} with minimum {keys.min()}")
    return keys


def _euler_paths(x0: np.ndarray, drift: Callable[[int, np.ndarray], np.ndarray],
                 mesh: TimeMesh, seed: int, keys: np.ndarray,
                 store_rows: Optional[Sequence[int]]) -> Tuple[List[int], np.ndarray]:
    """Euler-Maruyama X_{k+1} = X_k + dt drift(k, X_k) + sqrt(dt) xi_k, with
    xi_k drawn step by step from the step-k noise stream.

    Keeps only the mesh rows in store_rows (default all; row 0 always) and
    returns them with the (rows, N) array, so working memory is O(N) plus
    the stored rows.  The positions passed to drift live in a buffer that
    later steps overwrite: a drift that keeps them must copy them.
    """
    M, dt = mesh.steps, mesh.dt
    rows = sorted({0, *(int(r) for r in store_rows)}) if store_rows is not None \
        else list(range(M + 1))
    if rows[0] < 0 or rows[-1] > M:
        raise ValueError(f"store_rows must lie in [0, {M}], got {rows[0]}..{rows[-1]}")
    row_of = {r: i for i, r in enumerate(rows)}
    out = np.empty((len(rows), x0.size))
    out[0] = x0
    # x_{k+1} = (x_k + dt u_k) + sqrt(dt) xi_k, evaluated into two position
    # buffers used in turn and one step buffer
    x, nxt, step = x0.copy(), np.empty_like(x0), np.empty_like(x0)
    sqdt = math.sqrt(dt)
    for k in range(M):
        np.multiply(drift(k, x), dt, out=step)
        np.add(x, step, out=nxt)
        np.multiply(_keyed_draws(seed, _NOISE, k, keys), sqdt, out=step)
        nxt += step
        x, nxt = nxt, x
        if k + 1 in row_of:
            out[row_of[k + 1]] = x
    return rows, out


def _inverse_cdf_sampler(p0: DensityField) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse-CDF sampler from the gridded density (trapezoid CDF on cell
    edges; exact for the grid-projected law)."""
    grid = p0.grid
    edges = np.concatenate([grid.x - grid.h / 2.0, [grid.x[-1] + grid.h / 2.0]])
    cdf = np.concatenate([[0.0], np.cumsum(np.maximum(p0.values, 0.0)) * grid.h])
    cdf = cdf / cdf[-1]
    return lambda u: np.interp(u, cdf, edges)


def simulate_particles(N: int, p0: DensityField, spec: KernelSpec,
                       chem: Optional[InitialChemical], mesh: TimeMesh,
                       seed: int, interaction: str = "pairwise",
                       particle_keys: Optional[np.ndarray] = None,
                       store_rows: Optional[Sequence[int]] = None) -> ParticleEnsemble:
    """Simulate the interacting system.

    interaction chooses the memory-sum evaluator ("pairwise" or "binned").
    particle_keys (non-negative integers, default arange(N)) assigns each
    particle its variate in the per-step streams; permuting it permutes the
    trajectories.  Each step costs O(max key + 1) to draw.  store_rows
    selects which mesh rows to keep (default all; row 0 always); the stored
    rows do not depend on it.  The binned evaluator then works in O(N) memory
    plus those rows, while the pairwise one keeps every past row it sums over.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if interaction not in ("pairwise", "binned"):
        raise ValueError(f"unknown interaction evaluator {interaction!r}")
    keys = _particle_keys(particle_keys, N)
    grid, dt, nodes = p0.grid, mesh.dt, mesh.nodes
    interacting = has_memory(spec)
    binned = interaction == "binned"
    xi = grid.wavenumbers
    if binned and interacting:
        E1 = integrated_kernel_symbol(spec, dt, xi)
        q = symbol_decay(spec.lam, dt, xi)
        cic, memory = _CloudInCell(grid, N), np.empty(N)
    S = np.zeros(xi.size, dtype=complex)
    past: List[np.ndarray] = []

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        nonlocal S
        u = drift_b(spec, chem, float(nodes[k]), x) if chem is not None else np.zeros(N)
        if not interacting:
            return u
        if binned:
            cic.locate(x)
            if k > 0:
                u = np.add(u, cic.interp(np.fft.irfft(E1 * S, grid.n), memory), out=memory)
            S = q * S + np.fft.rfft(cic.deposit())
        else:
            past.append(x.copy())
            if k > 0:
                u = u + _pairwise_memory(spec, past, dt)
        return u

    x0 = _inverse_cdf_sampler(p0)(_keyed_draws(seed, _INIT, 0, keys))
    rows, X = _euler_paths(x0, drift, mesh, seed, keys, store_rows)
    meta = {"init_sampling": "inverse-cdf", "interaction": interaction,
            "row_times": nodes[rows]}
    return ParticleEnsemble(mesh, X, seed, grid=grid, meta=meta)


def _pairwise_memory(spec: KernelSpec, past: Sequence[np.ndarray], dt: float) -> np.ndarray:
    """(1/N) sum_j sum_{m=1}^{k} [J_{m dt} - J_{(m-1) dt}](X^i_k - X^j_{k-m}),
    J_t = int_0^t K_s ds and J_0 = 0: particle i now (past[k]) against
    particle j frozen over the subinterval of age m, as in mild.memory_drift."""
    k = len(past) - 1
    now = past[k][:, None]
    acc = np.zeros(now.shape[0])
    for m in range(1, k + 1):
        diff = now - past[k - m][None, :]
        J = time_integrated_kernel(spec, m * dt, diff)
        if m > 1:
            J = J - time_integrated_kernel(spec, (m - 1) * dt, diff)
        acc += np.sum(J, axis=1)
    return acc / len(past[k])


class _CloudInCell:
    """Cloud-in-cell cells and weights of N positions on a periodic grid.

    locate(x) fills the cell index idx, its right neighbour idx1 and the
    weights w0 = 1 - frac, w1 = frac; interp and deposit of one step share
    them.  The buffers are allocated once and reused: a step that allocated
    and freed its N-sized temporaries made the C allocator hand about 1 MB
    back to the system and fault it in again on every step at N = 2e4.
    """

    def __init__(self, grid: Grid1D, N: int):
        self.grid = grid
        self.rel, self.w0, self.w1, self.tmp = (np.empty(N) for _ in range(4))
        self.idx, self.idx1 = np.empty(N, dtype=np.int64), np.empty(N, dtype=np.int64)

    def locate(self, positions: np.ndarray):
        g = self.grid
        np.add(positions, g.half_width, out=self.rel)
        np.mod(self.rel, 2.0 * g.half_width, out=self.rel)
        np.divide(self.rel, g.h, out=self.rel)
        np.floor(self.rel, out=self.w0)     # w0 holds floor(rel) until the last weight
        np.copyto(self.idx, self.w0, casting="unsafe")
        np.remainder(self.idx, g.n, out=self.idx)
        np.subtract(self.rel, self.w0, out=self.w1)
        np.subtract(1.0, self.w1, out=self.w0)
        np.add(self.idx, 1, out=self.idx1)
        np.remainder(self.idx1, g.n, out=self.idx1)

    def interp(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Linear interpolation of grid values at the located positions, into out."""
        np.take(values, self.idx, out=out)
        out *= self.w0
        np.take(values, self.idx1, out=self.tmp)
        self.tmp *= self.w1
        out += self.tmp
        return out

    def deposit(self) -> np.ndarray:
        """Projection of the empirical measure of the located positions;
        integrates to exactly 1."""
        g = self.grid
        out = np.bincount(self.idx, weights=self.w0, minlength=g.n)
        out += np.bincount(self.idx1, weights=self.w1, minlength=g.n)
        return out / (self.idx.size * g.h)


def _deposit(grid: Grid1D, positions: np.ndarray) -> np.ndarray:
    """Cloud-in-cell projection of the empirical measure onto the grid
    (positions folded periodically); integrates to exactly 1."""
    cic = _CloudInCell(grid, positions.size)
    cic.locate(positions)
    return cic.deposit()


def simulate_bounded_drift(b_fn: Callable[[float, np.ndarray], np.ndarray],
                           x0_sampler: Callable[[np.ndarray], np.ndarray],
                           mesh: TimeMesh, N: int, seed: int,
                           drift_bound: Optional[float] = None,
                           store_rows: Optional[Sequence[int]] = None,
                           block: int = _LEGACY_BLOCK) -> ParticleEnsemble:
    """Independent Euler paths dX = b(t, X) dt + dW for particle keys 0..N-1.

    x0_sampler maps the phase-0 uniforms to start positions (inverse-CDF
    style).  drift_bound is the caller-declared sup |b_fn|, recorded for the
    universal-bound checker.  store_rows selects which mesh rows to keep
    (default all; row 0 always); working memory is O(N) plus those rows.

    block is deprecated and ignored: all N paths advance together, and the
    paths never depended on it.  Passing a value other than the default
    issues a DeprecationWarning.
    """
    if block != _LEGACY_BLOCK:
        warnings.warn("simulate_bounded_drift: `block` is deprecated and ignored",
                      DeprecationWarning, stacklevel=2)
    keys = np.arange(N)
    x0 = x0_sampler(_keyed_draws(seed, _INIT, 0, keys))
    if x0.shape != (N,):
        raise ValueError("x0_sampler must map (N,) uniforms to (N,) positions")
    nodes = mesh.nodes
    rows, out = _euler_paths(x0, lambda k, x: b_fn(float(nodes[k]), x),
                             mesh, seed, keys, store_rows)
    meta = {"init_sampling": "inverse-cdf", "row_times": nodes[rows]}
    return ParticleEnsemble(mesh, out, seed, drift_bound=drift_bound, meta=meta)


def kde_density(ensemble: ParticleEnsemble, k: int,
                bandwidth: Optional[float] = None) -> DensityField:
    """Gaussian kernel density estimate of the stored row k on the ensemble's
    grid: cloud-in-cell deposit followed by exact spectral Gaussian
    smoothing.  Default bandwidth is Silverman's 1.06 sigma-hat N^{-1/5}.
    Mass is exactly 1 (positions fold periodically into the box).
    """
    if ensemble.grid is None:
        raise ValueError("ensemble has no grid to estimate on")
    grid = ensemble.grid
    positions = ensemble.positions[k]
    sigma = float(np.std(positions))
    if bandwidth is None:
        if sigma == 0.0:
            warnings.warn("degenerate ensemble; falling back to bandwidth = h",
                          RuntimeWarning, stacklevel=2)
            bandwidth = grid.h
        else:
            bandwidth = 1.06 * sigma * positions.size ** (-0.2)
    if bandwidth <= 0:
        raise ValueError(f"need bandwidth > 0, got {bandwidth}")
    raw = _deposit(grid, positions)
    xi = grid.wavenumbers
    smooth = np.fft.irfft(np.fft.rfft(raw) * np.exp(-xi * xi * bandwidth ** 2 / 2.0), grid.n)
    t_tag = float(ensemble.snapshot_times[k]) if k < len(ensemble.snapshot_times) else 0.0
    return DensityField(grid, smooth, t_tag)
