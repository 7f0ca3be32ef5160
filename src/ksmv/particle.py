"""Interacting-particle simulation of the memory-drift dynamics.

Each of N particles follows an Euler scheme for

    dX^i = [ b(t, X^i) + (1/N) sum_j int_0^t K_{t-s}(X^i - X^j_s) ds ] dt + dW^i,

where the memory integral runs over the whole recorded past of every other
particle.  The time discretization of the singular integral copies
mild.memory_drift exactly: each past position is frozen over its subinterval
and the kernel's time profile is integrated over that subinterval in closed
form, so the particle system and the density solver share the same
quadrature bias and comparisons isolate Monte Carlo error.

The interaction is evaluated on the grid: the march's drift state U (mild),
pushed by the spectrum of the particles' cloud-in-cell deposit, gives
b + B = irfft(U), which comes back to the particles by linear
interpolation.  O(N + n log n) per step, with an O(h^2) projection bias
against the paper's literal O(N^2 M^2) pairwise sum, which the tests keep
as an oracle.  The Euler stepper takes a drift callback and keeps only the
requested path rows.

Randomness is counter-based (Philox, Salmon et al., SC'11) and step-major:
step k of phase p owns the stream Philox(key=[seed, p], counter=[0, k, 0, 0]),
with phase 0 for the initial inverse-CDF uniforms (k = 0) and phase 1 for
the path noise of step k.  Particle i takes variate i of each stream, so
a step draws N values; no (M, N) noise array is ever held.  Consequences,
by construction:

* paths are bit-reproducible for fixed (seed, N, mesh, parameters), on
  one thread or two: which thread draws a stream does not change its bits;
* runs nest: a smaller run's streams are a prefix of a larger run's.

Steps do not depend on each other's noise, so when the process may run on
two CPUs or more (os.sched_getaffinity) the main thread and one helper
share a ring of three reused step buffers: steps are claimed in order from
one counter, the helper draws as far ahead as the ring allows, and the
main thread draws the next unclaimed step whenever the step it needs is
not ready, so whichever thread is free draws.  Under `taskset -c 0` no
thread is started.  Each thread resets one Philox generator of its own to
the stream of its step, and the helper is joined before the simulation
returns or raises.

The helper pins itself, before its first draw, to the next CPU after the
main thread's in the sorted list of CPUs the process may run on, so it
draws beside the main thread, not in its place.  The main thread's
affinity is never changed, and a refused pin leaves the helper unpinned.
Unpinned, the scheduler woke each helper draw onto the main thread's CPU:
at N = 2e4 on a 2-vCPU host, the drift the main thread computed while a
helper draw ran took a median of 350-490 us, against 26-41 us while none
ran and 50-70 us with the helper pinned.  The main thread stayed on the
CPU it started on for every step measured, which is why the helper's CPU
is counted from it and not from the lowest one.  Pinning changes where a
draw runs, never its bits.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid1D, TimeMesh, DensityField
from .kernel import KernelSpec
# drift_b is not called here, but the traced benchmark wraps ksmv.particle.drift_b
from .field import InitialChemical, drift_b  # noqa: F401
from .mild import _drift_symbols, _push, _start_drift

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


_INIT, _NOISE = 0, 1   # stream phases: initial uniforms, path noise
_LEGACY_BLOCK = 20000
_RING = 3               # step noise buffers in flight when the helper thread draws


def _draw_threads() -> int:
    """T, the threads that draw the step noise: 2 (the main thread and one
    helper) when this process may run on two CPUs or more, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(2, cpus)


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on (field 39 of Linux's
    /proc/thread-self/stat), or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _helper_cpu() -> Optional[int]:
    """The helper thread's CPU: the next after the main thread's (after the
    first when that is unknown) in the sorted CPUs this process may run on,
    so the helper does not share the main thread's CPU while another is
    free; None where the platform cannot pin."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    main = _current_cpu()
    at = cpus.index(main) if main in cpus else 0
    return cpus[(at + 1) % len(cpus)]


def _pin(cpu: Optional[int]):
    """Pin the calling thread (pid 0 is the caller on Linux) to one CPU; a
    refused pin leaves it where it was."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass


class _Streams:
    """The counter-based streams of one seed, drawn through one reused Philox
    generator.  Resetting its state for a draw costs about 5 us, against 16 us
    for a new generator, whose constructor also reads OS entropy.  A
    generator is not shared between threads: each drawing thread owns one."""

    def __init__(self, seed: int):
        # the constructor's key words, so that every seed a caller passes (a
        # negative one included) maps to the key it always has
        self.bits = np.random.Philox(key=[seed, _INIT])
        self.key = self.bits.state["state"]["key"]
        self.gen = np.random.Generator(self.bits)

    def draw(self, phase: int, k: int, out: np.ndarray) -> np.ndarray:
        """Fill out with the first out.size variates of the stream of step k
        and phase: uniforms on [0, 1) for _INIT, standard normals for _NOISE."""
        self.key[1] = phase
        self.bits.state = {"bit_generator": "Philox",
                           "state": {"counter": np.array([0, k, 0, 0], dtype=np.uint64),
                                     "key": self.key},
                           "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                           "has_uint32": 0, "uinteger": 0}
        if phase == _INIT:
            return self.gen.random(out=out)
        return self.gen.standard_normal(out=out)


def _keyed_draws(seed: int, phase: int, k: int, N: int) -> np.ndarray:
    """The first N variates of the counter-based stream of step k and phase
    (variate i is particle i's): uniforms on [0, 1) for _INIT, standard
    normals for _NOISE."""
    return _Streams(seed).draw(phase, k, np.empty(N))


def _euler_paths(x0: np.ndarray, drift: Callable[[int, np.ndarray], np.ndarray],
                 mesh: TimeMesh, seed: int,
                 store_rows: Optional[Sequence[int]]) -> Tuple[List[int], np.ndarray]:
    """Euler-Maruyama X_{k+1} = X_k + dt drift(k, X_k) + sqrt(dt) xi_k, with
    xi_k drawn step by step from the step-k noise stream, variate i for
    particle i.

    Steps are claimed in order from one counter, each with a free buffer of
    a ring of _RING (one when T = _draw_threads() = 1), and step k's noise
    lands in buffer k % _RING.  With T = 2 one helper, pinned to
    _helper_cpu(), claims and draws as far ahead as the ring allows; the
    main thread, when it needs step k and k is not ready, draws the next
    unclaimed step itself while a buffer is free, and otherwise waits.  The
    helper never calls drift, is joined before this returns or raises, and
    an error it raises is raised here.

    Keeps only the mesh rows in store_rows (default all; row 0 always) and
    returns them with the (rows, N) array, so working memory is O(N) plus
    the stored rows and the ring.  The positions passed to drift live in a
    buffer that the step then updates: a drift that keeps them must copy them.
    """
    M, dt = mesh.steps, mesh.dt
    rows = sorted({0, *(int(r) for r in store_rows)}) if store_rows is not None \
        else list(range(M + 1))
    if rows[0] < 0 or rows[-1] > M:
        raise ValueError(f"store_rows must lie in [0, {M}], got {rows[0]}..{rows[-1]}")
    row_of = {r: i for i, r in enumerate(rows)}
    out = np.empty((len(rows), x0.size))
    out[0] = x0
    threads = _draw_threads()
    ring = [np.empty(x0.size) for _ in range(_RING if threads > 1 else 1)]
    # a step holds a free buffer from its claim until the main thread has
    # spent it, so the claimed steps not yet spent own distinct buffers
    free, claim_lock = threading.Semaphore(len(ring)), threading.Lock()
    ready = [threading.Event() for _ in ring]
    claimed, failure = 0, []

    def claim(blocking: bool) -> Optional[int]:
        """The next unclaimed step, holding a free buffer; None when no buffer
        is free (without blocking) or every step is claimed."""
        nonlocal claimed
        if not free.acquire(blocking):
            return None
        with claim_lock:
            if claimed < M:
                claimed += 1
                return claimed - 1
        free.release()
        return None

    def draw(streams: _Streams, j: int):
        streams.draw(_NOISE, j, ring[j % len(ring)])
        ready[j % len(ring)].set()

    def help_draw(cpu: Optional[int]):
        _pin(cpu)
        try:
            streams = _Streams(seed)
            while (j := claim(True)) is not None:
                draw(streams, j)
        except BaseException as exc:
            failure.append(exc)
            for event in ready:
                event.set()

    own = _Streams(seed)
    helper = None
    if threads > 1:
        helper = threading.Thread(target=help_draw, args=(_helper_cpu(),),
                                  name="ksmv-noise", daemon=True)
        helper.start()
    # x_{k+1} = (x_k + dt u_k) + sqrt(dt) xi_k, updated in place through one
    # step buffer
    x, step = x0.copy(), np.empty_like(x0)
    sqdt = math.sqrt(dt)
    try:
        for k in range(M):
            np.multiply(drift(k, x), dt, out=step)
            x += step
            slot = k % len(ring)
            while not ready[slot].is_set():
                j = claim(False)
                if j is None:
                    ready[slot].wait()
                else:
                    draw(own, j)
            if failure:
                raise failure[0]
            np.multiply(ring[slot], sqdt, out=step)
            x += step
            ready[slot].clear()
            free.release()
            if k + 1 in row_of:
                out[row_of[k + 1]] = x
    finally:
        if helper is not None:
            with claim_lock:
                claimed = M
            free.release(len(ring))
            helper.join()
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
                       seed: int,
                       store_rows: Optional[Sequence[int]] = None) -> ParticleEnsemble:
    """Simulate the interacting system.

    Particle i takes variate i of each per-step stream.  store_rows selects
    which mesh rows to keep (default all; row 0 always); the stored rows do
    not depend on it, and working memory is O(N) plus those rows.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    grid, nodes = p0.grid, mesh.nodes
    q, E1 = _drift_symbols(spec, grid, mesh.dt)
    U = _start_drift(spec, chem, grid)
    cic, u = _CloudInCell(grid, N), np.empty(N)

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        nonlocal U
        cic.locate(x)
        cic.interp(np.fft.irfft(U, grid.n), u)
        U = _push(U, q, E1, None if E1 is None else np.fft.rfft(cic.deposit()))
        return u

    x0 = _inverse_cdf_sampler(p0)(_keyed_draws(seed, _INIT, 0, N))
    rows, X = _euler_paths(x0, drift, mesh, seed, store_rows)
    meta = {"init_sampling": "inverse-cdf", "row_times": nodes[rows]}
    return ParticleEnsemble(mesh, X, seed, grid=grid, meta=meta)


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
        self.mask, self.above = np.empty(N, dtype=bool), np.empty(N, dtype=bool)

    def locate(self, positions: np.ndarray):
        """The bits of rel = mod(x + L, 2 L) / h, idx = floor(rel) mod n,
        idx1 = (idx + 1) mod n, for finite x.  np.mod leaves offsets in
        [0, 2 L) as they are, so only the others are folded.  An offset
        folded from just below 0 can come back as 2 L, and rel within an
        ulp below 2 L can round to n, so floor(rel) lies in [0, n] and the
        integer remainders are a reset of n to 0."""
        g, rel, mask = self.grid, self.rel, self.mask
        period = 2.0 * g.half_width
        np.add(positions, g.half_width, out=rel)
        np.less(rel, 0.0, out=mask)
        mask |= np.greater_equal(rel, period, out=self.above)
        if mask.any():
            np.mod(rel, period, out=rel, where=mask)
        np.divide(rel, g.h, out=rel)
        np.floor(rel, out=self.w0)     # w0 holds floor(rel) until the last weight
        np.copyto(self.idx, self.w0, casting="unsafe")
        np.copyto(self.idx, 0, where=np.equal(self.idx, g.n, out=mask))
        np.subtract(rel, self.w0, out=self.w1)
        np.subtract(1.0, self.w1, out=self.w0)
        np.add(self.idx, 1, out=self.idx1)
        np.copyto(self.idx1, 0, where=np.equal(self.idx1, g.n, out=mask))

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
    """Independent Euler paths dX = b(t, X) dt + dW for N particles.

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
    x0 = x0_sampler(_keyed_draws(seed, _INIT, 0, N))
    if x0.shape != (N,):
        raise ValueError("x0_sampler must map (N,) uniforms to (N,) positions")
    nodes = mesh.nodes
    rows, out = _euler_paths(x0, lambda k, x: b_fn(float(nodes[k]), x),
                             mesh, seed, store_rows)
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
