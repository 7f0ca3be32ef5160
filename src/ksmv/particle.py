"""Interacting-particle simulation of the memory-drift dynamics.

Each of N particles follows an Euler scheme for

    dX^i = [ b(t, X^i) + (1/N) sum_j int_0^t K_{t-s}(X^i - X^j_s) ds ] dt + dW^i,

where the memory integral runs over the whole recorded past of every other
particle.  The time discretization of the singular integral is the
march's memory rule (ksmv.mild): each past position is frozen over its
subinterval and the kernel's time profile is integrated over that
subinterval in closed form, so the particle system and the density solver
share the same quadrature bias and comparisons isolate Monte Carlo error.

The interaction is evaluated on the grid: the march's drift state U (mild),
pushed in place by kernel._push (the one place U advances, for the solvers
and the chemical field too) with the spectrum of the particles'
cloud-in-cell deposit, gives b + B = irfft(U), which comes back to the
particles by linear interpolation.  O(N + n log n) per step, with an
O(h^2) projection bias against the paper's literal O(N^2 M^2) pairwise
sum, which the tests keep as an oracle.  The Euler stepper takes a drift
callback and keeps only the requested path rows.

Randomness is counter-based (Philox, Salmon et al., SC'11) and step-major:
step k of phase p owns the stream Philox(key=[seed, p], counter=[0, k, 0, 0]),
with phase 0 for the initial inverse-CDF uniforms (k = 0) and phase 1 for
the path noise of step k.  Particle i takes the i-th draw of each stream,
so a step draws for N particles and no (M, N) noise array is ever held.

The noise is weak.  Step 0 takes sqrt(dt) times the stream's i-th standard
normal; every step k >= 1 takes +-sqrt(dt) exactly, + where bit i of the
stream's raw 64-bit words is set (bit i % 64 of word i // 64).  The results
are laws (KDE and histograms at a node), and weak Euler needs only
increments whose first moments match N(0, dt) (Kloeden & Platen, Numerical
Solution of SDEs, 1992, sec. 14.1; Talay & Tubaro, Stoch. Anal. Appl. 8,
1990): the two-point increment's first three moments are those of N(0, dt)
and its fourth is dt^2, so the law at a node keeps the scheme's weak order.
A two-point step reads N bits, not N normals, and turns each byte of them
into its eight increments by one row of a 256 x 8 table: at N = 2e4 its
increments took 21 us against 310 us for the Gaussian ones (a 2-vCPU Xeon
host).  The Gaussian first step keeps paths that start at one point (qz's
x = 1) off the lattice of spacing 2 sqrt(dt) they would otherwise never
leave, whose histogram the qz check rejects (mc_histogram_sup read 1.9-3.8
against its bound 1 in 10 of 10 seeds at N = 2e4 with two-point steps from
step 0).  The paths run on the calling thread alone.  Consequences, by
construction:

* paths are bit-reproducible for fixed (seed, N, mesh, parameters);
* runs nest: a smaller run's draws are a prefix of a larger run's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid1D, TimeMesh, DensityField
from .kernel import KernelSpec, _push
# drift_b is not called here, but the traced benchmark wraps ksmv.particle.drift_b
from .field import InitialChemical, drift_b  # noqa: F401
from .mild import SchemeInstabilityError, _drift

__all__ = [
    "ParticleEnsemble",
    "simulate_particles",
    "simulate_bounded_drift",
    "kde_density",
]


@dataclass
class ParticleEnsemble:
    """Simulated particle paths: row k of positions is the ensemble at
    snapshot_times[k] (all mesh nodes unless only some rows were stored),
    one row per snapshot time.

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
        rows, times = len(self.positions), len(self.snapshot_times)
        if rows != times:
            raise ValueError(f"positions has {rows} rows for {times} snapshot times")

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


class _Streams:
    """The counter-based streams of one seed, drawn through one reused Philox
    generator.  Resetting its state for a draw costs about 3 us, against
    16 us for a new generator, whose constructor also reads OS entropy."""

    def __init__(self, seed: int):
        # the constructor's key words, so that every seed a caller passes (a
        # negative one included) maps to the key it always has
        self.bits = np.random.Philox(key=[seed, _INIT])
        self.key = self.bits.state["state"]["key"]
        self.gen = np.random.Generator(self.bits)
        self.table, self.table_sqdt = None, None

    def _at(self, phase: int, k: int):
        """Move the generator to the start of the stream of step k and phase."""
        self.key[1] = phase
        self.bits.state = {"bit_generator": "Philox",
                           "state": {"counter": np.array([0, k, 0, 0], dtype=np.uint64),
                                     "key": self.key},
                           "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                           "has_uint32": 0, "uinteger": 0}

    def uniforms(self, N: int) -> np.ndarray:
        """The first N uniforms on [0, 1) of the initial stream."""
        self._at(_INIT, 0)
        return self.gen.random(N)

    def increments(self, k: int, sqdt: float, out: np.ndarray) -> np.ndarray:
        """Fill out with step k's noise increments of size sqdt = sqrt(dt): at
        k = 0, sqdt times the stream's standard normals; at k >= 1, exactly
        +sqdt where bit i of the stream's raw words (little-endian) is set and
        -sqdt where it is clear.  Those are gathered a byte at a time from a
        256 x 8 table, row b holding the eight increments of byte b, built
        once per step size: one gather, and no uint8-to-float cast loop."""
        self._at(_NOISE, k)
        if k == 0:
            self.gen.standard_normal(out=out)
            return np.multiply(out, sqdt, out=out)
        if self.table_sqdt != sqdt:
            bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                 bitorder="little")
            # 2 sqdt and 2 sqdt - sqdt are exact, so each increment is +-sqdt
            self.table = np.subtract(bits * (2.0 * sqdt), sqdt)
            self.table_sqdt = sqdt
        raw = self.bits.random_raw(-(-out.size // 64)).astype("<u8", copy=False).view(np.uint8)
        whole, tail = divmod(out.size, 8)
        np.take(self.table, raw[:whole], axis=0, out=out[: 8 * whole].reshape(whole, 8),
                mode="clip")
        if tail:
            out[8 * whole :] = self.table[raw[whole], :tail]
        return out


def _euler_paths(x0: np.ndarray, drift: Callable[[int, np.ndarray], np.ndarray],
                 mesh: TimeMesh, seed: int,
                 store_rows: Optional[Sequence[int]]) -> Tuple[List[int], np.ndarray]:
    """Weak Euler X_{k+1} = (X_k + dt drift(k, X_k)) + dW_k, with dW_k
    step k's noise increments (_Streams.increments), the i-th for particle i.

    Keeps only the mesh rows in store_rows (default all; row 0 always) and
    returns them with the (rows, N) array, so working memory is O(N) plus
    the stored rows.  The positions passed to drift live in a buffer that
    the step then updates: a drift that keeps them must copy them.
    """
    M, dt = mesh.steps, mesh.dt
    rows = sorted({0, *(int(r) for r in store_rows)}) if store_rows is not None \
        else list(range(M + 1))
    if rows[0] < 0 or rows[-1] > M:
        raise ValueError(f"store_rows must lie in [0, {M}], got {rows[0]}..{rows[-1]}")
    row_of = {r: i for i, r in enumerate(rows)}
    out = np.empty((len(rows), x0.size))
    out[0] = x0
    streams, sqdt = _Streams(seed), math.sqrt(dt)
    # x and one step buffer, updated in place
    x, step = x0.copy(), np.empty_like(x0)
    for k in range(M):
        np.multiply(drift(k, x), dt, out=step)
        x += step
        x += streams.increments(k, sqdt, step)
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
                       seed: int,
                       store_rows: Optional[Sequence[int]] = None) -> ParticleEnsemble:
    """Simulate the interacting system.

    Particle i takes the i-th draw of each step's stream.  store_rows selects
    which mesh rows to keep (default all; row 0 always); the stored rows do
    not depend on it, and working memory is O(N) plus those rows.  A
    non-finite position at node k raises SchemeInstabilityError(k).
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    grid, nodes = p0.grid, mesh.nodes
    U, q, E1 = _drift(spec, chem, grid, mesh.dt)
    cic, u, spare = _CloudInCell(grid, N), np.empty(N), np.empty_like(U)

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        try:
            cic.locate(x)
        except ValueError:      # a non-finite position
            raise SchemeInstabilityError(k) from None
        cic.interp(np.fft.irfft(U, grid.n), u)
        _push(U, q, E1, None if E1 is None else np.fft.rfft(cic.deposit()), spare)
        return u

    x0 = _inverse_cdf_sampler(p0)(_Streams(seed).uniforms(N))
    # a blow-up overflows in a step first; the next locate names it
    with np.errstate(over="ignore", invalid="ignore"):
        rows, X = _euler_paths(x0, drift, mesh, seed, store_rows)
    # each step locates its start, which leaves node M, when stored, to check
    if not np.isfinite(X[-1]).all():
        raise SchemeInstabilityError(rows[-1])
    return ParticleEnsemble(mesh, X, seed, grid=grid, meta={"row_times": nodes[rows]})


class _CloudInCell:
    """Cloud-in-cell cells and weights of N positions on a periodic grid.

    locate(x) fills the cell index idx and the weights w0 = 1 - frac,
    w1 = frac; interp and deposit of one step share them.  The right
    neighbour (idx + 1) mod n is never stored: interp takes it from the
    values rolled by one cell, and deposit adds the bins of w1 one cell to
    the right, which sums the same particles in the same order (np.roll's
    own overhead, twice a step, cost more than the stored index saved).  The
    buffers are allocated once and reused: a step that allocated and freed
    its N-sized temporaries made the C allocator hand about 1 MB back to the
    system and fault it in again on every step at N = 2e4.
    """

    def __init__(self, grid: Grid1D, N: int):
        self.grid = grid
        self.rel, self.w0, self.w1, self.tmp = (np.empty(N) for _ in range(4))
        self.idx = np.empty(N, dtype=np.int64)
        self.mask, self.above = np.empty(N, dtype=bool), np.empty(N, dtype=bool)

    def locate(self, positions: np.ndarray):
        """The bits of rel = mod(x + L, 2 L) / h and idx = floor(rel) mod n
        for finite x; a non-finite x raises ValueError, so idx always lies in
        [0, n).  np.mod leaves offsets in [0, 2 L) as they are, so only the
        others are folded, and only when the smallest or largest offset is
        outside.  An offset folded from just below 0 can come back as 2 L, and
        rel within an ulp below 2 L can round to n, so floor(rel) lies in
        [0, n] and the integer remainder is a reset of n to 0."""
        g, rel, mask = self.grid, self.rel, self.mask
        period = 2.0 * g.half_width
        np.add(positions, g.half_width, out=rel)
        # written so that a NaN, which fails every comparison, enters the branch
        lo, hi = rel.min(), rel.max()
        if not (lo >= 0.0 and hi < period):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("non-finite particle positions")
            np.less(rel, 0.0, out=mask)
            mask |= np.greater_equal(rel, period, out=self.above)
            np.mod(rel, period, out=rel, where=mask)
        np.divide(rel, g.h, out=rel)
        np.floor(rel, out=self.w0)     # w0 holds floor(rel) until the last weight
        np.copyto(self.idx, self.w0, casting="unsafe")
        np.copyto(self.idx, 0, where=np.equal(self.idx, g.n, out=mask))
        np.subtract(rel, self.w0, out=self.w1)
        np.subtract(1.0, self.w1, out=self.w0)

    def interp(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Linear interpolation of grid values at the located positions, into out."""
        # locate left every index in [0, n), so the gathers skip the bounds check
        np.take(values, self.idx, out=out, mode="clip")
        out *= self.w0
        np.take(np.concatenate((values[1:], values[:1])), self.idx, out=self.tmp, mode="clip")
        self.tmp *= self.w1
        out += self.tmp
        return out

    def deposit(self) -> np.ndarray:
        """Projection of the empirical measure of the located positions;
        integrates to exactly 1."""
        g = self.grid
        out = np.bincount(self.idx, weights=self.w0, minlength=g.n)
        right = np.bincount(self.idx, weights=self.w1, minlength=g.n)
        out[1:] += right[:-1]
        out[0] += right[-1]
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
    universal-bound checker; it must be finite and >= 0.  store_rows selects which mesh rows to keep
    (default all; row 0 always); working memory is O(N) plus those rows.

    block is deprecated and ignored: all N paths advance together, and the
    paths never depended on it.  Passing a value other than the default
    issues a DeprecationWarning.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if drift_bound is not None and not (math.isfinite(drift_bound) and drift_bound >= 0):
        raise ValueError(f"drift_bound must be finite and >= 0, got {drift_bound}")
    if block != _LEGACY_BLOCK:
        warnings.warn("simulate_bounded_drift: `block` is deprecated and ignored",
                      DeprecationWarning, stacklevel=2)
    x0 = x0_sampler(_Streams(seed).uniforms(N))
    if x0.shape != (N,):
        raise ValueError("x0_sampler must map (N,) uniforms to (N,) positions")
    nodes = mesh.nodes
    rows, out = _euler_paths(x0, lambda k, x: b_fn(float(nodes[k]), x),
                             mesh, seed, store_rows)
    return ParticleEnsemble(mesh, out, seed, drift_bound=drift_bound,
                            meta={"row_times": nodes[rows]})


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
    if bandwidth is None:
        # a spread whose square overflows gives bandwidth inf: the uniform density
        with np.errstate(over="ignore"):
            sigma = float(np.std(positions))
        if sigma == 0.0:
            warnings.warn("degenerate ensemble; falling back to bandwidth = h",
                          RuntimeWarning, stacklevel=2)
            bandwidth = grid.h
        else:
            bandwidth = 1.06 * sigma * positions.size ** (-0.2)
    elif not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth}")
    spectrum = np.fft.rfft(_deposit(grid, positions))
    xi = grid.wavenumbers[1:]   # the mean's multiplier is 1
    with np.errstate(over="ignore"):
        bw2 = np.float64(bandwidth) ** 2
        # where bw^2 overflows or vanishes, (xi bw)^2 keeps the modes near 1 / bw
        exponent = xi * xi * bw2 if 0.0 < bw2 < np.inf else (xi * bandwidth) ** 2
    spectrum[1:] *= np.exp(-exponent / 2.0)
    smooth = np.fft.irfft(spectrum, grid.n)
    return DensityField(grid, smooth, float(ensemble.snapshot_times[k]))
