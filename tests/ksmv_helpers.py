"""Helpers shared by the test modules: the acceptance-line recorder, test
densities, row-wise history distances, pointwise kernel values K_t(x), the
kernel's norms, time integral J_t(u) and symbol, Theta_t(u) =
int_0^t |K_s(u)| ds, the universal density bound, the chemical derivative
residual, an ensemble row's variance, the quadrature oracle for the
sign-drift comparison density, the per-value reference text of the table
writers, sequential oracles for the particle noise streams, the unpacked
two-point increments and the cloud-in-cell cells, the direct periodic
convolution sum, the paper's literal pairwise particle system as an oracle
for the binned one, the step-by-step solver loop, the one-iterate-at-a-time
fixed-point iteration and the per-node residual as oracles for the batched
ones, the memory sums and the memory drift as oracles for the pushed drift
states, the per-element binomial tail, and a chemical whose march overflows.

The acceptance suite registers one line per criterion through
`record_criterion`; the terminal-summary hook in conftest.py prints them.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.special import erfcx

from ksmv import particle
from ksmv.field import InitialChemical, drift_b
from ksmv.grid import Grid1D, DensityField, TimeMesh, heat_kernel
from ksmv.kernel import KernelSpec, has_memory, integrated_kernel_symbol, symbol_decay
from ksmv.mild import (MarginalHistory, PicardDivergenceError, SchemeInstabilityError,
                       _drift)
from ksmv.particle import ParticleEnsemble
from ksmv.qz import QZParams, _tail_eval

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


def step_noise_oracle(seed: int, k: int, N: int) -> np.ndarray:
    """Step k's path noise in units of sqrt(dt), drawn by a new generator:
    the first N standard normals of the step-k stream at k = 0; at k >= 1,
    +1 or -1 for particle i as bit i % 64 of the stream's raw word i // 64
    is set or clear, read one particle at a time."""
    bits = np.random.Philox(key=[seed, 1], counter=[0, k, 0, 0])
    if k == 0:
        return np.random.Generator(bits).standard_normal(N)
    raw = [int(w) for w in bits.random_raw(N // 64 + 1)]
    return np.array([1.0 if (raw[i // 64] >> (i % 64)) & 1 else -1.0 for i in range(N)])


def two_point_increments_oracle(seed: int, k: int, N: int, sqdt: float) -> np.ndarray:
    """Step k >= 1's two-point increments bit by bit: the stream's raw words
    unpacked to N bits b_i (little-endian), then 2 sqdt b_i - sqdt."""
    raw = np.random.Philox(key=[seed, 1], counter=[0, k, 0, 0]).random_raw(-(-N // 64))
    bits = np.unpackbits(raw.astype("<u8", copy=False).view(np.uint8), count=N,
                         bitorder="little")
    out = np.multiply(bits, 2.0 * sqdt, dtype=float)
    return np.subtract(out, sqdt, out=out)


def cloud_in_cell_oracle(grid: Grid1D, positions: np.ndarray):
    """Cells and weights by the periodic fold of every position and integer
    remainders: (idx, idx1, w0, w1) with w0 = 1 - frac, w1 = frac."""
    rel = np.mod(positions + grid.half_width, 2.0 * grid.half_width) / grid.h
    floor = np.floor(rel)
    idx = floor.astype(np.int64) % grid.n
    frac = rel - floor
    return idx, (idx + 1) % grid.n, 1.0 - frac, frac


def cloud_in_cell_two_index_oracle(grid: Grid1D, positions: np.ndarray, values: np.ndarray):
    """(interp, deposit): the grid values linearly interpolated at the
    positions, and the cloud-in-cell projection of the positions, each from
    the two stored indices of cloud_in_cell_oracle, idx and (idx + 1) mod n."""
    idx, idx1, w0, w1 = cloud_in_cell_oracle(grid, positions)
    interp = values[idx] * w0 + values[idx1] * w1
    deposit = (np.bincount(idx, weights=w0, minlength=grid.n)
               + np.bincount(idx1, weights=w1, minlength=grid.n)) / (positions.size * grid.h)
    return interp, deposit


def _require_time(t: float):
    if t <= 0:
        raise ValueError(f"kernel is defined for t > 0, got t={t}")


def kernel_eval(spec: KernelSpec, t: float, x) -> np.ndarray:
    """Kernel value K_t(x) = chi_eff e^{-lambda t} d/dx g(t, x), vectorized in x."""
    _require_time(t)
    x = np.asarray(x, dtype=float)
    return -spec.chi_eff * math.exp(-spec.lam * t) * x * heat_kernel(t, x) / t


def kernel_l1_norm(spec: KernelSpec, t: float) -> float:
    """||K_t||_L1 = chi_eff e^{-lambda t} sqrt(2/pi) t^{-1/2}."""
    _require_time(t)
    return spec.chi_eff * math.exp(-spec.lam * t) * math.sqrt(2.0 / math.pi) / math.sqrt(t)


def kernel_l2_norm(spec: KernelSpec, t: float) -> float:
    """||K_t||_L2 = chi_eff e^{-lambda t} c2 t^{-3/4}, c2 = (1/2) pi^{-1/4}."""
    _require_time(t)
    return spec.chi_eff * math.exp(-spec.lam * t) * (0.5 * math.pi ** -0.25) * t ** -0.75


def time_integrated_kernel(spec: KernelSpec, t: float, u) -> np.ndarray:
    """J_t(u) = int_0^t K_s(u) ds in closed form, vectorized in u.

    Writing r = |u| / sqrt(2t), s = sqrt(lambda t) and p, q = r - s, r + s,

        J_t(u) = -sign(u) (chi_eff / 2) [ e^{-2rs} erfc(p) + e^{-r^2 - s^2} erfcx(q) ],

    which collapses to -sign(u) chi_eff erfc(r) when lambda = 0.  Since
    2rs + p^2 = r^2 + s^2, e^{-2rs} erfc(p) is e^{-r^2 - s^2} erfcx(p) for
    p >= 0 and 2 e^{-2rs} - e^{-r^2 - s^2} erfcx(-p) below, so nothing
    overflows for large r.  J_t(0) = 0 by oddness.
    """
    _require_time(t)
    u = np.asarray(u, dtype=float)
    r = np.abs(u) / math.sqrt(2.0 * t)
    s = math.sqrt(spec.lam * t)
    p = r - s
    mag = np.exp(-r * r - s * s) * (erfcx(r + s) + np.copysign(erfcx(np.abs(p)), p))
    if s > 0.0:
        mag += np.where(p < 0.0, 2.0 * np.exp(-2.0 * r * s), 0.0)
    return -np.sign(u) * (0.5 * spec.chi_eff) * mag


def kernel_symbol(spec: KernelSpec, t: float, xi: np.ndarray) -> np.ndarray:
    """Fourier symbol K_hat_t(xi) = chi_eff e^{-lam t} (i xi) e^{-xi^2 t / 2}.

    Convention f_hat(xi) = int f(x) e^{-i xi x} dx, matching numpy's fft of
    grid samples up to the factor h.
    """
    _require_time(t)
    return spec.chi_eff * math.exp(-spec.lam * t) * (1j * xi) * np.exp(-xi * xi * t / 2.0)


def qz_bound(t: float, x: float, y: float, beta: float) -> float:
    """Universal density bound: any diffusion with unit noise and drift
    bounded by beta has transition density p(t, x, y) at most this value.
    It is the sign-drift density at the attractor, qz_density(p, y) with
    p = QZParams(beta, y, x, t)."""
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    if beta < 0:
        raise ValueError(f"need beta >= 0, got {beta}")
    return _tail_eval(t, abs(x - y), beta)


def derivative_residual(chem: InitialChemical) -> float:
    """Max deviation of c0_prime from the periodic central difference of c0:
    O(h^2 ||c0'''||) for smooth closed forms."""
    cd = (np.roll(chem.c0, -1) - np.roll(chem.c0, 1)) / (2.0 * chem.grid.h)
    return float(np.max(np.abs(cd - chem.c0_prime)))


def marginal_variance(ens: ParticleEnsemble, row: int) -> float:
    return float(np.var(ens.positions[row]))


def time_integrated_abs_kernel(spec: KernelSpec, t: float, u) -> np.ndarray:
    """Theta_t(u) = int_0^t |K_s(u)| ds = |J_t(u)|, since K_s(u) has one sign
    in s.  The odd closed form J_t is 0 at exactly u = 0; Theta_t takes its
    continuous extension there, the supremum chi_eff (the mass of the
    s-integral concentrates at s -> 0, so lambda drops out of the limit)."""
    u = np.asarray(u, dtype=float)
    return np.where(u == 0.0, spec.chi_eff, np.abs(time_integrated_kernel(spec, t, u)))


def direct_convolution(f: np.ndarray, g: np.ndarray, grid: Grid1D) -> np.ndarray:
    """h sum_j f_j g_{i-j}, index wrapped periodically, by direct summation:
    indices [n, 2n) of the linear convolution against a doubled copy hold the
    full circular sum.  Both factors are sampled at x_i = -L + i h, so the
    sum lands at index i + j; the roll by the n/2 cells that encode x = 0
    recenters it on the grid."""
    n = grid.n
    return np.roll(np.convolve(f, np.concatenate([g, g]))[n:2 * n], -(n // 2)) * grid.h


def periodic_interp(grid: Grid1D, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear interpolation of grid values at positions x folded into the box."""
    span = 2.0 * grid.half_width
    xm = np.mod(x + grid.half_width, span) - grid.half_width
    return np.interp(xm, np.append(grid.x, grid.half_width), np.append(values, values[0]))


def pairwise_memory(spec: KernelSpec, past: Sequence[np.ndarray], dt: float) -> np.ndarray:
    """(1/N) sum_j sum_{m=1}^{k} [J_{m dt} - J_{(m-1) dt}](X^i_k - X^j_{k-m}),
    J_t = int_0^t K_s ds and J_0 = 0: particle i now (past[k]) against
    particle j frozen over the subinterval of age m, as in the march's memory
    rule (ksmv.mild)."""
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


def pairwise_particles(N: int, p0: DensityField, spec: KernelSpec,
                       chem: Optional[InitialChemical], mesh: TimeMesh, seed: int,
                       store_rows: Optional[Sequence[int]] = None) -> ParticleEnsemble:
    """The paper's literal particle system: b from the chemical's grid by
    periodic linear interpolation plus the x-space pairwise memory sum over
    all pairs and past rows, O(N^2 M^2).  Runs on the start sampler, streams
    and stepper of ksmv.particle.simulate_particles, so the two share every
    variate and differ only in the interaction."""
    nodes, past = mesh.nodes, []

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        u = np.zeros(N) if chem is None else \
            periodic_interp(chem.grid, drift_b(spec, chem, float(nodes[k])), x)
        if not has_memory(spec):
            return u
        past.append(x.copy())
        return u if k == 0 else u + pairwise_memory(spec, past, mesh.dt)

    x0 = particle._inverse_cdf_sampler(p0)(particle._Streams(seed).uniforms(N))
    rows, X = particle._euler_paths(x0, lambda k, x: np.multiply(drift(k, x), mesh.dt),
                                    mesh, seed, store_rows)
    return ParticleEnsemble(mesh, X, seed, grid=p0.grid, meta={"row_times": nodes[rows]})


def run_mild_oracle(p0_values: np.ndarray, grid: Grid1D, mesh: TimeMesh, U: np.ndarray,
                    q: np.ndarray, E1: Optional[np.ndarray],
                    pushed: Optional[np.ndarray]):
    """ksmv.mild._run_mild for one lane, one step at a time: u_k = irfft(U_k)
    by its own call, U_{k+1} = q U_k + E1 r_k in a new array (no code shared
    with kernel._push), three transform calls per step; r_k is the lane's own
    spectrum, or row k of the spectra `pushed`.  Returns (density stack, sup
    of |drift|, spectra P_hat_0..P_hat_M)."""
    n, M, dt = grid.n, mesh.steps, mesh.dt
    xi = grid.wavenumbers
    heat = np.exp(-xi * xi * dt / 2.0)
    deriv = 1j * xi
    P = np.empty((M + 1, n))
    P[0] = p0_values
    spectra = np.empty((M + 1, xi.size), dtype=complex)
    spectra[0] = np.fft.rfft(P[0])
    spectra[0] /= spectra[0, 0].real * grid.h
    sup_drift = 0.0
    for k in range(M):
        cur = spectra[k]
        u = np.fft.irfft(U, n)
        U = q * U if E1 is None else q * U + E1 * (cur if pushed is None else pushed[k])
        sup_drift = max(sup_drift, float(np.max(np.abs(u))))
        with np.errstate(over="ignore", invalid="ignore"):
            spectra[k + 1] = heat * (cur - dt * deriv * np.fft.rfft(u * P[k]))
        if not np.isfinite(spectra[k + 1]).all():
            raise SchemeInstabilityError(k + 1)
        P[k + 1] = np.fft.irfft(spectra[k + 1], n)
    return P, sup_drift, spectra


def pushed_state(U: np.ndarray, q: np.ndarray, E1: Optional[np.ndarray],
                 spectra: np.ndarray) -> np.ndarray:
    """U pushed over every row of spectra by U <- q U + E1 r, in new arrays."""
    for r in spectra:
        U = q * U if E1 is None else q * U + E1 * r
    return U


def running_sums(spectra: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S_0 = 0 and S_{l+1} = q S_l + spectra[l]: the memory sums over the
    given rows, one more row than spectra."""
    S = np.empty((len(spectra) + 1, q.size), dtype=complex)
    S[0] = 0.0
    for l, row in enumerate(spectra):
        S[l + 1] = q * S[l] + row
    return S


def memory_drift(history: MarginalHistory, spec: KernelSpec, k: int) -> np.ndarray:
    """B(t_k, .) = irfft(E1 S_k) on the grid: the zero state pushed over the
    spectra of rows 0..k-1 by pushed_state (row k itself is never read)."""
    grid, dt = history.grid, history.mesh.dt
    xi = grid.wavenumbers
    E1 = integrated_kernel_symbol(spec, dt, xi) if has_memory(spec) else None
    start = np.zeros(xi.size, dtype=complex)
    U = pushed_state(start, symbol_decay(spec.lam, dt, xi), E1,
                     np.fft.rfft(history.densities[:k], axis=1))
    return np.fft.irfft(U, grid.n)


def picard_oracle(p0: DensityField, spec: KernelSpec, chem: Optional[InitialChemical],
                  grid: Grid1D, mesh: TimeMesh, k_max: int = 25, tol: float = 1e-8,
                  start_drift: Optional[np.ndarray] = None):
    """ksmv.mild.picard one iterate after another through run_mild_oracle:
    iterate j pushes iterate j - 1's spectra (iterate 0: p_0 on every row,
    whose spectra are the march's unit-mass p_hat_0).  Same signature and
    result (last iterate, distances; meta's end_drift is U_0 pushed over
    the last iterate's spectra 0..M-1), so a test can substitute it for
    mild.picard."""
    U0, q, E1 = _drift(spec, chem, grid, mesh.dt)
    if start_drift is not None:
        U0 = start_drift
    prev = np.tile(p0.values, (mesh.steps + 1, 1))
    p_hat0 = np.fft.rfft(p0.values)
    prev_hat = np.tile(p_hat0 / (p_hat0[0].real * grid.h), (mesh.steps + 1, 1))
    distances, grow_streak = [], 0
    for j in range(1, k_max + 1):
        P, sup_drift, spectra = run_mild_oracle(p0.values, grid, mesh, U0, q, E1, prev_hat)
        distances.append(float(np.max(np.sum(np.abs(P - prev), axis=1)) * grid.h))
        grow_streak = grow_streak + 1 if j >= 2 and distances[-1] > distances[-2] else 0
        if grow_streak >= 3:
            raise PicardDivergenceError(distances)
        if distances[-1] < tol or j == k_max:
            break
        prev, prev_hat = P, spectra
    return MarginalHistory(grid, mesh, P, {
        "sup_drift": sup_drift, "end_drift": pushed_state(U0, q, E1, spectra[:-1])}), distances


def overflowing_chemical(grid: Grid1D) -> InitialChemical:
    """c0 = 0 with c0' = 1e200: on a coarse mesh the march's first step leaves
    a finite row of size ~1e198 and the second step's drift product overflows."""
    return InitialChemical.from_samples(grid, np.zeros(grid.n), c0_prime=np.full(grid.n, 1e200))


def _betainc_int_oracle(a: int, b: int, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for integers a, b >= 1 and
    0 < x < 1, by Lentz's method on its continued fraction, one element in
    plain floats; the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) keeps x on the
    side where it converges."""
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc_int_oracle(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a + 1) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-16:
            return front * (f - 1.0)
    raise ArithmeticError(f"no convergence at a={a}, b={b}, x={x}")


def _binomial_sf_one(k: int, n: int, p: float) -> float:
    if k <= 0:
        return 1.0
    if k > n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return _betainc_int_oracle(int(k), int(n - k + 1), float(p))


def binomial_sf_oracle(k, n: int, p) -> np.ndarray:
    """P(X >= k) for X ~ Binomial(n, p) by one continued fraction per element:
    the oracle for ksmv.special.binomial_sf."""
    return np.vectorize(_binomial_sf_one, otypes=[float])(k, n, p)
