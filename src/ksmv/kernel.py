"""Interaction kernels K_t(x) and the integrability diagnostics that gate the solver.

The chemotaxis kernel is the time-decayed gradient of the heat kernel,

    K_t(x) = chi * exp(-lambda t) * (-x) / (c_norm * t^{3/2}) * exp(-x^2 / (2t)),

odd in x and singular in time: its L^1(R) norm scales like t^{-1/2} and its
L^2(R) norm like t^{-3/4}.  Two normalization constants are supported.  With
c_norm = sqrt(2 pi) ("heat", the default) the kernel is exactly
chi * exp(-lambda t) * d/dx g(t, x), which is the constant consistent with the
closed-form drift identities used elsewhere in this package; c_norm = 2 pi
("two_pi") is kept as a switch, and simply rescales the kernel by 1/sqrt(2 pi).

Closed forms implemented here (all re-derived and pinned against adaptive
quadrature in the test suite):

    ||K_t||_L1 = chi_eff exp(-lambda t) sqrt(2/pi) t^{-1/2}
    ||K_t||_L2 = chi_eff exp(-lambda t) (1/2) pi^{-1/4} t^{-3/4}
    int_0^t K_s(u) ds      (erfc pair, any lambda >= 0)
    int_0^t |K_s(u)| ds  = |int_0^t K_s(u) ds|   (K_s(u) has one sign in s)
    D(T) = int_0^T ||K_t||_L1 dt
         = 2 chi_eff sqrt(2T/pi)                  for lambda = 0
         = chi_eff sqrt(2/lambda) erf(sqrt(lambda T))  otherwise,

where chi_eff = chi for the heat normalization and chi / sqrt(2 pi) for the
two_pi one.  The six-part integrability hypothesis on K (H.1 to H.6 below) is
checked numerically by :func:`check_hypotheses`; the contraction horizon T0
solves D(T0) = safety.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate, optimize, special

from .grid import Grid1D, TimeMesh, DensityField, convolve, heat_kernel, singular_eval_nodes

__all__ = [
    "KernelSpec",
    "zero_kernel",
    "has_memory",
    "HypothesisItem",
    "HypothesisReport",
    "kernel_eval",
    "kernel_l1_norm",
    "kernel_l2_norm",
    "time_integrated_kernel",
    "time_integrated_abs_kernel",
    "kernel_symbol",
    "integrated_kernel_symbol",
    "symbol_decay",
    "pair_singular_weights",
    "f1_profile",
    "f2_profile",
    "restart_profile",
    "default_trial_densities",
    "check_hypotheses",
    "horizon_D",
    "find_T0",
]

_NORM_CONSTANTS = {"heat": math.sqrt(2.0 * math.pi), "two_pi": 2.0 * math.pi}

_L2_COEFF = 0.5 * math.pi ** -0.25  # ||d/dx g(t,.)||_L2 = _L2_COEFF * t^{-3/4}


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the interaction kernel.

    chi = 0 switches the interaction off (useful for pure-diffusion checks);
    the chemotaxis model itself requires chi > 0, which the CLI enforces at
    config load.
    """

    chi: float = 1.0
    lam: float = 0.0
    normalization: str = "heat"
    kind: str = "keller_segel"
    #: custom kernels: vectorized (t, x_array) -> values; used by the checker only
    eval_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.chi < 0:
            raise ValueError(f"need chi >= 0, got {self.chi}")
        if self.lam < 0:
            raise ValueError(f"need lambda >= 0, got {self.lam}")
        if self.normalization not in _NORM_CONSTANTS:
            raise ValueError(f"normalization must be one of {sorted(_NORM_CONSTANTS)}")
        if self.kind not in ("keller_segel", "custom"):
            raise ValueError(f"kind must be 'keller_segel' or 'custom', got {self.kind!r}")
        if self.kind == "custom" and self.eval_fn is None:
            raise ValueError("custom kernels need eval_fn")

    @property
    def chi_eff(self) -> float:
        """Coupling rescaled so the kernel reads chi_eff exp(-lam t) d/dx g(t, x)."""
        return self.chi * math.sqrt(2.0 * math.pi) / _NORM_CONSTANTS[self.normalization]


def zero_kernel(t, x) -> np.ndarray:
    """K_t(x) = 0: the custom kernel behind `model.kernel = none`."""
    return np.zeros_like(np.asarray(x, dtype=float))


def has_memory(spec: KernelSpec) -> bool:
    """Whether the memory drift B is switched on for spec.

    False for chi = 0 and for the custom zero_kernel (`model.kernel = none`).
    Any other custom kernel raises ValueError: custom kernels exist for
    check_hypotheses only, and the solvers integrate the chemotaxis kernel in
    closed form.
    """
    if spec.kind == "custom":
        if spec.eval_fn is zero_kernel:
            return False
        raise ValueError("the solvers take the chemotaxis kernel or kernel.zero_kernel; "
                         "other custom kernels are for check_hypotheses only")
    return spec.chi > 0.0


def _require_time(t: float):
    if t <= 0:
        raise ValueError(f"kernel is defined for t > 0, got t={t}")


def kernel_eval(spec: KernelSpec, t: float, x) -> np.ndarray:
    """Kernel value K_t(x), vectorized in x."""
    _require_time(t)
    x = np.asarray(x, dtype=float)
    if spec.kind == "custom":
        return np.asarray(spec.eval_fn(t, x), dtype=float)
    amp = spec.chi * math.exp(-spec.lam * t) / (_NORM_CONSTANTS[spec.normalization] * t ** 1.5)
    return amp * (-x) * np.exp(-x * x / (2.0 * t))


def _custom_norm_quad(fn) -> float:
    """Quadrature over the line that degrades to inf instead of raising when
    the integrand is not integrable (the checker turns inf into a failed item)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            val, err = integrate.quad(fn, -np.inf, np.inf, limit=200)
        except Exception:
            return math.inf
    # callers integrate nonnegative functions; a negative return is the
    # infinite-interval transform failing on a non-integrable input
    if not np.isfinite(val) or val < 0.0 or err > 1e-6 * max(1.0, abs(val)):
        return math.inf
    return val


def kernel_l1_norm(spec: KernelSpec, t: float) -> float:
    _require_time(t)
    if spec.kind == "custom":
        return _custom_norm_quad(lambda x: abs(float(spec.eval_fn(t, np.asarray(x)))))
    return spec.chi_eff * math.exp(-spec.lam * t) * math.sqrt(2.0 / math.pi) / math.sqrt(t)


def kernel_l2_norm(spec: KernelSpec, t: float) -> float:
    _require_time(t)
    if spec.kind == "custom":
        val = _custom_norm_quad(lambda x: float(spec.eval_fn(t, np.asarray(x))) ** 2)
        return math.sqrt(val) if np.isfinite(val) else math.inf
    return spec.chi_eff * math.exp(-spec.lam * t) * _L2_COEFF * t ** -0.75


def time_integrated_kernel(spec: KernelSpec, t: float, u) -> np.ndarray:
    """J_t(u) = int_0^t K_s(u) ds in closed form, vectorized in u.

    Writing a = |u| / sqrt(2) and b = sqrt(lambda),

        J_t(u) = -sign(u) (chi_eff / 2) [ e^{-2ab} erfc(a/sqrt(t) - b sqrt(t))
                                        + e^{+2ab} erfc(a/sqrt(t) + b sqrt(t)) ],

    which collapses to -sign(u) chi_eff erfc(|u| / sqrt(2t)) when lambda = 0.
    J_t(0) = 0 by oddness.
    """
    _require_time(t)
    if spec.kind == "custom":
        raise NotImplementedError("closed-form time integral exists for the chemotaxis kernel only")
    u = np.asarray(u, dtype=float)
    a = np.abs(u) / math.sqrt(2.0)
    if spec.lam == 0.0:
        mag = spec.chi_eff * special.erfc(a / math.sqrt(t))
    else:
        b = math.sqrt(spec.lam)
        rt = math.sqrt(t)
        # e^{2ab} erfc(a/rt + b rt) overflows for large a; rewrite through
        # erfcx(z) = e^{z^2} erfc(z), using 2ab - (a/rt + b rt)^2 = -a^2/t - lam t
        mag = 0.5 * spec.chi_eff * (
            np.exp(-2.0 * a * b) * special.erfc(a / rt - b * rt)
            + np.exp(-(a / rt) ** 2 - spec.lam * t) * special.erfcx(a / rt + b * rt)
        )
    return -np.sign(u) * mag


def time_integrated_abs_kernel(spec: KernelSpec, t: float, u) -> np.ndarray:
    """Theta_t(u) = int_0^t |K_s(u)| ds; equals |J_t(u)| since K_s(u) has one sign in s.

    At lambda = 0 this is chi_eff * erfc(|u| / sqrt(2t)); its supremum over u
    (attained at u = 0) is chi_eff, which is the uniform bound behind the
    smoothed-interaction hypothesis (H.5).
    """
    vals = np.abs(time_integrated_kernel(spec, t, u))
    u = np.asarray(u, dtype=float)
    # the odd closed form is 0 at exactly u = 0; a convolution wants the
    # continuous extension there, which is the supremum chi_eff (the mass of
    # the s-integral concentrates at s -> 0, so lambda drops out of the limit)
    return np.where(u == 0.0, _theta_at_zero(spec, t), vals)


def _theta_at_zero(spec: KernelSpec, t: float) -> float:
    """lim_{u->0} Theta_t(u) = chi_eff for every lambda >= 0 and t > 0."""
    return spec.chi_eff


def kernel_symbol(spec: KernelSpec, t: float, xi: np.ndarray) -> np.ndarray:
    """Fourier symbol K_hat_t(xi) = chi_eff e^{-lam t} (i xi) e^{-xi^2 t / 2}.

    Convention f_hat(xi) = int f(x) e^{-i xi x} dx, matching numpy's fft of
    grid samples up to the factor h.
    """
    _require_time(t)
    if spec.kind == "custom":
        raise NotImplementedError("spectral path exists for the chemotaxis kernel only")
    return spec.chi_eff * math.exp(-spec.lam * t) * (1j * xi) * np.exp(-xi * xi * t / 2.0)


def integrated_kernel_symbol(spec: KernelSpec, dt: float, xi: np.ndarray) -> np.ndarray:
    """Symbol of int_0^dt K_tau(.) dtau: chi_eff (i xi) (1 - e^{-(lam + xi^2/2) dt}) / (lam + xi^2/2).

    The memory drift freezes the density on each subinterval and integrates
    the kernel's time profile exactly; the subinterval of age m then weighs
    its row by this symbol times symbol_decay(lam, (m - 1) dt, xi).  The
    xi = 0, lambda = 0 entry is the removable limit 0.
    """
    if dt <= 0:
        raise ValueError(f"need dt > 0, got {dt}")
    if spec.kind == "custom":
        raise NotImplementedError("spectral path exists for the chemotaxis kernel only")
    rate = spec.lam + xi * xi / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(rate > 0.0, -np.expm1(-rate * dt) / np.where(rate > 0.0, rate, 1.0), dt)
    return spec.chi_eff * (1j * xi) * frac


def symbol_decay(lam: float, a: float, xi: np.ndarray) -> np.ndarray:
    """e^{-(lam + xi^2/2) a}: the ratio K_hat_{s+a} / K_hat_s of the kernel
    symbol at ages a apart (also the damped heat symbol at time a)."""
    return np.exp(-(lam + xi * xi / 2.0) * a)


def pair_singular_weights(t_nodes: np.ndarray, k: int, total: float,
                          alpha: float, beta_exp: float) -> np.ndarray:
    """Exact subinterval integrals of (total - s)^{-alpha} s^{-beta_exp} on [0, t_k].

    Both endpoint singularities are integrated exactly through the regularized
    incomplete beta function; the smooth remainder of an integrand is frozen
    per subinterval by the caller.  Needs alpha < 1, beta_exp < 1 (both
    singularities integrable), 1 <= k < len(t_nodes) and total >= t_k.
    """
    if not (alpha < 1.0 and beta_exp < 1.0):
        raise ValueError(f"need alpha < 1 and beta_exp < 1, got {alpha}, {beta_exp}")
    if not 1 <= k < len(t_nodes) or total < t_nodes[k]:
        raise ValueError(f"need 1 <= k < {len(t_nodes)} and total >= t_k, got k={k}")
    u = t_nodes[: k + 1] / total
    a, b = 1.0 - beta_exp, 1.0 - alpha
    scale = total ** (1.0 - alpha - beta_exp) * special.beta(a, b)
    return scale * np.diff(special.betainc(a, b, u))


def f1_profile(spec: KernelSpec, mesh: TimeMesh, k: int) -> float:
    """f1(t_k) = int_0^{t_k} ||K_{t_k - s}||_L1 s^{-1/2} ds by product integration.

    The smooth factor c1(u) = ||K_u||_L1 sqrt(u) is frozen at adapted in-cell
    nodes; the (t_k - s)^{-1/2} s^{-1/2} pair is integrated exactly, so the
    lambda = 0 value chi_eff sqrt(2 pi) is reproduced to roundoff.
    """
    t = mesh.nodes
    tk = t[k]
    w = pair_singular_weights(t, k, tk, 0.5, 0.5)
    s_star = singular_eval_nodes(mesh, k)
    c1 = spec.chi_eff * math.sqrt(2.0 / math.pi) * np.exp(-spec.lam * (tk - s_star))
    return float(np.sum(c1 * w))


def f2_profile(spec: KernelSpec, mesh: TimeMesh, k: int) -> float:
    """f2(t_k) = int_0^{t_k} ||K_{t_k - s}||_L2 s^{-1/4} ds by product integration."""
    t = mesh.nodes
    tk = t[k]
    w = pair_singular_weights(t, k, tk, 0.75, 0.25)
    s_star = singular_eval_nodes(mesh, k)
    c2 = spec.chi_eff * _L2_COEFF * np.exp(-spec.lam * (tk - s_star))
    return float(np.sum(c2 * w))


def restart_profile(spec: KernelSpec, mesh: TimeMesh, t_shift: float) -> float:
    """int_0^T ||K_{T + t_shift - s}||_L1 s^{-1/2} ds for the horizon-restart bound (H.6).

    Singular at s = T only when t_shift = 0; the pair weights handle both ends.
    At lambda = 0 the closed form is chi_eff sqrt(2/pi) * 2 arcsin(sqrt(T / (T + t_shift))),
    whose supremum over t_shift >= 0 is chi_eff sqrt(2 pi) at t_shift = 0.
    """
    t = mesh.nodes
    T = mesh.horizon
    k = mesh.steps
    w = pair_singular_weights(t, k, T + t_shift, 0.5, 0.5)
    s_star = singular_eval_nodes(mesh, k)
    c1 = spec.chi_eff * math.sqrt(2.0 / math.pi) * np.exp(-spec.lam * (T + t_shift - s_star))
    return float(np.sum(c1 * w))


@dataclass
class HypothesisItem:
    name: str
    value: float
    bound: float
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    """Numeric verdicts for the six kernel conditions plus derived horizon data."""

    items: dict
    f1_sup: float
    f2_sup: float
    D_of_T: float
    T0: Optional[float] = None

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items.values())

    def lines(self) -> list:
        out = []
        for key in sorted(self.items):
            it = self.items[key]
            verdict = "pass" if it.passed else "FAIL"
            out.append(f"{it.name}: {verdict}  value={it.value:.6g} bound={it.bound:.6g}  {it.detail}")
        out.append(f"f1_sup={self.f1_sup:.6g} f2_sup={self.f2_sup:.6g} D(T)={self.D_of_T:.6g} "
                   f"T0={self.T0 if self.T0 is not None else 'n/a'}")
        return out


def default_trial_densities(grid: Grid1D) -> list:
    """Probability densities exercising the sup in (H.5): Gaussians of several
    widths and centers, a uniform, and a near-delta two cells wide."""
    x = grid.x
    trials = []
    for var, center in ((0.04, 0.0), (0.25, 0.0), (1.0, 0.0), (1.0, 1.5), (0.09, -2.0)):
        trials.append(DensityField(grid, heat_kernel(var, x - center)))
    box = ((x >= -1.0) & (x < 1.0)).astype(float) / 2.0
    trials.append(DensityField(grid, box))
    delta = np.zeros(grid.n)
    delta[grid.n // 2] = 1.0 / grid.h
    trials.append(DensityField(grid, delta))
    return trials


def _norm_integral_probe(spec: KernelSpec, T: float, norm_fn):
    """Values of int_eps^T norm(K_t) dt for shrinking eps; integrable kernels
    show geometrically decaying increments, non-integrable ones growth.

    A pointwise screen short-circuits kernels whose spatial norm is already
    infinite (nested quadrature would be wasted on them)."""
    screen = [norm_fn(tt) for tt in (T * 1e-3, T * 0.04, T * 0.5)]
    if not np.all(np.isfinite(screen)):
        vals = np.full(7, math.inf)
        return vals, np.diff(vals)
    eps = T * 4.0 ** -np.arange(1, 8)
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for e in eps:
            v, _ = integrate.quad(norm_fn, e, T, limit=100)
            vals.append(v)
    return np.array(vals), np.diff(vals)


def check_hypotheses(spec: KernelSpec, T: float, grid: Grid1D, mesh: TimeMesh,
                     trial_densities: Optional[Sequence[DensityField]] = None) -> HypothesisReport:
    """Evaluate the six integrability conditions for K on [0, T].

    H.1 integrability of t -> ||K_t|| in L^1 and L^2 (refinement probe);
    H.2 spatial continuity (max adjacent-value jump under grid refinement);
    H.3 pointwise vanishing of the short-time limit off x = 0 (sampled probe);
    H.4 boundedness of the singular time convolutions f1, f2 on mesh nodes;
    H.5 uniform bound on trial-density smoothings of int_0^t |K_.(x - y)|;
    H.6 boundedness of the horizon-restart integral.

    Probes sample; they are evidence, not certificates.
    """
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if trial_densities is None:
        trial_densities = default_trial_densities(grid)
    if len(trial_densities) == 0:
        raise ValueError("H.5 needs at least one trial density")
    items = {}

    # H.1: refinement increments of the t-integrals of both norms
    vals1, inc1 = _norm_integral_probe(spec, T, lambda t: kernel_l1_norm(spec, t))
    vals2, inc2 = _norm_integral_probe(spec, T, lambda t: kernel_l2_norm(spec, t))
    if spec.chi == 0.0:
        h1_ok = True
        ratio = 0.0
    else:
        tiny = 1e-14 * max(vals1[-1], 1.0)
        r1 = inc1[-1] / max(inc1[0], tiny)
        r2 = inc2[-1] / max(inc2[0], tiny)
        ratio = max(r1, r2)
        h1_ok = bool(np.isfinite(vals1[-1]) and np.isfinite(vals2[-1]) and ratio < 0.9)
    items["H1"] = HypothesisItem("H.1 time-integrability of ||K_t||", float(ratio), 0.9, h1_ok,
                                 f"L1 int={vals1[-1]:.4g}, L2 int={vals2[-1]:.4g}")

    # H.2: continuity probe at several times, jumps shrink under grid refinement
    jumps = []
    for factor in (1, 2, 4):
        g2 = Grid1D(grid.half_width, grid.n * factor)
        j = max(float(np.max(np.abs(np.diff(kernel_eval(spec, t, g2.x)))))
                for t in (0.05 * T, 0.3 * T, T))
        jumps.append(j)
    h2_ok = bool(jumps[-1] <= 0.75 * jumps[0] + 1e-12)
    items["H2"] = HypothesisItem("H.2 spatial continuity", jumps[-1], 0.75 * jumps[0] + 1e-12,
                                 h2_ok, f"max jumps under refinement: {[f'{j:.3g}' for j in jumps]}")

    # H.3: short-time limit off the origin; the kernel should die pointwise
    xs = np.array([-2.0, -0.5, 0.3, 1.0, 3.0])
    ts = T * 4.0 ** -np.arange(2, 9)
    probe = np.array([[abs(float(kernel_eval(spec, t, np.asarray(xv)))) for xv in xs] for t in ts])
    h3_ok = bool(np.all(probe[-1] <= probe[0] + 1e-12) and np.all(np.isfinite(probe)))
    items["H3"] = HypothesisItem("H.3 vanishing short-time limit off 0", float(probe[-1].max()),
                                 float(probe[0].max() + 1e-12), h3_ok,
                                 f"|K_t(x)| at t={ts[-1]:.2g} vs t={ts[0]:.2g}, x != 0")

    # H.4: f1, f2 finite on mesh nodes; for the chemotaxis kernel compare with
    # the lambda = 0 plateau values
    if spec.kind == "custom":
        f1_vals = [_f_custom(spec, mesh.nodes[k], 0.5, lambda u: kernel_l1_norm(spec, u))
                   for k in range(1, mesh.steps + 1, max(1, mesh.steps // 8))]
        f2_vals = [_f_custom(spec, mesh.nodes[k], 0.25, lambda u: kernel_l2_norm(spec, u))
                   for k in range(1, mesh.steps + 1, max(1, mesh.steps // 8))]
    else:
        f1_vals = [f1_profile(spec, mesh, k) for k in range(1, mesh.steps + 1)]
        f2_vals = [f2_profile(spec, mesh, k) for k in range(1, mesh.steps + 1)]
    f1_sup, f2_sup = float(np.max(f1_vals)), float(np.max(f2_vals))
    f1_bound = spec.chi_eff * math.sqrt(2.0 * math.pi)
    f2_bound = spec.chi_eff * math.pi ** 0.75 / math.sqrt(2.0)
    if spec.kind == "custom":
        h4_ok = bool(np.isfinite(f1_sup) and np.isfinite(f2_sup))
        detail = "finiteness only (no closed-form reference)"
    else:
        h4_ok = bool(f1_sup <= f1_bound * 1.01 and f2_sup <= f2_bound * 1.01)
        detail = f"plateaus {f1_bound:.6g}, {f2_bound:.6g} at lambda=0"
    items["H4"] = HypothesisItem("H.4 singular time convolutions f1, f2", f1_sup,
                                 f1_bound * 1.01 if spec.kind != "custom" else math.inf,
                                 h4_ok, detail)

    # H.5: sup over trials, evaluation points and times of the smoothed
    # absolute time integral; Theta_t grows in t so late times dominate
    t_samples = mesh.horizon * np.array([0.1, 0.3, 1.0])
    thetas = [time_integrated_abs_kernel(spec, t, grid.x) if spec.kind != "custom"
              else _theta_custom(spec, t, grid.x) for t in t_samples]
    if all(np.all(np.isfinite(theta)) for theta in thetas):
        h5_val = max(float(np.max(convolve(phi, theta, grid)))
                     for theta in thetas for phi in trial_densities)
    else:
        h5_val = math.inf
    h5_bound = _theta_at_zero(spec, mesh.horizon) if spec.kind != "custom" else math.inf
    h5_ok = bool(np.isfinite(h5_val) and h5_val <= h5_bound * (1.0 + 1e-9) + 1e-12)
    items["H5"] = HypothesisItem("H.5 uniform smoothed-interaction bound", h5_val, h5_bound,
                                 h5_ok, f"{len(trial_densities)} trial densities")

    # H.6: restart integral over a probe of shift times; the sup sits at shift 0
    shifts = mesh.horizon * np.array([0.0, 0.1, 0.5, 1.0])
    if spec.kind == "custom":
        h6_vals = [_f_custom(spec, mesh.horizon, 0.5,
                             lambda u, sh=sh: kernel_l1_norm(spec, u + sh)) for sh in shifts]
    else:
        h6_vals = [restart_profile(spec, mesh, sh) for sh in shifts]
    h6_sup = float(np.max(h6_vals))
    h6_bound = spec.chi_eff * math.sqrt(2.0 * math.pi) if spec.kind != "custom" else math.inf
    h6_ok = bool(np.isfinite(h6_sup) and (spec.kind == "custom" or h6_sup <= h6_bound * 1.001))
    items["H6"] = HypothesisItem("H.6 horizon-restart integral", h6_sup, h6_bound, h6_ok,
                                 f"sup over shifts {list(shifts)}")

    try:
        D_T = horizon_D(spec, T)
    except ValueError:
        D_T = math.inf     # non-convergent quadrature: no contraction budget
    try:
        T0 = find_T0(spec, 0.5)
    except ValueError:
        T0 = None
    return HypothesisReport(items=items, f1_sup=f1_sup, f2_sup=f2_sup, D_of_T=D_T, T0=T0)


def _f_custom(spec: KernelSpec, t: float, s_exp: float, norm_fn) -> float:
    val, _ = integrate.quad(lambda s: norm_fn(t - s) * s ** -s_exp, 0, t,
                            points=[0, t], limit=400)
    return val


def _theta_custom(spec: KernelSpec, t: float, u: np.ndarray) -> np.ndarray:
    """Theta_t(u) = int_0^t |K_s(u)| ds at every u by one vector quadrature;
    inf everywhere if it does not converge (the checker fails H.5 on inf)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            val, _, info = integrate.quad_vec(lambda s: np.abs(spec.eval_fn(s, u)), 0.0, t,
                                              norm="max", limit=200, full_output=True)
        except ArithmeticError:     # a kernel blowing up as s -> 0
            return np.full_like(u, math.inf)
    return val if info.success else np.full_like(u, math.inf)


def horizon_D(spec: KernelSpec, T: float) -> float:
    """D(T) = int_0^T ||K_t||_L1 dt, the contraction budget of the horizon."""
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if spec.kind == "custom":
        val, err = integrate.quad(lambda t: kernel_l1_norm(spec, t), 0, T,
                                  points=[0], limit=400)
        if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise ValueError("D(T) quadrature did not converge; kernel may not be integrable")
        return val
    if spec.lam == 0.0:
        return 2.0 * spec.chi_eff * math.sqrt(2.0 * T / math.pi)
    return spec.chi_eff * math.sqrt(2.0 / spec.lam) * special.erf(math.sqrt(spec.lam * T))


def find_T0(spec: KernelSpec, safety: float) -> float:
    """Largest horizon with D(T0) <= safety; inf if D saturates below safety,
    and at once for the interaction-free chi = 0 and zero_kernel.

    For the lambda = 0 chemotaxis kernel this is the closed form
    T0 = pi safety^2 / (8 chi_eff^2).
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"need safety in (0, 1), got {safety}")
    if spec.chi == 0.0 or spec.eval_fn is zero_kernel:
        return math.inf
    if spec.kind != "custom" and spec.lam == 0.0:
        return math.pi * safety ** 2 / (8.0 * spec.chi_eff ** 2)
    if spec.kind != "custom":
        ceiling = spec.chi_eff * math.sqrt(2.0 / spec.lam)
        if ceiling <= safety:
            return math.inf
    hi = 1.0
    while horizon_D(spec, hi) < safety:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    return float(optimize.brentq(lambda T: horizon_D(spec, T) - safety, 1e-300, hi,
                                 xtol=1e-14, rtol=1e-13))
