"""Interaction kernels K_t(x) and the integrability diagnostics that gate the solver.

The chemotaxis kernel is the time-decayed gradient of the heat kernel,

    K_t(x) = chi_eff * exp(-lambda t) * d/dx g(t, x)
           = chi_eff * exp(-lambda t) * (-x) / (sqrt(2 pi) t^{3/2}) * exp(-x^2 / (2t)),

odd in x and singular in time: its L^1(R) norm scales like t^{-1/2} and its
L^2(R) norm like t^{-3/4}.

The norms

    ||K_t||_L1 = chi_eff exp(-lambda t) sqrt(2/pi) t^{-1/2}
    ||K_t||_L2 = chi_eff exp(-lambda t) c2 t^{-3/4},   c2 = (1/2) pi^{-1/4}

and the time-integrated kernel int_0^t K_s(u) ds (an erfc pair) serve the
test suite, which pins them against adaptive quadrature.  Closed forms
implemented here (pinned the same way), with M(a, 1, z) Kummer's function:

    f1(t) = int_0^t ||K_{t-s}||_L1 s^{-1/2} ds
          = chi_eff sqrt(2 pi) exp(-lambda t) M(1/2, 1, lambda t)
    f2(t) = int_0^t ||K_{t-s}||_L2 s^{-1/4} ds
          = chi_eff c2 Gamma(1/4) Gamma(3/4) exp(-lambda t) M(3/4, 1, lambda t)
    D(T) = int_0^T ||K_t||_L1 dt
         = 2 chi_eff sqrt(2T/pi)                  for lambda = 0
         = chi_eff sqrt(2/lambda) erf(sqrt(lambda T))  otherwise,

where chi_eff = chi, and chi_eff = 0 for kind "none" (`model.kernel = none`),
whose closed forms all read 0.  The six-part integrability hypothesis on K
(H.1 to H.6 below) is reported by :func:`check_hypotheses` from closed forms
of what each condition bounds; none samples a grid or a density.  The
contraction horizon T0 solves D(T0) = safety.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeMesh, gauss_legendre
from .special import kummer_scaled, lower_gamma

__all__ = [
    "KernelSpec",
    "has_memory",
    "HypothesisItem",
    "HypothesisReport",
    "integrated_kernel_symbol",
    "symbol_decay",
    "f1_profile",
    "f2_profile",
    "restart_profile",
    "check_hypotheses",
    "horizon_D",
    "find_T0",
]

_L2_COEFF = 0.5 * math.pi ** -0.25  # ||d/dx g(t,.)||_L2 = _L2_COEFF * t^{-3/4}

_GAMMA_QUARTERS = math.gamma(0.25) * math.gamma(0.75)   # = pi sqrt(2)


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the interaction kernel.

    chi = 0 or kind "none" switches the interaction off; "none" keeps chi for
    the exogenous drift b.  The model requires chi > 0, which the CLI
    enforces at config load.
    """

    chi: float = 1.0
    lam: float = 0.0
    kind: str = "keller_segel"

    def __post_init__(self):
        if self.chi < 0:
            raise ValueError(f"need chi >= 0, got {self.chi}")
        if self.lam < 0:
            raise ValueError(f"need lambda >= 0, got {self.lam}")
        if self.kind not in ("keller_segel", "none"):
            raise ValueError(f"kind must be keller_segel or none, got {self.kind!r}")

    @property
    def chi_eff(self) -> float:
        """Coupling of the kernel chi_eff exp(-lam t) d/dx g(t, x): chi, and 0
        for kind "none", which keeps chi for b only."""
        return 0.0 if self.kind == "none" else self.chi


def has_memory(spec: KernelSpec) -> bool:
    """Whether the memory drift B is on: chi_eff > 0, so False for chi = 0 and
    for kind "none"."""
    return spec.chi_eff > 0.0


def integrated_kernel_symbol(spec: KernelSpec, dt: float, xi: np.ndarray) -> np.ndarray:
    """Symbol of int_0^dt K_tau(.) dtau: chi_eff (i xi) (1 - e^{-(lam + xi^2/2) dt}) / (lam + xi^2/2).

    The memory drift freezes the density on each subinterval and integrates
    the kernel's time profile exactly; the subinterval of age m then weighs
    its row by this symbol times symbol_decay(lam, (m - 1) dt, xi).  The
    xi = 0, lambda = 0 entry is the removable limit 0.
    """
    if dt <= 0:
        raise ValueError(f"need dt > 0, got {dt}")
    rate = spec.lam + xi * xi / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(rate > 0.0, -np.expm1(-rate * dt) / np.where(rate > 0.0, rate, 1.0), dt)
    return spec.chi_eff * (1j * xi) * frac


def symbol_decay(lam: float, a: float, xi: np.ndarray) -> np.ndarray:
    """e^{-(lam + xi^2/2) a}: the ratio K_hat_{s+a} / K_hat_s of the kernel
    symbol at ages a apart (also the damped heat symbol at time a)."""
    return np.exp(-(lam + xi * xi / 2.0) * a)


def f1_profile(spec: KernelSpec, t) -> np.ndarray:
    """f1(t) = int_0^t ||K_{t - s}||_L1 s^{-1/2} ds
    = chi_eff sqrt(2 pi) e^{-lambda t} M(1/2, 1, lambda t), vectorized in t.

    The lambda = 0 value chi_eff sqrt(2 pi) is the plateau, and f1 falls
    from it as lambda t grows.
    """
    t = np.asarray(t, dtype=float)
    return spec.chi_eff * math.sqrt(2.0 * math.pi) * kummer_scaled(0.5, spec.lam * t)


def f2_profile(spec: KernelSpec, t) -> np.ndarray:
    """f2(t) = int_0^t ||K_{t - s}||_L2 s^{-1/4} ds
    = chi_eff c2 Gamma(1/4) Gamma(3/4) e^{-lambda t} M(3/4, 1, lambda t),
    vectorized in t, with c2 = pi^{-1/4} / 2 from ||K_t||_L2."""
    t = np.asarray(t, dtype=float)
    return spec.chi_eff * _L2_COEFF * _GAMMA_QUARTERS * kummer_scaled(0.75, spec.lam * t)


def restart_profile(spec: KernelSpec, T: float, t_shift: float) -> float:
    """int_0^T ||K_{T + t_shift - s}||_L1 s^{-1/2} ds for the horizon-restart bound (H.6).

    With tau = T + t_shift, s = tau sin^2(theta) turns the singular pair
    (tau - s)^{-1/2} s^{-1/2} ds into 2 dtheta: a panel's weight is the
    difference of arcsin(sqrt(s / tau)) at its ends.  What is left,
    2 chi_eff sqrt(2/pi) int_0^Theta e^{-c cos^2 theta} dtheta with
    Theta = arcsin(sqrt(T / tau)) and c = lambda tau, is smooth and grows
    in theta.  Below theta_lo, where (c/2)(cos 2theta - cos 2Theta) > 50,
    it is e^{-50} of its value at Theta and is dropped; the 8-point
    Gauss-Legendre rule integrates [theta_lo, Theta] on panels narrower than
    the integrand's scale there, 1 / (sqrt(c) + c sin 2Theta).  At
    lambda = 0 the value is chi_eff sqrt(2/pi) 2 Theta, whose supremum over
    t_shift >= 0 is chi_eff sqrt(2 pi) at t_shift = 0.
    """
    tau = T + t_shift
    c = spec.lam * tau
    theta = math.asin(math.sqrt(T / tau))
    lo = 0.5 * math.acos(min(1.0, math.cos(2.0 * theta) + 100.0 / c)) if c > 0.0 else 0.0
    panels = 4 + math.ceil((theta - lo) * (math.sqrt(c) + c * math.sin(2.0 * theta)))
    nodes, weights = gauss_legendre(np.linspace(lo, theta, panels + 1))
    smooth = np.exp(-c * np.cos(nodes) ** 2)
    return float(2.0 * spec.chi_eff * math.sqrt(2.0 / math.pi) * np.sum(weights * smooth))


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

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items.values())


def _l2_norm_integral(spec: KernelSpec, lo: float, hi: float) -> float:
    """int_lo^hi ||K_t||_L2 dt = chi_eff c2 lambda^{-1/4} [gamma(1/4, lambda hi)
    - gamma(1/4, lambda lo)], and chi_eff c2 4 (hi^{1/4} - lo^{1/4}) at lambda = 0."""
    lam = spec.lam
    if lam == 0.0:
        return spec.chi_eff * _L2_COEFF * 4.0 * (hi ** 0.25 - lo ** 0.25)
    return spec.chi_eff * _L2_COEFF * lam ** -0.25 * (lower_gamma(0.25, lam * hi)
                                                      - lower_gamma(0.25, lam * lo))


def check_hypotheses(spec: KernelSpec, mesh: TimeMesh) -> HypothesisReport:
    """Evaluate the six integrability conditions for K on [0, T], T = mesh.horizon.

    Every record is a closed form:
    H.1 integrability of t -> ||K_t|| in L^1 and L^2: the increments of
        int_eps^T as eps quarters shrink by 4^{-1/2} and 4^{-1/4};
    H.2 spatial continuity: sup_x |d/dx K_t| = chi_eff e^{-lambda t} / (sqrt(2 pi) t^{3/2});
    H.3 vanishing short-time limit off x = 0: sup_{|x| >= delta} |K_t(x)|;
    H.4 boundedness of the singular time convolutions f1, f2 on mesh nodes;
    H.5 uniform bound on probability-density smoothings of
        Theta_t = int_0^t |K_s| ds: its supremum Theta_t(0) = chi_eff;
    H.6 boundedness of the horizon-restart integral.
    """
    T = mesh.horizon
    items = {}

    # H.1: the last two increments under eps -> eps / 4, from eps below
    # 1/lambda on, where the decay is negligible and the t^{-1/2} (L1) and
    # t^{-3/4} (L2) singularities set the ratios 1/2 and 1/sqrt(2)
    eps = (min(T, 1.0 / spec.lam) if spec.lam else T) * 4.0 ** -np.arange(5, 8)
    inc = np.array([[horizon_D(spec, a) - horizon_D(spec, b) for a, b in zip(eps, eps[1:])],
                    [_l2_norm_integral(spec, b, a) for a, b in zip(eps, eps[1:])]])
    ratios = np.divide(inc[:, 1], inc[:, 0], out=np.zeros(2), where=inc[:, 0] > 0.0)
    D_T = horizon_D(spec, T)
    items["H1"] = HypothesisItem("H.1 time-integrability of ||K_t||", float(ratios.max()), 0.9,
                                 bool(ratios.max() < 0.9),
                                 f"increment ratios L1 {ratios[0]:.4f}, L2 {ratios[1]:.4f}; "
                                 f"L1 int={D_T:.4g}, L2 int={_l2_norm_integral(spec, 0.0, T):.4g}")

    # H.2: K_t is Lipschitz in x, steepest at x = 0.  As the exp of a log-sum
    # the slope reads inf, and fails, where t^{3/2} would underflow to 0, and
    # 0 at chi_eff = 0
    t2 = T * np.array([0.05, 0.3, 1.0])
    with np.errstate(divide="ignore", over="ignore"):
        slopes = np.exp(np.log(spec.chi_eff / math.sqrt(2.0 * math.pi)) - spec.lam * t2
                        - 1.5 * np.log(t2))
    items["H2"] = HypothesisItem("H.2 spatial continuity", float(slopes.max()), math.inf,
                                 bool(np.isfinite(slopes.max())),
                                 "sup_x |dK_t/dx| at t = " + ", ".join(f"{t:.3g}" for t in t2))

    # H.3: sup_{|x| >= delta} |K_t(x)| sits at x = max(delta, sqrt(t)); below
    # t = delta^2 / 3 it grows in t at lambda = 0, so the value at the short
    # probe is below the lambda = 0 value at the long one
    delta = 0.3

    # as the exp of one log-sum: t^{3/2} alone underflows to 0 at t ~ 1e-300,
    # but the exponent is at most 3.8, its value at t = delta^2 / 3
    def off_origin_sup(t, lam):
        x = max(delta, math.sqrt(t))
        return (spec.chi_eff * x / math.sqrt(2.0 * math.pi)
                * math.exp(-lam * t - x * x / (2.0 * t) - 1.5 * math.log(t)))

    t_long = min(T, delta ** 2 / 3.0)
    h3_val, h3_bound = off_origin_sup(t_long / 16.0, spec.lam), off_origin_sup(t_long, 0.0)
    items["H3"] = HypothesisItem("H.3 vanishing short-time limit off 0", h3_val, h3_bound,
                                 bool(h3_val <= h3_bound),
                                 f"sup over |x| >= {delta:g} at t={t_long / 16.0:.3g}, "
                                 f"lambda=0 value at t={t_long:.3g}")

    # H.4: f1, f2 on mesh nodes against their lambda = 0 plateau values,
    # which e^{-z} M(a, 1, z) (a < 1) takes at z = 0 and falls from; the
    # slack covers the rounding of the closed forms at lambda = 0
    slack = 1.0 + 1e-12
    f1_sup = float(np.max(f1_profile(spec, mesh.nodes[1:])))
    f2_sup = float(np.max(f2_profile(spec, mesh.nodes[1:])))
    f1_plateau = spec.chi_eff * math.sqrt(2.0 * math.pi)
    f2_plateau = spec.chi_eff * math.pi ** 0.75 / math.sqrt(2.0)
    h4_ok = bool(f1_sup <= f1_plateau * slack and f2_sup <= f2_plateau * slack)
    items["H4"] = HypothesisItem("H.4 singular time convolutions f1, f2", f1_sup,
                                 f1_plateau * slack, h4_ok,
                                 f"f2 sup {f2_sup:.6g}; plateaus {f1_plateau:.6g}, "
                                 f"{f2_plateau:.6g} at lambda=0")

    # H.5: Theta_t = |J_t| peaks at u = 0, where the mass of the s-integral
    # concentrates at s -> 0 and lambda drops out: Theta_t(0) = chi_eff at
    # every t bounds every smoothing of Theta_t by a probability density
    items["H5"] = HypothesisItem("H.5 uniform smoothed-interaction bound", spec.chi_eff,
                                 spec.chi_eff, True, "sup_u Theta_t(u) = Theta_t(0) = chi_eff")

    # H.6: restart integral over a probe of shift times; the sup sits at shift 0
    shifts = T * np.array([0.0, 0.1, 0.5, 1.0])
    h6_sup = max(restart_profile(spec, T, sh) for sh in shifts)
    h6_bound = spec.chi_eff * math.sqrt(2.0 * math.pi) * slack
    items["H6"] = HypothesisItem("H.6 horizon-restart integral", h6_sup, h6_bound,
                                 bool(h6_sup <= h6_bound),
                                 "sup over shifts " + ", ".join(f"{sh:g}" for sh in shifts))

    return HypothesisReport(items=items, f1_sup=f1_sup, f2_sup=f2_sup, D_of_T=D_T)


def horizon_D(spec: KernelSpec, T: float) -> float:
    """D(T) = int_0^T ||K_t||_L1 dt, the contraction budget of the horizon.

    T = inf gives the chemotaxis kernel's saturation level chi_eff sqrt(2/lambda)
    (inf at lambda = 0).
    """
    if T <= 0:
        raise ValueError(f"need T > 0, got {T}")
    if spec.lam == 0.0:
        return 2.0 * spec.chi_eff * math.sqrt(2.0 * T / math.pi)
    return spec.chi_eff * math.sqrt(2.0 / spec.lam) * math.erf(math.sqrt(spec.lam * T))


def find_T0(spec: KernelSpec, safety: float) -> float:
    """Largest horizon with D(T0) <= safety; inf if D saturates below safety,
    and at once when chi_eff = 0 (chi = 0 or kind "none": D is 0).

    At lambda = 0 this is the closed form T0 = pi safety^2 / (8 chi_eff^2).
    For lambda > 0 it inverts D(T) = ceiling erf(sqrt(lambda T)),
    ceiling = chi_eff sqrt(2/lambda): bisection on math.erf finds the
    largest y with erf(y) <= safety / ceiling to float resolution, and
    T0 = y^2 / lambda.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"need safety in (0, 1), got {safety}")
    if spec.chi_eff == 0.0:
        return math.inf
    if spec.lam == 0.0:
        return math.pi * safety ** 2 / (8.0 * spec.chi_eff ** 2)
    ceiling = spec.chi_eff * math.sqrt(2.0 / spec.lam)
    if ceiling <= safety:
        return math.inf
    target = safety / ceiling
    lo, hi = 0.0, 6.0   # erf(6.0) rounds to 1.0 > target
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if math.erf(mid) <= target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo * lo / spec.lam
