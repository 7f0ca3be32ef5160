"""Special functions for the kernel and comparison-density diagnostics, in
numpy and the math module alone.

erfcx(z) = e^{z^2} erfc(z) for z >= 0 is t exp(P(u)) with t = 2 / (2 + z)
and u = 2t - 1, in the manner of Schonfelder (Math. Comp. 32, 1978): P is
the degree-24 truncation of the Chebyshev series of log(erfcx(z) / t) in u,
fitted at 60 digits and written in powers of u.  The magnitudes of those
coefficients sum to 1.5, so Horner's rule loses nothing, and erfcx is within
7e-16 relative of the exact value on [0, inf).  erfc(z) = e^{-z^2} erfcx(z)
for z >= 0 and 2 - erfc(-z) below; e^{-z^2} is taken as e^{-h^2} e^{-(z-h)(z+h)}
with h = z rounded down to a sixteenth, whose square is exact, so the
rounding of z^2 does not enter.

kummer_scaled(a, z) = e^{-z} M(a, 1, z) sums Kummer's series, scaled by
e^{-z} term by term, up to z = 40, and the large-z expansion
z^{a-1} / Gamma(a) sum_k ((1 - a)_k)^2 / (k! z^k) above; the term that
expansion leaves out is e^{-z} smaller.  lower_gamma sums the series of the
lower incomplete gamma function.  binomial_sf is the binomial upper tail as
a regularized incomplete beta function, by Lentz's continued fraction run
over all elements at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfcx", "erfc", "kummer_scaled", "lower_gamma", "binomial_sf"]

# powers u^0 .. u^24 of P(u) ~ log(erfcx(z) / t)
_ERFCX_POLY = np.array([
    -0.6717940840566922, 0.6726432239776583, 0.047343306841863525, -0.04689561023132892,
    -0.009872689364099222, 0.008824938561312326, 0.0017589335074028032, -0.002345812552995894,
    -0.00014624628742128406, 0.0006736791352568864, -9.373894767667295e-05,
    -0.00017430412986925938, 7.141810433422301e-05, 3.174693542327236e-05,
    -3.023784054007137e-05, 1.3989370477611051e-07, 8.662535397475538e-06,
    -2.963484230959699e-06, -1.409445991433531e-06, 1.283394915356199e-06,
    -4.146853754663641e-08, -2.895626567435524e-07, 7.745572408758512e-08,
    2.980513364515168e-08, -1.2776086554968677e-08])


def _erfcx_nonneg(z: np.ndarray) -> np.ndarray:
    t = 2.0 / (2.0 + z)
    u = 2.0 * t - 1.0
    acc = np.full_like(t, _ERFCX_POLY[-1])
    for c in _ERFCX_POLY[-2::-1]:
        acc *= u
        acc += c
    np.exp(acc, out=acc)
    acc *= t
    return acc


def _exp_sq(z: np.ndarray, sign: float) -> np.ndarray:
    """e^{sign z^2} for z >= 0 without the rounding error of z^2; z is
    clipped at 30, where e^{-z^2} is 0 and e^{z^2} inf in float64."""
    z = np.minimum(z, 30.0)
    hi = np.floor(16.0 * z) / 16.0
    return np.exp(sign * hi * hi) * np.exp(sign * (z - hi) * (z + hi))


def erfcx(z) -> np.ndarray:
    """Scaled complementary error function e^{z^2} erfc(z), vectorized; inf
    where it overflows (z below about -26.6)."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    out = _erfcx_nonneg(a)
    neg = z < 0.0
    if np.any(neg):
        with np.errstate(over="ignore"):
            out = np.where(neg, 2.0 * _exp_sq(a, 1.0) - out, out)
    return out


def erfc(z) -> np.ndarray:
    """Complementary error function, vectorized."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    out = _exp_sq(a, -1.0) * _erfcx_nonneg(a)
    return np.where(z < 0.0, 2.0 - out, out)


def kummer_scaled(a: float, z) -> np.ndarray:
    """e^{-z} M(a, 1, z) for z >= 0, vectorized in z; finite for every z."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= 40.0
    zs = z[small]
    term = np.exp(-zs)
    total = term.copy()
    n = 0
    while np.any(term > 1e-17 * total):
        term *= (a + n) * zs / (n + 1) ** 2
        total += term
        n += 1
    out[small] = total
    zl = z[~small]
    term = np.ones_like(zl)
    total = term.copy()
    k = 0
    while np.any(term > 1e-17 * total):
        term *= (1.0 - a + k) ** 2 / ((k + 1) * zl)
        total += term
        k += 1
    out[~small] = zl ** (a - 1.0) / math.gamma(a) * total
    return out


def lower_gamma(a: float, x: float) -> float:
    """gamma(a, x) = int_0^x s^{a-1} e^{-s} ds for 0 < a <= 1 and x >= 0.

    Above x = 40 the upper tail Gamma(a, x) < x^{a-1} e^{-x} is below
    1e-17 Gamma(a), so the value there is Gamma(a)."""
    if x > 40.0:
        return math.gamma(a)
    term = x ** a * math.exp(-x) / a
    total = term
    n = 1
    while term > 1e-17 * total:
        term *= x / (a + n)
        total += term
        n += 1
    return total


# half-steps of the continued fraction per vectorized pass, and their cap
_CF_CHUNK = 40
_CF_MAX_STEPS = 10_000


def _betainc_int(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b), elementwise, for integer-valued
    a, b >= 1 and 0 < x <= (a + 1) / (a + b + 2), where its continued fraction
    converges, by Lentz's method.

    One recursion runs over all elements, _CF_CHUNK half-steps at a time.
    A zero denominator is replaced by 1e-300 by adding 1e-300: every nonzero
    one is 1 + y with |1 + y| >= 2^-53, which the addition leaves unchanged.
    An element stops at the first half-step with |1 - c d| < 1e-16, so its
    value is the one its own loop gives; the products c d of a pass are
    multiplied into f in order by a cumulative product."""
    out = np.empty(a.size)
    front = np.array([math.exp(math.lgamma(ai + bi) - math.lgamma(ai + 1.0) - math.lgamma(bi)
                               + ai * math.log(xi) + bi * math.log1p(-xi))
                      for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist())])
    live = np.arange(a.size)          # elements not yet converged
    # s = [1 + num d, c]: both take the same two additions in one call each
    s, d = np.ones((2, a.size)), np.zeros(a.size)
    one, tiny = np.ones((2, a.size)), np.full((2, a.size), 1e-300)
    f = np.empty((_CF_CHUNK + 1, a.size))   # row 0: f so far; rows 1..: c d
    f[0] = 1.0
    steps = np.arange(_CF_CHUNK)[:, None]
    for i0 in range(0, _CF_MAX_STEPS, _CF_CHUNK):
        i = i0 + steps
        m = i // 2
        with np.errstate(invalid="ignore"):   # 0 / 0 at i = 0 and a = 1; that term is 1
            num = np.where(i % 2 == 0,
                           m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                           -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)))
        if i0 == 0:
            num[0] = 1.0
        (dn, c), one_row = s, one[0]
        for num_i, cd in zip(num, f[1:]):
            np.multiply(num_i, d, out=dn)
            np.divide(num_i, c, out=c)
            np.add(s, one, out=s)
            np.add(s, tiny, out=s)
            np.divide(one_row, dn, out=d)
            np.multiply(c, d, out=cd)
        hit = np.abs(1.0 - f[1:]) < 1e-16
        np.cumprod(f, axis=0, out=f)
        done = hit.any(axis=0)
        at = np.argmax(hit[:, done], axis=0) + 1
        out[live[done]] = front[done] * (f[at, np.flatnonzero(done)] - 1.0)
        rest = ~done
        if not rest.any():
            return out
        live, a, b, x, d, front = live[rest], a[rest], b[rest], x[rest], d[rest], front[rest]
        s, one, tiny = s[:, rest], one[:, rest], tiny[:, rest]
        f = np.concatenate([f[-1:, rest], np.empty((_CF_CHUNK, live.size))])
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at "
                          f"a={a[0]:g}, b={b[0]:g}, x={x[0]!r}")


def binomial_sf(k, n: int, p) -> np.ndarray:
    """P(X >= k) for X ~ Binomial(n, p), elementwise in k and p:
    I_p(k, n - k + 1) for 1 <= k <= n, 1 for k <= 0, 0 for k > n.

    The symmetry I_x(a, b) = 1 - I_{1-x}(b, a) keeps each continued fraction
    on the side where it converges.  The prefactor's log-gammas cancel to
    about n log(n) eps, so the tail is within about 2e-12 relative at
    n = 2000 and 1e-10 at n = 1e5."""
    k, p = np.broadcast_arrays(np.asarray(k), np.asarray(p, dtype=float))
    out = np.where((k <= 0) | ((k <= n) & (p >= 1.0)), 1.0, 0.0)
    tail = (k >= 1) & (k <= n) & ~(p <= 0.0) & ~(p >= 1.0)
    a, x = k[tail].astype(float), p[tail]
    b = n - a + 1.0
    flip = x > (a + 1.0) / (a + b + 2.0)
    a, b, x = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, 1.0 - x, x)
    value = _betainc_int(a, b, x)
    out[tail] = np.where(flip, 1.0 - value, value)
    return out
