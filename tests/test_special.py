"""numpy special functions against scipy.special, 30-digit reference values
and a per-element continued fraction."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from ksmv import cli, qz
from ksmv.special import binomial_sf, erfc, erfcx, kummer_scaled, lower_gamma

from ksmv_helpers import binomial_sf_oracle

EPS = np.finfo(float).eps

# mpmath at 30 digits, rounded to double
ERFC_EXACT = {0.5: 0.4795001221869535, 3.0: 2.209049699858544e-05,
              10.0: 2.088487583762545e-45, 20.0: 5.395865611607901e-176,
              26.0: 5.663192408856143e-296, -3.0: 1.9999779095030015}
ERFCX_EXACT = {-3.0: 16205.988853999586, 5.0: 0.11070463773306863,
               30.0: 0.01879588886141675, 1e4: 5.641895807268084e-05}


def test_erfc_and_erfcx_match_scipy_and_exact_values():
    z = np.concatenate([np.linspace(-6.0, 40.0, 46001), -np.geomspace(1e-8, 6.0, 200),
                        np.geomspace(1e-8, 1e8, 400)])
    assert np.max(np.abs(erfcx(z) / special.erfcx(z) - 1.0)) <= 1e-14
    # scipy's erfc carries the rounding of z^2, about eps z^2 relative; the
    # helper splits z^2 exactly.  Past z = 26.6 both underflow to subnormals
    # or 0, which only an absolute tolerance can compare
    want = special.erfc(z)
    normal = want > np.finfo(float).tiny
    rel = np.abs(erfc(z)[normal] / want[normal] - 1.0)
    assert np.all(rel <= 1e-14 + EPS * z[normal] ** 2)
    assert np.max(np.abs(erfc(z)[~normal] - want[~normal])) <= 1e-309
    assert np.all(erfc(z[z > 27.3]) == 0.0)
    for v, exact in ERFC_EXACT.items():
        assert float(erfc(v)) == pytest.approx(exact, rel=2e-15)
    for v, exact in ERFCX_EXACT.items():
        assert float(erfcx(v)) == pytest.approx(exact, rel=2e-15)
    assert erfc(np.array([-np.inf, np.inf])).tolist() == [2.0, 0.0]
    assert erfcx(np.array([np.inf, -30.0])).tolist() == [0.0, math.inf]


def test_kummer_scaled_and_lower_gamma_match_scipy():
    z = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 300), [39.99, 40.0, 40.01]])
    # e^{-z} M(1/2, 1, z) = e^{-z/2} I_0(z/2)
    assert np.max(np.abs(kummer_scaled(0.5, z) / special.i0e(z / 2.0) - 1.0)) <= 1e-14
    m = z <= 600.0
    want = special.hyp1f1(0.75, 1.0, z[m]) * np.exp(-z[m])
    assert np.max(np.abs(kummer_scaled(0.75, z[m]) / want - 1.0)) <= 1e-14
    # finite where M itself overflows
    big = kummer_scaled(0.75, np.array([1e3, 1e8]))
    assert np.all(np.isfinite(big)) and np.all(big > 0.0)
    for x in (0.0, 1e-9, 0.3, 5.0, 39.9, 40.1, 700.0):
        want = special.gammainc(0.25, x) * special.gamma(0.25)
        assert lower_gamma(0.25, x) == pytest.approx(want, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("n", [1, 2, 10, 2000])
def test_binomial_tail_matches_bdtrc(n):
    # P(X >= k) = bdtrc(k - 1, n, p), which takes k - 1 <= n only; bdtrc is
    # itself about 3e-12 off exact values at n = 2000, so the comparison is at 1e-11
    rng = np.random.default_rng(n)
    k = np.concatenate([[0, 1, n, n + 1, -3], rng.integers(0, n + 2, 40)])
    for p in (0.0, 1e-7, 0.01, 0.3, 0.5, 0.9, 1.0):
        got, want = binomial_sf(k, n, p), special.bdtrc(k - 1, n, p)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-300), (n, p)
    assert binomial_sf(0, n, 0.3) == 1.0 and binomial_sf(n + 5, n, 0.3) == 0.0
    assert binomial_sf(1, n, 0.0) == 0.0 and binomial_sf(n, n, 1.0) == 1.0
    # elementwise in k and p together, as verify_bound calls it
    ks, ps = np.minimum([1, 2, 3], n), np.array([0.1, 0.2, 0.3])
    assert np.allclose(binomial_sf(ks, n, ps), special.bdtrc(ks - 1, n, ps), rtol=1e-11)


def test_binomial_tail_equals_the_per_element_continued_fraction(tmp_path, monkeypatch):
    # the tails a `ksmv qz` run at N = 2e4 asks for (the histogram check's
    # and the bound check's), then a grid of k around and far from the mean
    calls = []

    def record(k, n, p):
        calls.append((np.asarray(k), n, np.asarray(p, dtype=float)))
        return binomial_sf(k, n, p)

    monkeypatch.setattr(cli, "binomial_sf", record)
    monkeypatch.setattr(qz, "binomial_sf", record)
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (Path(__file__).resolve().parents[1] / "configs" / "full_model.cfg").read_text()
    cfg = tmp_path / "qz.cfg"
    cfg.write_text(re.sub(r"(?m)^particles\.n = \d+$", "particles.n = 20000", text))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "qz"), "qz"]) == 0
    assert [(k.size, n) for k, n, _ in calls] == [(72, 20000), (50, 20000)]
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 10, 2000, 20000, 100000):
        for p in (1e-7, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9):
            sd = math.sqrt(n * p * (1.0 - p))
            k = np.concatenate([np.arange(-1, 6), [n - 1, n, n + 1], rng.integers(0, n + 2, 40),
                                np.round(n * p + sd * np.linspace(-12.0, 12.0, 49))])
            calls.append((k.astype(int), n, np.full(k.size, p)))
    for k, n, p in calls:
        got, want = binomial_sf(k, n, p), binomial_sf_oracle(k, n, p)
        assert np.array_equal(got == 0.0, want == 0.0)
        pos = want > 0.0
        assert np.all(np.abs(got[pos] / want[pos] - 1.0) <= 1e-13), (n, p)
        # and bit for bit: every element stops at the half-step its own loop
        # stops at, and IEEE arithmetic rounds each operation alike in both
        assert np.array_equal(got, want), (n, p)
