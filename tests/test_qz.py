"""Sign-drift comparison density and the universal bounded-drift bound."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from ksmv.grid import TimeMesh
from ksmv.particle import ParticleEnsemble, simulate_bounded_drift
from ksmv.qz import QZParams, qz_density, verify_bound

from ksmv_helpers import binomial_sf_oracle, qz_bound, qz_density_oracle


def test_params_validation():
    with pytest.raises(ValueError):
        QZParams(beta=-0.1, y=0.0, x=0.0, t=1.0)
    with pytest.raises(ValueError):
        QZParams(beta=1.0, y=0.0, x=0.0, t=0.0)
    with pytest.raises(ValueError):
        qz_bound(-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        qz_bound(1.0, 0.0, 0.0, -1.0)


def test_zero_drift_reduces_to_gaussian():
    params = QZParams(beta=0.0, y=0.7, x=-0.3, t=0.8)
    for z in (-2.0, 0.0, 0.7, 1.9):
        gauss = math.exp(-(z + 0.3) ** 2 / 1.6) / math.sqrt(2.0 * math.pi * 0.8)
        assert qz_density(params, z) == pytest.approx(gauss, rel=1e-14)
    # and the bound at beta = 0 is the centred Gaussian peak value
    assert qz_bound(2.0, 1.0, 1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("beta,t", [(0.3, 0.5), (1.0, 1.0), (4.0, 0.2), (0.7, 3.0)])
def test_density_normalizes_to_one(beta, t):
    params = QZParams(beta=beta, y=-0.2, x=0.3, t=t)
    f = lambda z: qz_density(params, z)
    # split at the attractor: the density is smooth except for a kink at z = y
    left = integrate.quad(f, -np.inf, params.y, epsabs=1e-10)[0]
    right = integrate.quad(f, params.y, np.inf, epsabs=1e-10)[0]
    assert left + right == pytest.approx(1.0, abs=1e-6)


def test_closed_form_matches_quadrature_oracle():
    for beta in (0.0, 0.5, 1.0, 2.0, 4.0):
        for t in (0.05, 0.2, 1.0, 3.0):
            for x, y in ((0.0, 1.2), (0.5, 0.5), (-2.0, 0.3), (1.0, 0.0)):
                params = QZParams(beta=beta, y=y, x=x, t=t)
                zs = np.concatenate([np.linspace(-4.5, 4.5, 55), [x, y]])
                oracle = np.array([qz_density_oracle(params, float(z)) for z in zs])
                assert np.max(np.abs(qz_density(params, zs) - oracle)) <= 1e-12
                # at the attractor the Gaussian difference vanishes exactly
                assert qz_density(params, y) == qz_bound(t, x, y, beta)


@pytest.mark.parametrize("t", [0.1, 1e-4])
def test_extreme_drift_neither_overflows_nor_loses_mass(t):
    params = QZParams(beta=50.0, y=0.0, x=-30.0, t=t)
    # the mass sits within a few sqrt(t) of x + beta t, well short of y
    bulk = params.x + params.beta * t + np.linspace(-12.0, 12.0, 4001) * math.sqrt(t)
    sweep = np.linspace(-40.0, 10.0, 501)       # through x and the attractor
    with np.errstate(over="raise", invalid="raise"):
        dens = qz_density(params, bulk)
        assert np.all(qz_density(params, sweep) >= 0.0)
    assert np.all(dens >= 0.0)
    assert np.sum(dens) * (bulk[1] - bulk[0]) == pytest.approx(1.0, abs=1e-9)


def test_bound_is_the_attractor_evaluator():
    params = QZParams(beta=0.8, y=1.1, x=-0.4, t=0.7)
    assert qz_bound(0.7, -0.4, 1.1, 0.8) == qz_density(params, params.y)


def test_bound_monotone_in_drift_magnitude():
    vals = [qz_bound(1.0, 0.0, 1.5, b) for b in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(math.exp(-1.5 ** 2 / 2.0) / math.sqrt(2.0 * math.pi))


def test_density_majorized_by_universal_bound():
    params = QZParams(beta=0.9, y=0.4, x=-0.1, t=0.6)
    for z in np.linspace(-2.5, 2.5, 41):
        d = qz_density(params, float(z))
        assert d <= qz_bound(0.6, -0.1, float(z), 0.9) + 1e-9


def test_grid_evaluator_matches_scalar():
    params = QZParams(beta=1.2, y=0.0, x=0.5, t=0.9)
    zs = np.linspace(-1.0, 1.0, 7)
    grid_vals = qz_density(params, zs)
    assert grid_vals.shape == (7,)
    for z, v in zip(zs, grid_vals):
        assert v == qz_density(params, float(z))


def test_monte_carlo_agrees_with_density():
    # Euler paths of the sign-drift diffusion vs the closed-form density
    beta, y, t = 0.6, 0.4, 1.0
    mesh = TimeMesh(t, 250)
    ens = simulate_bounded_drift(lambda s, dt, x: dt * (beta * np.sign(y - x)),
                                 lambda u: np.zeros_like(u), mesh, N=30000,
                                 seed=101, drift_bound=beta, store_rows=[250])
    final = ens.positions[1]
    edges = np.linspace(np.quantile(final, 0.001), np.quantile(final, 0.999), 31)
    counts, _ = np.histogram(final, bins=edges)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    hist = counts / (final.size * width)
    dens = qz_density(QZParams(beta=beta, y=y, x=0.0, t=t), centers)
    l1 = float(np.sum(np.abs(hist - dens)) * width)
    assert l1 < 0.1


def test_verify_bound_passes_driftless_ensemble():
    mesh = TimeMesh(0.5, 50)
    ens = simulate_bounded_drift(lambda s, dt, x: np.zeros_like(x),
                                 lambda u: np.zeros_like(u), mesh, N=20000,
                                 seed=7, drift_bound=0.0, store_rows=[25, 50])
    report = verify_bound(ens, beta=0.3, bins=40)
    assert report.passed
    assert report.violations.size == 0
    # two positive-time rows, t=0 skipped
    assert report.counts.shape == report.bound_probs.shape == report.p_values.shape == (80,)
    assert report.level == pytest.approx(1e-3 / 80)
    assert report.min_p_value() > report.level


def test_verify_bound_rejects_a_drift_stronger_than_beta():
    # the ensemble of `ksmv qz` (sign drift 0.5 toward 0 from x = 1, t = 1)
    # declared with too small a drift bound, over 20 seeds: at N = 2000 the
    # check rejects about 19 seeds in 20 (seeds 100-299: 184 of 200 with
    # Gaussian steps, 192 with two-point steps), so one seed proves little
    mesh = TimeMesh(1.0, 1000)
    wrongs = []
    for seed in range(100, 120):
        ens = simulate_bounded_drift(lambda t, dt, x: dt * (0.5 * np.sign(-x)),
                                     lambda u: np.ones_like(u), mesh, 2000, seed=seed,
                                     drift_bound=0.1, store_rows=[mesh.steps])
        assert verify_bound(dataclasses.replace(ens, drift_bound=0.5), beta=0.5, bins=50).passed
        wrongs.append(verify_bound(ens, beta=0.1, bins=50))
    rejected = [r for r in wrongs if not r.passed]
    assert len(rejected) >= 16
    # and far below the level 2e-5: a median smallest p-value of 1.1e-7
    # (Gaussian) and 3.9e-8 (two-point) on these seeds
    assert float(np.median([r.min_p_value() for r in wrongs])) < 1e-6


def test_verify_bound_tests_sparse_bins():
    # N - 5 paths at normal quantiles (the driftless law at t = 1) plus 5 paths
    # at z_far, where the bound gives the last bin expected count 0.1
    N, bins, t, beta = 1000, 20, 1.0, 0.0
    body = special.ndtri((np.arange(N - 5) + 0.5) / (N - 5))

    def expected_far(z_far):
        width = (z_far - body.min()) / bins
        return N * width * qz_bound(t, 0.0, z_far - width, beta)

    z_far = optimize.brentq(lambda z: expected_far(z) - 0.1, 4.0, 5.0)
    rows = np.vstack([np.zeros(N), np.concatenate([body, np.full(5, z_far)])])
    ens = ParticleEnsemble(TimeMesh(t, 1), rows, seed=0, drift_bound=beta)
    report = verify_bound(ens, beta, bins=bins)
    assert [(report.counts[v], round(report.bound_probs[v] * N, 9))
            for v in report.violations] == [(5, 0.1)]
    (v,) = report.violations
    q = report.bound_probs[v]     # P(Binomial(N, q) >= 5), summed term by term
    tail = sum(math.comb(N, j) * q ** j * (1.0 - q) ** (N - j) for j in range(5, 40))
    assert report.p_values[v] == pytest.approx(tail, rel=1e-9)
    assert np.all(report.p_values[:-1] > 0.1)


def test_verify_bound_p_values_equal_the_per_bin_oracle():
    # one binomial_sf call over the bins of three snapshots equals one
    # continued fraction per bin, bit for bit; with the drift declared too
    # weak, the violations are the bins below the level
    mesh = TimeMesh(1.0, 200)
    ens = simulate_bounded_drift(lambda t, dt, x: dt * (0.5 * np.sign(-x)),
                                 lambda u: np.ones_like(u), mesh, 2003, seed=11,
                                 drift_bound=0.1, store_rows=[20, 100, 200])
    for bins in (50, 60):
        report = verify_bound(ens, beta=0.1, bins=bins)
        assert report.counts.shape == (3 * bins,)
        assert report.counts.sum() == 3 * ens.n_particles
        want = binomial_sf_oracle(report.counts, ens.n_particles, report.bound_probs)
        assert np.array_equal(report.p_values, want)
        assert report.level == 1e-3 / (3 * bins)
        assert np.array_equal(report.violations, np.flatnonzero(want < report.level))
        assert report.min_p_value() == want.min()
    assert not report.passed


def test_verify_bound_usage_errors():
    mesh = TimeMesh(0.5, 5)
    rows = np.zeros((6, 100))
    undeclared = ParticleEnsemble(mesh, rows, seed=0)
    with pytest.raises(ValueError):
        verify_bound(undeclared, beta=1.0)
    too_strong = ParticleEnsemble(mesh, rows, seed=0, drift_bound=0.5)
    with pytest.raises(ValueError):
        verify_bound(too_strong, beta=0.3)
    scattered = rows.copy()
    scattered[0] = np.linspace(-1, 1, 100)
    random_start = ParticleEnsemble(mesh, scattered, seed=0, drift_bound=0.0)
    with pytest.raises(ValueError):
        verify_bound(random_start, beta=1.0)

