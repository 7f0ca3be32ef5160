"""Interacting particle simulation, bounded-drift paths, KDE, history comparison."""

import math
import tracemalloc

import numpy as np
import pytest

from ksmv.grid import Grid1D, TimeMesh, heat_kernel
from ksmv.kernel import KernelSpec, time_integrated_kernel
from ksmv.field import InitialChemical
from ksmv.mild import MarginalHistory, march
from ksmv.particle import (ParticleEnsemble, simulate_particles,
                           simulate_bounded_drift, kde_density,
                           compare_histories, _deposit, _keyed_draws)

from ksmv_helpers import gaussian_density, l1_distance

FREE = KernelSpec(chi=0.0)   # interaction off: independent Brownian paths


def narrow_p0(grid):
    return gaussian_density(grid, 1e-4)


# --- construction and preconditions ----------------------------------------


def test_rejects_small_ensembles_and_bad_args():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.1, 5)
    p0 = narrow_p0(g)
    with pytest.raises(ValueError):
        simulate_particles(1, p0, FREE, None, mesh, seed=1)
    with pytest.raises(ValueError):
        simulate_particles(8, p0, FREE, None, mesh, seed=1, interaction="tree")
    with pytest.raises(ValueError):
        simulate_particles(8, p0, FREE, None, mesh, seed=1,
                           particle_keys=np.arange(7))
    for bad in (np.arange(-1, 7), np.arange(8) + 0.5, np.arange(8.0)):
        with pytest.raises(ValueError, match="particle_keys"):
            simulate_particles(8, p0, FREE, None, mesh, seed=1, particle_keys=bad)
    custom = KernelSpec(chi=1.0, kind="custom", eval_fn=lambda t, x: np.ones_like(x))
    for interaction in ("pairwise", "binned"):
        with pytest.raises(ValueError, match="custom kernels"):
            simulate_particles(8, p0, custom, None, mesh, seed=1, interaction=interaction)


def test_x0_property_detects_deterministic_start():
    mesh = TimeMesh(0.1, 2)
    rows = np.vstack([np.full(5, 1.5), np.zeros(5), np.zeros(5)])
    ens = ParticleEnsemble(mesh, rows, seed=0)
    assert ens.x0 == 1.5
    rows2 = rows.copy()
    rows2[0, 3] = 0.0
    assert ParticleEnsemble(mesh, rows2, seed=0).x0 is None


# --- Brownian baseline ------------------------------------------------------


def test_brownian_marginal_variance():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.25, 50)
    N = 2000
    ens = simulate_particles(N, narrow_p0(g), FREE, None, mesh, seed=42)
    var = ens.marginal_variance(mesh.steps)
    assert var == pytest.approx(0.25, abs=0.25 * 4.0 / math.sqrt(N))


def test_inverse_cdf_initial_sampling_moments():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.01, 1)
    N = 4000
    ens = simulate_particles(N, gaussian_density(g, 1.0), FREE, None, mesh, seed=3)
    x0 = ens.positions[0]
    assert abs(float(np.mean(x0))) < 4.0 / math.sqrt(N)
    assert float(np.std(x0)) == pytest.approx(1.0, abs=4.0 / math.sqrt(N))
    assert ens.meta["init_sampling"] == "inverse-cdf"


# --- determinism and exchangeability ----------------------------------------


def test_bitwise_determinism():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.2, 20)
    chem = InitialChemical.gaussian_bump(g, amp=0.5, width=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    a = simulate_particles(64, gaussian_density(g, 0.5), spec, chem, mesh, seed=7)
    b = simulate_particles(64, gaussian_density(g, 0.5), spec, chem, mesh, seed=7)
    assert np.array_equal(a.positions, b.positions)
    c = simulate_particles(64, gaussian_density(g, 0.5), spec, chem, mesh, seed=8)
    assert not np.array_equal(a.positions, c.positions)


def test_exchangeability_under_key_permutation():
    # independent paths: stream reassignment must permute trajectories bitwise
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.2, 15)
    p0 = gaussian_density(g, 0.5)
    perm = np.array([3, 0, 2, 1, 5, 4, 7, 6])
    base = simulate_particles(8, p0, FREE, None, mesh, seed=11)
    permuted = simulate_particles(8, p0, FREE, None, mesh, seed=11,
                                  particle_keys=perm)
    assert np.array_equal(permuted.positions, base.positions[:, perm])


def test_step_stream_is_philox_keyed_by_seed_and_phase_countered_by_step():
    keys = np.array([5, 0, 3, 3, 9])
    for phase, k in ((0, 0), (1, 0), (1, 17)):
        gen = np.random.Generator(np.random.Philox(key=[42, phase], counter=[0, k, 0, 0]))
        direct = gen.random(10) if phase == 0 else gen.standard_normal(10)
        assert np.array_equal(_keyed_draws(42, phase, k, keys), direct[keys])


def test_default_keys_nest_smaller_runs_in_larger_ones():
    mesh = TimeMesh(0.5, 40)
    kw = dict(mesh=mesh, seed=29)
    small = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, N=64, **kw)
    large = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, N=257, **kw)
    assert np.array_equal(large.positions[:, :64], small.positions)


def test_first_step_has_no_memory():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.3, 3)
    p0 = gaussian_density(g, 0.5)
    weak = simulate_particles(64, p0, KernelSpec(chi=0.1), None, mesh, seed=5)
    strong = simulate_particles(64, p0, KernelSpec(chi=2.0), None, mesh, seed=5)
    assert np.array_equal(weak.positions[1], strong.positions[1])
    assert not np.array_equal(weak.positions[2], strong.positions[2])


# --- interaction evaluators -------------------------------------------------


def test_pairwise_memory_matches_direct_sum():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.8, 4)
    spec = KernelSpec(chi=1.0, lam=0.3)
    N = 6
    p0 = gaussian_density(g, 0.5)
    ens = simulate_particles(N, p0, spec, None, mesh, seed=9)
    free = simulate_particles(N, p0, FREE, None, mesh, seed=9)
    X = ens.positions
    dt = mesh.dt
    k = 3
    # the step-k drift the simulator applied, recovered from the shared noise
    got = ((X[k + 1] - free.positions[k + 1]) - (X[k] - free.positions[k])) / dt

    def J(t, u):
        return float(time_integrated_kernel(spec, t, np.float64(u))) if t > 0 else 0.0

    want = np.zeros(N)
    for i in range(N):
        for j in range(N):
            # age-m subinterval: exact kernel time integral against the frozen row k-m
            for m in range(1, k + 1):
                u = X[k, i] - X[k - m, j]
                want[i] += J(m * dt, u) - J((m - 1) * dt, u)
    want /= N
    assert float(np.max(np.abs(got - want))) < 1e-10


def test_binned_close_to_pairwise():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.3, 30)
    chem = InitialChemical.gaussian_bump(g, amp=0.5, width=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    pw = simulate_particles(256, p0, spec, chem, mesh, seed=13, interaction="pairwise")
    bn = simulate_particles(256, p0, spec, chem, mesh, seed=13, interaction="binned")
    assert float(np.max(np.abs(pw.positions - bn.positions))) < 5e-3
    assert pw.meta["pair_evals_per_s"] > 0
    assert bn.meta["interaction"] == "binned"


# --- mean-field consistency -------------------------------------------------


def test_kde_error_decreases_with_ensemble_size():
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.5, 60)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    ref = march(p0, spec, chem, g, mesh)
    errs = []
    for N in (200, 2000):
        ens = simulate_particles(N, p0, spec, chem, mesh, seed=99, interaction="binned")
        est = kde_density(ens, mesh.steps)
        errs.append(l1_distance(g, est.values, ref.densities[-1]))
    assert errs[1] <= errs[0]


# --- bounded-drift simulator ------------------------------------------------


def test_bounded_drift_brownian_variance_and_rows():
    mesh = TimeMesh(1.0, 100)
    ens = simulate_bounded_drift(lambda t, x: np.zeros_like(x),
                                 lambda u: np.zeros_like(u), mesh, N=5000, seed=17,
                                 drift_bound=0.0, store_rows=[50, 100])
    assert ens.positions.shape == (3, 5000)      # row 0 forced in
    assert np.allclose(ens.meta["row_times"], [0.0, 0.5, 1.0])
    assert ens.x0 == 0.0
    assert ens.drift_bound == 0.0
    assert ens.marginal_variance(2) == pytest.approx(1.0, abs=4.0 / math.sqrt(5000))


def test_bounded_drift_block_size_invariance():
    mesh = TimeMesh(0.5, 40)
    kw = dict(mesh=mesh, N=257, seed=23)
    with pytest.warns(DeprecationWarning, match="block"):
        a = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, block=64, **kw)
    with pytest.warns(DeprecationWarning, match="block"):
        b = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, block=100000, **kw)
    assert np.array_equal(a.positions, b.positions)


def test_bounded_drift_rejects_rows_past_horizon():
    mesh = TimeMesh(0.5, 10)
    for rows in ([11], [-1, 5]):
        with pytest.raises(ValueError, match="store_rows"):
            simulate_bounded_drift(lambda t, x: np.zeros_like(x), lambda u: u,
                                   mesh, N=10, seed=1, store_rows=rows)


def test_bounded_drift_working_memory_is_linear_in_n():
    # no (M, N) noise: the peak is the two stored rows plus a few N-vectors
    # of per-step temporaries, whatever M is
    N, M = 200000, 200
    tracemalloc.start()
    try:
        simulate_bounded_drift(lambda t, x: 0.5 * np.sign(-x), lambda u: np.ones_like(u),
                               TimeMesh(1.0, M), N=N, seed=3, store_rows=[M])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * N


# --- KDE --------------------------------------------------------------------


def test_kde_unit_mass_and_silverman_default():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.5, 10)
    ens = simulate_particles(500, gaussian_density(g, 1.0), FREE, None, mesh, seed=31)
    est = kde_density(ens, mesh.steps)
    assert est.mass() == pytest.approx(1.0, abs=1e-6)
    assert est.time_tag == pytest.approx(0.5)


def test_kde_degenerate_ensemble_warns():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.1, 1)
    rows = np.zeros((2, 50))
    ens = ParticleEnsemble(mesh, rows, seed=0, grid=g)
    with pytest.warns(RuntimeWarning):
        est = kde_density(ens, 0)
    # all mass at the origin smoothed by one cell width
    assert abs(g.x[int(np.argmax(est.values))]) < g.h


def test_kde_matches_sampling_density():
    g = Grid1D(10.0, 512)
    N = 100000
    ens = simulate_particles(N, gaussian_density(g, 1.0), FREE, None,
                             TimeMesh(1e-9, 1), seed=41)
    est = kde_density(ens, 0)
    assert l1_distance(g, est.values, heat_kernel(1.0, g.x)) < 2e-2


def test_kde_needs_grid_and_positive_bandwidth():
    ens = ParticleEnsemble(TimeMesh(0.1, 1), np.zeros((2, 4)), seed=0)
    with pytest.raises(ValueError):
        kde_density(ens, 0)
    g = Grid1D(10.0, 128)
    ens2 = ParticleEnsemble(TimeMesh(0.1, 1), np.random.default_rng(0).normal(size=(2, 16)),
                            seed=0, grid=g)
    with pytest.raises(ValueError):
        kde_density(ens2, 0, bandwidth=-0.1)


def test_deposit_unit_mass():
    g = Grid1D(5.0, 64)
    rng = np.random.default_rng(0)
    pos = rng.uniform(-20, 20, size=300)   # folds periodically
    dep = _deposit(g, pos)
    assert g.integrate(dep) == pytest.approx(1.0, abs=1e-12)


# --- history comparison ------------------------------------------------------


def test_compare_histories_zero_and_shift():
    g = Grid1D(5.0, 64)
    mesh = TimeMesh(0.5, 3)
    rows = np.tile(heat_kernel(1.0, g.x), (4, 1))
    a = MarginalHistory(g, mesh, rows, np.ones(4), {})
    table = compare_histories(a, a)
    assert table.max_l1 == 0.0 and table.max_l2 == 0.0 and table.max_linf == 0.0
    shifted = MarginalHistory(g, mesh, np.roll(rows, 1, axis=1), np.ones(4), {})
    table2 = compare_histories(a, shifted)
    want = float(np.sum(np.abs(rows[0] - np.roll(rows[0], 1))) * g.h)
    assert table2.max_l1 == pytest.approx(want, rel=1e-12)
    assert len(table2.lines()) == 1


def test_compare_histories_rejects_mismatch():
    g = Grid1D(5.0, 64)
    a = MarginalHistory(g, TimeMesh(0.5, 3), np.zeros((4, 64)), np.zeros(4), {})
    b = MarginalHistory(g, TimeMesh(0.5, 4), np.zeros((5, 64)), np.zeros(5), {})
    with pytest.raises(ValueError):
        compare_histories(a, b)
