"""Interacting particle simulation, bounded-drift paths, KDE, history comparison."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksmv.grid import Grid1D, TimeMesh, heat_kernel
from ksmv.kernel import (KernelSpec, integrated_kernel_symbol, symbol_decay,
                         time_integrated_kernel)
from ksmv.field import InitialChemical, drift_b
from ksmv.mild import MarginalHistory, march, running_sums
from ksmv import particle
from ksmv.particle import (ParticleEnsemble, simulate_particles,
                           simulate_bounded_drift, kde_density, _CloudInCell, _deposit,
                           _euler_paths, _keyed_draws)

from ksmv_helpers import (cloud_in_cell_oracle, compare_histories, gaussian_density,
                          l1_distance, pairwise_particles, step_noise_oracle)

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
        simulate_particles(8, p0, FREE, None, mesh, seed=1,
                           particle_keys=np.arange(7))
    for bad in (np.arange(-1, 7), np.arange(8) + 0.5, np.arange(8.0)):
        with pytest.raises(ValueError, match="particle_keys"):
            simulate_particles(8, p0, FREE, None, mesh, seed=1, particle_keys=bad)


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
    for seed, phase, k in ((42, 0, 0), (42, 1, 0), (42, 1, 17), (-3, 0, 0), (-3, 1, 4)):
        gen = np.random.Generator(np.random.Philox(key=[seed, phase], counter=[0, k, 0, 0]))
        direct = gen.random(10) if phase == 0 else gen.standard_normal(10)
        assert np.array_equal(_keyed_draws(seed, phase, k, keys), direct[keys])


def test_default_keys_nest_smaller_runs_in_larger_ones():
    mesh = TimeMesh(0.5, 40)
    kw = dict(mesh=mesh, seed=29)
    small = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, N=64, **kw)
    large = simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, N=257, **kw)
    assert np.array_equal(large.positions[:, :64], small.positions)


KEY_SETS = {"arange": np.arange(6), "permuted": np.array([3, 0, 5, 1, 4, 2]),
            "sparse": np.array([9, 2, 2, 40, 0, 17])}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("M", [1, 7, 8])
@pytest.mark.parametrize("keys", list(KEY_SETS.values()), ids=list(KEY_SETS))
def test_paths_follow_the_sequential_noise_oracle_at_any_thread_count(monkeypatch, threads,
                                                                      M, keys):
    monkeypatch.setattr(particle, "_draw_threads", lambda: threads)
    mesh = TimeMesh(0.5, M)
    x0 = np.linspace(-1.0, 1.0, keys.size)
    rows, X = _euler_paths(x0, lambda k, x: np.sin(x) + k, mesh, 13, keys, None)
    x, want = x0, [x0]
    for k in range(M):
        x = (x + mesh.dt * (np.sin(x) + k)) + math.sqrt(mesh.dt) * step_noise_oracle(13, k, keys)
        want.append(x)
    assert rows == list(range(M + 1))
    assert np.array_equal(X, np.array(want))


def test_noise_ring_survives_more_threads_than_cpus_and_fast_switching(monkeypatch):
    # the main thread and the helper on one CPU where the platform can pin,
    # switching every microsecond: a buffer refilled before its step is spent
    # would break the bits
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    keys, M, dt = np.arange(3000), 60, 0.01
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        if mask:
            os.sched_setaffinity(0, {min(mask)})
        _, X = _euler_paths(np.zeros(keys.size), lambda k, x: np.cos(x), TimeMesh(M * dt, M),
                            21, keys, [M])
    finally:
        sys.setswitchinterval(interval)
        if mask:
            os.sched_setaffinity(0, mask)
    x = np.zeros(keys.size)
    for k in range(M):
        x = (x + dt * np.cos(x)) + math.sqrt(dt) * step_noise_oracle(21, k, keys)
    assert np.array_equal(X[-1], x)


def test_main_thread_draws_even_steps_and_the_helper_odd_ones(monkeypatch):
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    drawn_by, draw = {}, particle._Streams.draw

    def spy(self, phase, k, out):
        if phase == 1:
            drawn_by[k] = threading.get_ident()
        return draw(self, phase, k, out)

    monkeypatch.setattr(particle._Streams, "draw", spy)
    simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, TimeMesh(0.5, 9),
                           N=50, seed=4)
    assert sorted(drawn_by) == list(range(9))
    main = threading.get_ident()
    assert [drawn_by[k] == main for k in range(9)] == [k % 2 == 0 for k in range(9)]


def test_no_noise_thread_outlives_a_simulation(monkeypatch):
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    before = set(threading.enumerate())
    g = Grid1D(3.0 * math.pi, 64)
    simulate_particles(64, gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5),
                       InitialChemical.sine(g, amp=0.5, freq=1.0), TimeMesh(0.2, 9), seed=1)
    simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, TimeMesh(0.5, 9),
                           N=64, seed=2)
    assert set(threading.enumerate()) == before

    def failing(t, x):
        if t > 0.2:
            raise FloatingPointError("drift blew up")
        return np.zeros_like(x)

    with pytest.raises(FloatingPointError, match="blew up"):
        simulate_bounded_drift(failing, lambda u: u - 0.5, TimeMesh(0.5, 9), N=64, seed=2)
    assert set(threading.enumerate()) == before


PINNABLE = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                              reason="the platform cannot pin a thread to a CPU")


def _affinity_spy(monkeypatch):
    """Record, for each noise step, the CPU mask of the thread that draws it."""
    masks, draw = {}, particle._Streams.draw

    def spy(self, phase, k, out):
        if phase == 1:
            masks[k] = (threading.get_ident(), frozenset(os.sched_getaffinity(0)))
        return draw(self, phase, k, out)

    monkeypatch.setattr(particle._Streams, "draw", spy)
    return masks


@PINNABLE
def test_current_cpu_is_the_cpu_a_pinned_thread_runs_on():
    mask = os.sched_getaffinity(0)
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            assert particle._current_cpu() == cpu
    finally:
        os.sched_setaffinity(0, mask)


@PINNABLE
@pytest.mark.parametrize("main_at", [0, -1], ids=["first", "last"])
def test_helper_draws_on_a_cpu_other_than_the_main_threads(monkeypatch, main_at):
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(particle, "_current_cpu", lambda: cpus[main_at])
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    masks = _affinity_spy(monkeypatch)
    simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, TimeMesh(0.5, 9),
                           N=50, seed=4)
    main = threading.get_ident()
    helper = {mask for ident, mask in masks.values() if ident != main}
    # one CPU, the next after the main thread's in sorted order: never the
    # main thread's unless the process may use only that one
    assert helper == {frozenset({cpus[(main_at + 1) % len(cpus)]})}


@PINNABLE
def test_main_thread_affinity_is_never_changed(monkeypatch):
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    # who pins: a mask read alone would miss a main thread pinned by an
    # earlier test to the CPU it would be pinned to here
    pinned_by, pin = [], os.sched_setaffinity

    def spy(pid, cpus):
        pinned_by.append(threading.get_ident())
        return pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", spy)
    before = os.sched_getaffinity(0)
    simulate_bounded_drift(lambda t, x: np.sin(x), lambda u: u - 0.5, TimeMesh(0.5, 9),
                           N=64, seed=2)
    assert os.sched_getaffinity(0) == before

    def failing(t, x):
        if t > 0.2:
            raise FloatingPointError("drift blew up")
        return np.zeros_like(x)

    with pytest.raises(FloatingPointError, match="blew up"):
        simulate_bounded_drift(failing, lambda u: u - 0.5, TimeMesh(0.5, 9), N=64, seed=2)
    assert os.sched_getaffinity(0) == before
    assert len(pinned_by) == 2 and threading.get_ident() not in pinned_by


@PINNABLE
def test_a_refused_pin_leaves_the_paths_as_they_are(monkeypatch):
    monkeypatch.setattr(particle, "_draw_threads", lambda: 2)
    refused = []

    def refuse(pid, cpus):
        refused.append(cpus)
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    keys, M, dt = np.arange(500), 9, 0.05
    _, X = _euler_paths(np.zeros(keys.size), lambda k, x: np.cos(x), TimeMesh(M * dt, M),
                        17, keys, None)
    assert len(refused) == 1
    x = np.zeros(keys.size)
    for k in range(M):
        x = (x + dt * np.cos(x)) + math.sqrt(dt) * step_noise_oracle(17, k, keys)
        assert np.array_equal(X[k + 1], x)


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
    # the test-side pairwise oracle against a scalar sum over pairs and rows
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.8, 4)
    spec = KernelSpec(chi=1.0, lam=0.3)
    N = 6
    p0 = gaussian_density(g, 0.5)
    ens = pairwise_particles(N, p0, spec, None, mesh, seed=9)
    free = pairwise_particles(N, p0, FREE, None, mesh, seed=9)
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


def test_binned_drift_is_the_grid_drift_state_interpolated():
    # the binned evaluator's applied drift at step k is b(t_k) + B(t_k) on the
    # grid, B from the running sums of the deposited rows 0..k-1, linearly
    # interpolated at X_k; recovered from a free run sharing the noise
    g = Grid1D(3.0 * math.pi, 128)
    mesh = TimeMesh(0.3, 20)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    X = simulate_particles(300, p0, spec, chem, mesh, seed=21).positions
    F = simulate_particles(300, p0, FREE, None, mesh, seed=21).positions
    dt, xi = mesh.dt, g.wavenumbers
    got = (np.diff(X, axis=0) - np.diff(F, axis=0)) / dt

    deposits = np.fft.rfft([_deposit(g, row) for row in X[:-1]], axis=1)
    S = running_sums(deposits, symbol_decay(spec.lam, dt, xi))
    E1 = integrated_kernel_symbol(spec, dt, xi)
    xp = np.append(g.x, g.half_width)
    for k in range(mesh.steps):
        on_grid = drift_b(spec, chem, float(mesh.nodes[k])) + np.fft.irfft(E1 * S[k], g.n)
        folded = np.mod(X[k] + g.half_width, 2.0 * g.half_width) - g.half_width
        want = np.interp(folded, xp, np.append(on_grid, on_grid[0]))
        assert float(np.max(np.abs(got[k] - want))) < 1e-10, k


def test_binned_close_to_pairwise():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.3, 30)
    chem = InitialChemical.gaussian_bump(g, amp=0.5, width=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    pw = pairwise_particles(256, p0, spec, chem, mesh, seed=13)
    bn = simulate_particles(256, p0, spec, chem, mesh, seed=13)
    assert float(np.max(np.abs(pw.positions - bn.positions))) < 5e-3


# the pairwise oracle's drift keeps the past rows it is handed, the binned
# one reuses its buffers: neither may see the stored rows depend on store_rows
@pytest.mark.parametrize("simulate", [pairwise_particles, simulate_particles],
                         ids=["pairwise", "binned"])
def test_stored_final_row_matches_full_run(simulate):
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.2, 12)
    chem = InitialChemical.gaussian_bump(g, amp=0.5, width=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    full = simulate(64, p0, spec, chem, mesh, seed=5)
    last = simulate(64, p0, spec, chem, mesh, seed=5, store_rows=[mesh.steps])
    assert last.positions.shape == (2, 64)
    assert np.array_equal(last.positions, full.positions[[0, mesh.steps]])
    assert np.array_equal(last.snapshot_times, mesh.nodes[[0, mesh.steps]])
    assert kde_density(last, -1).time_tag == pytest.approx(0.2)


def test_binned_working_memory_is_linear_in_n():
    # with only the final row stored, the peak is about 17 N-vectors whatever
    # M is: two rows, the stepper's position and step buffers and its ring of
    # three noise buffers, the cloud-in-cell buffers and the drift's per-step
    # temporaries
    N, M = 50000, 100
    g = Grid1D(3.0 * math.pi, 64)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    p0 = gaussian_density(g, 0.5)
    tracemalloc.start()
    try:
        simulate_particles(N, p0, KernelSpec(chi=1.0, lam=0.5), chem, TimeMesh(0.4, M),
                           seed=3, store_rows=[M])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * N


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
        ens = simulate_particles(N, p0, spec, chem, mesh, seed=99)
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
    # no (M, N) noise: the peak is about 11 N-vectors whatever M is: the two
    # stored rows, the start, the position and step buffers, the ring of three
    # noise buffers and the drift's per-step temporaries
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


def test_cloud_in_cell_buffers_match_direct_formulas():
    # the reused-buffer interpolation and deposit against the plain expressions
    g = Grid1D(5.0, 64)
    rng = np.random.default_rng(1)
    pos = rng.uniform(-20, 20, size=300)   # folds periodically
    values = rng.normal(size=g.n)
    idx, idx1, w0, w1 = cloud_in_cell_oracle(g, pos)
    cic = _CloudInCell(g, pos.size)
    cic.locate(pos)
    interp = cic.interp(values, np.empty(pos.size))
    assert np.array_equal(interp, values[idx] * w0 + values[idx1] * w1)
    direct = (np.bincount(idx, weights=w0, minlength=g.n)
              + np.bincount(idx1, weights=w1, minlength=g.n)) / (pos.size * g.h)
    assert np.array_equal(cic.deposit(), direct)


# on Grid1D(0.9, 100), 2 L / h rounds to just below n: an offset of exactly
# 2 L left unfolded would land in cell n - 1, not cell 0
_CIC_GRIDS = [Grid1D(3.0 * math.pi, 256), Grid1D(5.0, 64), Grid1D(1.0, 24), Grid1D(0.9, 100)]


def _box_edges(hw):
    return [v for edge in (-hw, hw)
            for v in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf))]


@settings(max_examples=200, deadline=None)
@given(grid=st.sampled_from(_CIC_GRIDS), data=st.data())
def test_locate_matches_the_fold_and_remainder_oracle(grid, data):
    # only positions outside the box are folded, and floor(rel) = n is reset
    # to 0: every bit of the cells and weights stays the oracle's
    hw = grid.half_width
    position = st.one_of(st.sampled_from(_box_edges(hw)), st.floats(-hw, hw),
                         st.floats(-1e12, 1e12))
    pos = np.array(data.draw(st.lists(position, min_size=1, max_size=40)), dtype=float)
    cic = _CloudInCell(grid, pos.size)
    cic.locate(pos)
    for got, want in zip((cic.idx, cic.idx1, cic.w0, cic.w1), cloud_in_cell_oracle(grid, pos)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    a = MarginalHistory(g, mesh, rows, {})
    table = compare_histories(a, a)
    assert table.max_l1 == 0.0 and table.max_l2 == 0.0 and table.max_linf == 0.0
    shifted = MarginalHistory(g, mesh, np.roll(rows, 1, axis=1), {})
    table2 = compare_histories(a, shifted)
    want = float(np.sum(np.abs(rows[0] - np.roll(rows[0], 1))) * g.h)
    assert table2.max_l1 == pytest.approx(want, rel=1e-12)
    assert len(table2.lines()) == 1


def test_compare_histories_rejects_mismatch():
    g = Grid1D(5.0, 64)
    a = MarginalHistory(g, TimeMesh(0.5, 3), np.zeros((4, 64)), {})
    b = MarginalHistory(g, TimeMesh(0.5, 4), np.zeros((5, 64)), {})
    with pytest.raises(ValueError):
        compare_histories(a, b)
