"""Interacting particle simulation, bounded-drift paths, KDE, history comparison."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksmv.grid import Grid1D, TimeMesh, heat_kernel
from ksmv.kernel import KernelSpec, integrated_kernel_symbol, symbol_decay
from ksmv.field import InitialChemical, drift_b
from ksmv.mild import MarginalHistory, SchemeInstabilityError, march
from ksmv import particle
from ksmv.particle import (ParticleEnsemble, simulate_particles,
                           simulate_bounded_drift, kde_density, _CloudInCell, _deposit,
                           _euler_paths)

from ksmv_helpers import (cloud_in_cell_oracle, cloud_in_cell_two_index_oracle,
                          compare_histories, gaussian_density,
                          l1_distance, marginal_variance, pairwise_particles,
                          running_sums, step_noise_oracle, time_integrated_kernel,
                          two_point_increments_oracle)

FREE = KernelSpec(chi=0.0)   # interaction off: independent Brownian paths


def _sine(t, dt, x):
    """The Euler displacement of the bounded drift b(t, x) = sin x."""
    return dt * np.sin(x)


def narrow_p0(grid):
    return gaussian_density(grid, 1e-4)


# --- construction and preconditions ----------------------------------------


def test_rejects_small_ensembles_and_bad_args():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.1, 5)
    p0 = narrow_p0(g)
    with pytest.raises(ValueError):
        simulate_particles(1, p0, FREE, None, mesh, seed=1)


@pytest.mark.parametrize("name, value", [("N", 0), ("N", -3), ("drift_bound", math.nan),
                                         ("drift_bound", math.inf), ("drift_bound", -0.5)])
def test_bounded_drift_names_a_bad_n_or_drift_bound(name, value):
    # a NaN bound once passed verify_bound's guard, since nan > beta is False,
    # and N = 0 returned an empty ensemble
    kw = {"mesh": TimeMesh(0.5, 4), "N": 10, "seed": 1, "drift_bound": 0.5, name: value}
    with pytest.raises(ValueError, match=name):
        simulate_bounded_drift(lambda t, dt, x: np.zeros_like(x), lambda u: u, **kw)


def test_x0_property_detects_deterministic_start():
    mesh = TimeMesh(0.1, 2)
    rows = np.vstack([np.full(5, 1.5), np.zeros(5), np.zeros(5)])
    ens = ParticleEnsemble(mesh, rows, seed=0)
    assert ens.x0 == 1.5
    rows2 = rows.copy()
    rows2[0, 3] = 0.0
    assert ParticleEnsemble(mesh, rows2, seed=0).x0 is None


def test_ensemble_needs_one_row_per_snapshot_time():
    # four rows on a one-step mesh once passed: verify_bound zipped the two
    # node times with the rows and skipped rows 2-3, and kde_density tagged
    # row 3 with t = 0
    with pytest.raises(ValueError, match="4 rows for 2 snapshot times"):
        ParticleEnsemble(TimeMesh(1.0, 1), np.zeros((4, 10)), seed=0)
    with pytest.raises(ValueError, match="2 rows for 3 snapshot times"):
        ParticleEnsemble(TimeMesh(1.0, 4), np.zeros((2, 10)), seed=0,
                         meta={"row_times": np.array([0.0, 0.5, 1.0])})
    kept = ParticleEnsemble(TimeMesh(1.0, 4), np.zeros((2, 10)), seed=0,
                            grid=Grid1D(5.0, 64), meta={"row_times": np.array([0.0, 1.0])})
    assert kde_density(kept, 1, bandwidth=0.5).time_tag == 1.0


# --- Brownian baseline ------------------------------------------------------


def test_brownian_marginal_variance():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.25, 50)
    N = 2000
    ens = simulate_particles(N, narrow_p0(g), FREE, None, mesh, seed=42)
    var = marginal_variance(ens, mesh.steps)
    assert var == pytest.approx(0.25, abs=0.25 * 4.0 / math.sqrt(N))


def test_inverse_cdf_initial_sampling_moments():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.01, 1)
    N = 4000
    ens = simulate_particles(N, gaussian_density(g, 1.0), FREE, None, mesh, seed=3)
    x0 = ens.positions[0]
    assert abs(float(np.mean(x0))) < 4.0 / math.sqrt(N)
    assert float(np.std(x0)) == pytest.approx(1.0, abs=4.0 / math.sqrt(N))


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


def test_step_stream_is_philox_keyed_by_seed_and_phase_countered_by_step():
    # phase 0: the start's uniforms; phase 1 at step 0: standard normals; at
    # step k >= 1: one raw bit per particle, bit 0 of word 0 first
    for seed in (42, -3):
        start = np.random.Generator(np.random.Philox(key=[seed, 0], counter=[0, 0, 0, 0]))
        first = np.random.Generator(np.random.Philox(key=[seed, 1], counter=[0, 0, 0, 0]))
        uniforms, normals = start.random(10), first.standard_normal(10)
        for N in (1, 5, 10):
            assert np.array_equal(particle._Streams(seed).uniforms(N), uniforms[:N])
            out = particle._Streams(seed).increments(0, 1.0, np.empty(N))
            assert np.array_equal(out, normals[:N])
        for k in (1, 4, 17):
            word = int(np.random.Philox(key=[seed, 1], counter=[0, k, 0, 0]).random_raw())
            want = [1.0 if word >> i & 1 else -1.0 for i in range(64)]
            for N in (1, 5, 64):
                out = particle._Streams(seed).increments(k, 1.0, np.empty(N))
                assert np.array_equal(out, want[:N])


def test_one_streams_object_starts_every_draw_at_its_stream():
    # one generator, reset between draws out of step order, against a new
    # Philox(key=[seed, phase], counter=[0, k, 0, 0]) for each draw
    seed, N = 31, 100
    streams = particle._Streams(seed)

    def fresh(phase, k):
        return np.random.Philox(key=[seed, phase], counter=[0, k, 0, 0])

    uniforms = np.random.Generator(fresh(0, 0)).random(N)
    assert streams.uniforms(N).tobytes() == uniforms.tobytes()
    for k in (0, 5, 1, 17, 4):
        got = streams.increments(k, 1.0, np.empty(N))
        if k == 0:
            want = np.random.Generator(fresh(1, 0)).standard_normal(N)
        else:
            raw = fresh(1, k).random_raw(-(-N // 64)).astype("<u8").view(np.uint8)
            want = np.where(np.unpackbits(raw, count=N, bitorder="little") == 1, 1.0, -1.0)
        assert got.tobytes() == want.tobytes(), k
    assert streams.uniforms(N).tobytes() == uniforms.tobytes()


@pytest.mark.parametrize("dt", [0.5 / 7, 1e-3, 0.3], ids=["0.5/7", "1e-3", "0.3"])
@pytest.mark.parametrize("N", [1, 63, 64, 65, 257])
def test_steps_after_the_first_are_exactly_plus_or_minus_sqrt_dt(dt, N):
    sqdt, streams = math.sqrt(dt), particle._Streams(11)
    first = streams.increments(0, sqdt, np.empty(N)).copy()
    assert not np.isin(first, [-sqdt, sqdt]).any()
    for k in (1, 2, 999):
        out = streams.increments(k, sqdt, np.empty(N))
        assert np.isin(out, [-sqdt, sqdt]).all(), k
    # the same with the drift: from x = 0 and a zero drift, two steps leave
    # the Gaussian first increment plus +-sqrt(dt)
    _, X = _euler_paths(np.zeros(N), lambda k, x: np.zeros_like(x), TimeMesh(2 * dt, 2), 11,
                        None)
    assert np.array_equal(X[1], first)
    assert np.array_equal(X[2], first + streams.increments(1, sqdt, np.empty(N)))


def test_two_point_table_matches_the_unpacked_bits():
    # the byte table against the bits unpacked one by one, bit for bit: N
    # below, at and past the 8 bits of a byte and the 64 of a word, and one
    # stream whose step size changes from call to call
    for N in (1, 7, 8, 9, 63, 64, 65, 2003, 20000):
        streams = particle._Streams(23)
        for dt in (0.5 / 7, 1e-3, 0.3, 0.5 / 7):
            sqdt = math.sqrt(dt)
            for k in (1, 2, 999):
                got = streams.increments(k, sqdt, np.empty(N))
                assert got.tobytes() == two_point_increments_oracle(23, k, N, sqdt).tobytes(), \
                    (N, dt, k)


def test_two_point_increments_have_the_gaussian_moments():
    # +-sqrt(dt) has the variance dt of N(0, dt) exactly; its odd moments are
    # its mean times a power of dt, 0 to Monte Carlo error; and every step
    # k >= 1 reads fresh bits
    N, sqdt, streams = 100000, math.sqrt(0.01), particle._Streams(3)
    steps = np.array([streams.increments(k, sqdt, np.empty(N)) for k in range(1, 6)])
    assert np.all(np.abs(steps.mean(axis=1)) < 4.0 * sqdt / math.sqrt(N))
    assert np.array_equal(steps * steps, np.full_like(steps, sqdt * sqdt))
    assert len({row.tobytes() for row in steps}) == len(steps)


def test_default_keys_nest_smaller_runs_in_larger_ones():
    # 257 is not a multiple of the 64 bits a raw word holds
    mesh = TimeMesh(0.5, 40)
    kw = dict(mesh=mesh, seed=29)
    large = simulate_bounded_drift(_sine, lambda u: u - 0.5, N=257, **kw)
    for n in (1, 64, 65):
        small = simulate_bounded_drift(_sine, lambda u: u - 0.5, N=n, **kw)
        assert np.array_equal(large.positions[:, :n], small.positions), n


# starts of N particles: particle i takes the i-th draw of each step's stream
# wherever it starts, so an ordered start, the same points out of order and
# a few points shared by many particles all follow the oracle
STARTS = {"arange": np.linspace(-1.0, 1.0, 6),
          "permuted": np.linspace(-1.0, 1.0, 6)[[3, 0, 5, 1, 4, 2]],
          "sparse": np.repeat([0.5, -2.0, 0.0], [20, 1, 20])}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("M", [1, 7, 8])
@pytest.mark.parametrize("x0", list(STARTS.values()), ids=list(STARTS))
def test_paths_follow_the_sequential_noise_oracle_at_any_thread_count(threads, M, x0):
    # `threads` callers step the same paths at once, each with its own seed:
    # the stepper shares no state between simulations, so each follows its
    # own seed's oracle whatever runs beside it
    mesh = TimeMesh(0.5, M)
    seeds = [13 + t for t in range(threads)]
    got, errors = {}, []
    barrier = threading.Barrier(threads)

    def run(seed):
        try:
            barrier.wait(timeout=30)
            got[seed] = _euler_paths(x0, lambda k, x: mesh.dt * (np.sin(x) + k), mesh, seed,
                                     None)
        except BaseException as exc:   # handed to the test thread below
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(s,)) for s in seeds]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    for seed in seeds:
        rows, X = got[seed]
        x, want = x0, [x0]
        for k in range(M):
            x = ((x + mesh.dt * (np.sin(x) + k))
                 + math.sqrt(mesh.dt) * step_noise_oracle(seed, k, x0.size))
            want.append(x)
        assert rows == list(range(M + 1))
        assert np.array_equal(X, np.array(want)), seed


def test_no_noise_thread_outlives_a_simulation():
    # the step loop runs on the calling thread: no thread is started, during a
    # simulation or after one, also when its drift raises
    before = set(threading.enumerate())

    def alone(x):
        assert set(threading.enumerate()) == before
        return np.sin(x)

    g = Grid1D(3.0 * math.pi, 64)
    simulate_particles(64, gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5),
                       InitialChemical.sine(g, amp=0.5, freq=1.0), TimeMesh(0.2, 9), seed=1)
    simulate_bounded_drift(lambda t, dt, x: dt * alone(x), lambda u: u - 0.5, TimeMesh(0.5, 9),
                           N=64, seed=2)
    assert set(threading.enumerate()) == before

    def failing(t, dt, x):
        if t > 0.2:
            raise FloatingPointError("drift blew up")
        return dt * alone(x)

    with pytest.raises(FloatingPointError, match="blew up"):
        simulate_bounded_drift(failing, lambda u: u - 0.5, TimeMesh(0.5, 9), N=64, seed=2)
    assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no CPU affinity")
def test_main_thread_affinity_is_never_changed(monkeypatch):
    # a simulation pins nothing, also when its drift raises
    pinned, pin = [], os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: pinned.append(cpus) or pin(pid, cpus))
    before = os.sched_getaffinity(0)
    simulate_bounded_drift(_sine, lambda u: u - 0.5, TimeMesh(0.5, 9), N=64, seed=2)

    def failing(t, dt, x):
        if t > 0.2:
            raise FloatingPointError("drift blew up")
        return np.zeros_like(x)

    with pytest.raises(FloatingPointError, match="blew up"):
        simulate_bounded_drift(failing, lambda u: u - 0.5, TimeMesh(0.5, 9), N=64, seed=2)
    assert os.sched_getaffinity(0) == before
    assert pinned == []


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
    # with only the final row stored, the peak is about 13 N-vectors whatever
    # M is: two rows, the stepper's position and step buffers, a step's noise
    # bits, the cloud-in-cell buffers and the drift's per-step temporaries
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
    ens = simulate_bounded_drift(lambda t, dt, x: np.zeros_like(x),
                                 lambda u: np.zeros_like(u), mesh, N=5000, seed=17,
                                 drift_bound=0.0, store_rows=[50, 100])
    assert ens.positions.shape == (3, 5000)      # row 0 forced in
    assert np.allclose(ens.meta["row_times"], [0.0, 0.5, 1.0])
    assert ens.x0 == 0.0
    assert ens.drift_bound == 0.0
    assert marginal_variance(ens, 2) == pytest.approx(1.0, abs=4.0 / math.sqrt(5000))


def test_bounded_drift_block_size_invariance():
    mesh = TimeMesh(0.5, 40)
    kw = dict(mesh=mesh, N=257, seed=23)
    with pytest.warns(DeprecationWarning, match="block"):
        a = simulate_bounded_drift(_sine, lambda u: u - 0.5, block=64, **kw)
    with pytest.warns(DeprecationWarning, match="block"):
        b = simulate_bounded_drift(_sine, lambda u: u - 0.5, block=100000, **kw)
    assert np.array_equal(a.positions, b.positions)


def test_bounded_drift_rejects_rows_past_horizon():
    mesh = TimeMesh(0.5, 10)
    for rows in ([11], [-1, 5]):
        with pytest.raises(ValueError, match="store_rows"):
            simulate_bounded_drift(lambda t, dt, x: np.zeros_like(x), lambda u: u,
                                   mesh, N=10, seed=1, store_rows=rows)


def test_bounded_drift_working_memory_is_linear_in_n():
    # no (M, N) noise: the peak is about 7 N-vectors whatever M is: the two
    # stored rows, the start, the position and step buffers, a step's noise
    # bits and the drift's per-step temporaries
    N, M = 200000, 200
    tracemalloc.start()
    try:
        simulate_bounded_drift(lambda t, dt, x: dt * (0.5 * np.sign(-x)),
                               lambda u: np.ones_like(u), TimeMesh(1.0, M), N=N, seed=3,
                               store_rows=[M])
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
    # a non-finite bandwidth once gave an all-NaN density and a warning
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_density(ens2, 0, bandwidth=bad)


# on Grid1D(0.9, 100), 2 L / h rounds to just below n: an offset of exactly
# 2 L left unfolded would land in cell n - 1, not cell 0
_CIC_GRIDS = [Grid1D(3.0 * math.pi, 256), Grid1D(5.0, 64), Grid1D(1.0, 24), Grid1D(0.9, 100)]


def _box_edges(hw):
    return [v for edge in (-hw, hw)
            for v in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf))]


def test_cloud_in_cell_buffers_match_direct_formulas():
    # the reused-buffer interpolation and deposit, which take the right
    # neighbour from rolled values and bins, against a stored second index,
    # bit for bit: the last cell's neighbour wraps to cell 0, and -L, +L and
    # one ulp below +L sit at the wrap
    rng = np.random.default_rng(1)
    for grid in _CIC_GRIDS:
        hw = grid.half_width
        pos = np.concatenate([_box_edges(hw), rng.uniform(-hw, hw, 200),
                              rng.uniform(-5 * hw, 5 * hw, 200)])
        values = rng.normal(size=grid.n)
        interp, deposit = cloud_in_cell_two_index_oracle(grid, pos, values)
        cic = _CloudInCell(grid, pos.size)
        cic.locate(pos)
        assert cic.interp(values, np.empty(pos.size)).tobytes() == interp.tobytes()
        assert cic.deposit().tobytes() == deposit.tobytes()


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
    idx, _, w0, w1 = cloud_in_cell_oracle(grid, pos)
    for got, want in zip((cic.idx, cic.w0, cic.w1), (idx, w0, w1)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_positions_raise_a_named_error(bad):
    # locate names a non-finite position before it casts an index from it;
    # the simulation names the node the position sits at
    g = Grid1D(5.0, 64)
    pos = np.linspace(-4.0, 4.0, 50)
    for at in (0, 17, 49):
        x = pos.copy()
        x[at] = bad
        with pytest.raises(ValueError, match="non-finite particle positions"):
            _CloudInCell(g, x.size).locate(x)
        with pytest.raises(ValueError, match="non-finite particle positions"):
            _deposit(g, x)
    # a chemical slope of 1e306 and dt = 500: the first step overflows, and
    # no floating-point warning comes before the named error
    chem = InitialChemical.from_samples(g, np.zeros(g.n), c0_prime=np.full(g.n, 1e306))
    args = (50, gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem)
    with pytest.raises(SchemeInstabilityError) as err:
        simulate_particles(*args, TimeMesh(1000.0, 2), seed=1)
    assert err.value.step == 1
    # at M = 1 the overflow is at the last node, which no step locates
    with pytest.raises(SchemeInstabilityError) as err:
        simulate_particles(*args, TimeMesh(1e10, 1), seed=1)
    assert err.value.step == 1


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
