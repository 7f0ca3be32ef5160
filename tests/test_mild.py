"""Memory drift, causal march, fixed-point iteration, window restart."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ksmv import mild
from ksmv.grid import Grid1D, TimeMesh, DensityField, heat_kernel
from ksmv.kernel import (KernelSpec, kernel_l1_norm, integrated_kernel_symbol,
                         symbol_decay)
from ksmv.field import InitialChemical, drift_b
from ksmv.mild import (MarginalHistory, SchemeInstabilityError,
                       PicardDivergenceError, running_sums, memory_drift,
                       march, picard, solve_global, _sup_l1_distance)

from ksmv_helpers import (gaussian_density, l1_distance, overflowing_chemical,
                          run_mild_oracle)

G12 = Grid1D(12.0, 1024)
MESH200 = TimeMesh(1.0, 200)
# Rows frozen in time make the memory rule (left-frozen density, exact kernel
# time integral per subinterval) exact, so the frozen-history oracles below
# see only roundoff and the Gaussian tail beyond the box (about 1e-16 here); a
# one-step shift of the ages moves them by about 5e-6.
ORACLE_TOL = 1e-12
QUAD_TOL = dict(epsabs=1e-14, epsrel=1e-13)


def frozen_gaussian_history(grid, mesh, var=1.0):
    rows = np.tile(heat_kernel(var, grid.x), (mesh.steps + 1, 1))
    return MarginalHistory(grid, mesh, rows, {})


# --- history container -----------------------------------------------------


def test_history_shape_check_and_rows():
    g = Grid1D(5.0, 32)
    mesh = TimeMesh(1.0, 4)
    with pytest.raises(ValueError):
        MarginalHistory(g, mesh, np.zeros((4, 32)), {})
    rows = np.outer(np.arange(5.0), np.ones(32)) / (32 * g.h)
    hist = MarginalHistory(g, mesh, rows, {})
    assert np.allclose(hist.masses(), np.arange(5.0), rtol=0, atol=1e-15)
    assert hist.max_mass_drift() == pytest.approx(3.0)
    hist.require_rows(4)
    with pytest.raises(ValueError):
        hist.require_rows(5)


def test_history_spectra_cache():
    g = Grid1D(5.0, 32)
    p0 = gaussian_density(g, 0.5)
    hist = MarginalHistory(g, TimeMesh(1.0, 3), np.tile(p0.values, (4, 1)), {})
    s1 = hist.spectra()
    assert np.array_equal(s1[3], np.fft.rfft(p0.values))
    assert hist.spectra() is s1


def test_history_require_rows_flags_nan():
    g = Grid1D(5.0, 32)
    mesh = TimeMesh(1.0, 4)
    rows = np.zeros((5, 32))
    rows[3] = np.nan
    hist = MarginalHistory(g, mesh, rows, {})
    hist.require_rows(2)
    with pytest.raises(ValueError):
        hist.require_rows(3)


# --- memory drift -------------------------------------------------------------


def test_memory_drift_empty_integral():
    hist = frozen_gaussian_history(G12, MESH200)
    B = memory_drift(hist, KernelSpec(chi=1.0), 0)
    assert B.shape == (G12.n,)
    assert np.all(B == 0.0)


def test_memory_drift_frozen_gaussian_oracle():
    # rows all g(1,.): B(t, x) = -x int_0^t g(1+u, x) / (1+u) du
    hist = frozen_gaussian_history(G12, MESH200)
    B = memory_drift(hist, KernelSpec(chi=1.0, lam=0.0), MESH200.steps)
    idx = range(8, G12.n, 61)
    worst = 0.0
    for i in idx:
        xv = G12.x[i]
        want, _ = integrate.quad(lambda u: heat_kernel(1.0 + u, xv) / (1.0 + u), 0, 1.0,
                                 **QUAD_TOL)
        worst = max(worst, abs(B[i] - (-xv * want)))
    assert worst < ORACLE_TOL


def test_memory_drift_decay_oracle():
    hist = frozen_gaussian_history(G12, MESH200)
    lam = 0.5
    B = memory_drift(hist, KernelSpec(chi=1.0, lam=lam), MESH200.steps)
    xv = G12.x[700]
    want, _ = integrate.quad(
        lambda u: -xv * math.exp(-lam * u) * heat_kernel(1.0 + u, xv) / (1.0 + u), 0, 1.0,
        **QUAD_TOL)
    assert B[700] == pytest.approx(want, abs=ORACLE_TOL)


def test_memory_drift_odd_for_even_history():
    hist = frozen_gaussian_history(G12, MESH200, var=0.7)
    B = memory_drift(hist, KernelSpec(chi=1.0, lam=0.2), 50)
    n = G12.n
    mirrored = -B[np.mod(n - np.arange(n), n)]
    assert np.max(np.abs(B - mirrored)) < 1e-13


@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 60))
def test_memory_drift_causal_bit_for_bit(k):
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.5, 60)
    spec = KernelSpec(chi=1.0, lam=0.3)
    hist = march(gaussian_density(g, 0.5), spec, None, g, mesh)
    zeroed = hist.densities.copy()
    zeroed[k:] = 0.0
    censored = MarginalHistory(g, mesh, zeroed, {})
    a = memory_drift(hist, spec, k)
    b = memory_drift(censored, spec, k)
    assert np.array_equal(a, b)


def test_memory_drift_rejects_custom_kernels():
    # the solvers take the chemotaxis kernel or kind "none" (model.kernel =
    # none, no memory drift); a custom kernel is refused before any solver runs
    with pytest.raises(ValueError, match="keller_segel or none"):
        KernelSpec(chi=1.0, lam=0.3, kind="custom")
    hist = frozen_gaussian_history(G12, MESH200)
    none = KernelSpec(chi=1.0, lam=0.3, kind="none")
    assert np.all(memory_drift(hist, none, 100) == 0.0)
    g, mesh = Grid1D(10.0, 64), TimeMesh(0.1, 5)
    p0 = gaussian_density(g, 0.5)
    heat = march(p0, KernelSpec(chi=0.0), None, g, mesh)
    for hist_none in (march(p0, none, None, g, mesh),
                      solve_global(p0, none, None, g, 0.1, mode="picard_with_restart",
                                   steps=5)):
        assert np.array_equal(hist_none.densities, heat.densities)


def test_memory_drift_zero_coupling_shortcut():
    hist = frozen_gaussian_history(G12, MESH200)
    B = memory_drift(hist, KernelSpec(chi=0.0), 17)
    assert np.all(B == 0.0)


# --- march -----------------------------------------------------------------


def test_march_pure_heat_closed_form():
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(0.5, 50)
    p0 = gaussian_density(g, 1.0)
    hist = march(p0, KernelSpec(chi=0.0), None, g, mesh)
    for k in (10, 50):
        t = mesh.nodes[k]
        want = heat_kernel(1.0 + t, g.x)
        assert np.max(np.abs(hist.densities[k] - want)) < 1e-9
    assert hist.max_mass_drift() < 1e-12


def test_march_constant_drift_moves_mean_exactly():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.2, 40)
    chem = InitialChemical.from_samples(g, g.x.copy(), c0_prime=np.ones(g.n))
    hist = march(gaussian_density(g, 0.3), KernelSpec(chi=1.0, kind="none"), chem, g, mesh)
    mean = g.integrate(g.x * hist.densities[-1])
    assert mean == pytest.approx(0.2, abs=1e-8)


def test_march_ou_variance():
    # drift -x from a quadratic chemical; stationary variance 1/2
    g = Grid1D(8.0, 256)
    mesh = TimeMesh(1.0, 250)
    v0 = 0.25
    chem = InitialChemical.from_samples(g, -g.x ** 2 / 2.0, c0_prime=-g.x)
    no_memory = KernelSpec(chi=1.0, kind="none")
    hist = march(gaussian_density(g, v0), no_memory, chem, g, mesh)
    for k in (50, 125, 250):
        t = mesh.nodes[k]
        want = 0.5 + (v0 - 0.5) * math.exp(-2.0 * t)
        var = g.integrate(g.x ** 2 * hist.densities[k])
        assert var == pytest.approx(want, rel=1e-2)


def test_march_full_model_conserves_mass():
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.5, 100)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    hist = march(gaussian_density(g, 1.0), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh)
    # interaction and chemical both on: the step keeps the zero mode bit for
    # bit, so every row's quadrature mass is 1 up to the row sum's roundoff
    assert hist.masses().shape == (mesh.steps + 1,)
    assert np.max(np.abs(hist.masses() - 1.0)) <= 1e-14
    assert hist.meta["provenance"] == "march"
    assert 0.0 < hist.meta["tail_bound"] < 1e-6


def test_march_rejects_foreign_or_unnormalized_p0():
    g = Grid1D(10.0, 256)
    other = Grid1D(8.0, 256)
    mesh = TimeMesh(0.1, 10)
    with pytest.raises(ValueError):
        march(gaussian_density(other, 1.0), KernelSpec(chi=0.0), None, g, mesh)
    bad = DensityField(g, 2.0 * heat_kernel(1.0, g.x))
    with pytest.raises(ValueError):
        march(bad, KernelSpec(chi=0.0), None, g, mesh)


def _overflowing_march():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(1.0, 8)  # huge dt with a huge drift overflows fast
    return march(gaussian_density(g, 1.0), KernelSpec(chi=1.0, kind="none"),
                 overflowing_chemical(g), g, mesh)


def test_march_instability_error_names_step():
    with pytest.raises(SchemeInstabilityError) as err:
        _overflowing_march()
    # step 1 leaves a finite row of size ~1e198; step 2's drift product overflows
    assert err.value.step == 2
    assert str(err.value) == "non-finite state at step 2"


def test_march_detects_nonfinite_blowup():
    # the named error is the only report: no floating-point warning escapes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemeInstabilityError):
            _overflowing_march()


def test_march_scaling_table_bounded():
    g = Grid1D(8.0, 1024)
    mesh = TimeMesh(1.0, 200)
    hist = march(gaussian_density(g, 0.01), KernelSpec(chi=0.0), None, g, mesh)
    table = hist.scaling_table()
    keep = (table["t"] >= 0.01) & (table["t"] <= 1.0)
    for key in ("sqrt_t_linf", "qrt_t_l2"):
        vals = table[key][keep]
        assert np.max(vals) / np.min(vals) < 2.0


def test_march_refinement_first_order():
    g = Grid1D(3.0 * math.pi, 256)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 1.0)
    runs = {M: march(p0, spec, chem, g, TimeMesh(0.4, M)) for M in (50, 100, 200)}
    e1 = max(l1_distance(g, runs[50].densities[k], runs[100].densities[2 * k])
             for k in range(51))
    e2 = max(l1_distance(g, runs[100].densities[k], runs[200].densities[2 * k])
             for k in range(101))
    assert e1 / e2 >= 1.5


def test_march_matches_step_by_step_definition():
    # u_k = b(t_k) + B(t_k; rows 0..k-1) from their own definitions, then one
    # Duhamel step: the march's drift recursion must reproduce it
    g = Grid1D(3.0 * math.pi, 128)
    mesh = TimeMesh(0.4, 40)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 1.0)
    xi = g.wavenumbers
    heat = np.exp(-xi * xi * mesh.dt / 2.0)
    P = np.zeros((mesh.steps + 1, g.n))
    P[0] = p0.values
    for k in range(mesh.steps):
        partial = MarginalHistory(g, mesh, P.copy(), {})
        u = drift_b(spec, chem, float(mesh.nodes[k])) + memory_drift(partial, spec, k)
        nxt = heat * (np.fft.rfft(P[k]) - mesh.dt * 1j * xi * np.fft.rfft(u * P[k]))
        P[k + 1] = np.fft.irfft(nxt, g.n)
    hist = march(p0, spec, chem, g, mesh)
    assert np.max(np.sum(np.abs(hist.densities - P), axis=1)) * g.h < 1e-12


# the march's paired inverse, and Picard blocks of mild._DRIFT_BLOCK = 64
# steps: one, two and three steps, one block exactly, one step past it, and
# 130 steps (two full blocks and a step)
@pytest.mark.parametrize("M", [1, 2, 3, 64, 65, 130])
@pytest.mark.parametrize("model", ["memory_and_chemical", "chemical_only", "memory_only"])
def test_solvers_equal_the_step_by_step_loop(monkeypatch, M, model):
    g = Grid1D(3.0 * math.pi, 64)
    chem = None if model == "memory_only" else InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5, kind="none" if model == "chemical_only" else "keller_segel")
    p0 = gaussian_density(g, 1.0)

    def solve_three_ways():
        hist = march(p0, spec, chem, g, TimeMesh(0.4, M))
        fixed_point, dists = picard(p0, spec, chem, g, TimeMesh(0.1, M), k_max=4, tol=0.0)
        # T0 = 0.1015 cuts T = 0.4 into 4 windows of M steps
        rest = solve_global(p0, spec, chem, g, 0.4, mode="picard_with_restart", steps=4 * M,
                            k_max=4, tol=0.0)
        return hist, fixed_point, dists, rest

    batched = solve_three_ways()
    monkeypatch.setattr(mild, "_run_mild", run_mild_oracle)
    stepwise = solve_three_ways()
    for got, want in zip(batched[:2], stepwise[:2]):
        assert np.array_equal(got.densities, want.densities)
        assert got.meta["sup_drift"] == want.meta["sup_drift"]
    assert batched[2] == stepwise[2] and len(batched[2]) == 4
    rest, want = batched[3], stepwise[3]
    assert rest.meta["windows"] == (1 if model == "chemical_only" else 4)
    assert np.array_equal(rest.densities, want.densities)


def test_drift_b_evaluated_once_per_solve(monkeypatch):
    import ksmv.mild as mild_mod

    calls = []
    monkeypatch.setattr(mild_mod, "drift_b", lambda *a: calls.append(a) or drift_b(*a))
    g = Grid1D(3.0 * math.pi, 64)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.0)
    p0 = gaussian_density(g, 1.0)
    march(p0, spec, chem, g, TimeMesh(0.2, 20))
    assert len(calls) == 1
    rest = solve_global(p0, spec, chem, g, 2.0 * math.pi / 32.0, mode="picard_with_restart",
                        steps=20)
    assert rest.meta["windows"] == 2
    assert len(calls) == 2


# --- fixed-point iteration --------------------------------------------------


def test_picard_no_interaction_is_immediate_fixed_point():
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.3, 60)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    fixed_point, dists = picard(gaussian_density(g, 1.0), KernelSpec(chi=0.0), chem, g, mesh)
    assert len(dists) == 2
    assert dists[1] == 0.0
    assert fixed_point.meta["provenance"] == "iterate-2"


def test_picard_contracts_and_matches_march():
    spec = KernelSpec(chi=1.0, lam=0.0)
    T0 = math.pi / 32.0   # D(T0) = 0.5
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(T0, 100)
    chem = None
    p0 = gaussian_density(g, 0.5)
    fixed_point, dists = picard(p0, spec, chem, g, mesh, tol=1e-10)
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)]
    assert min(ratios) <= 0.6
    ref = march(p0, spec, chem, g, mesh)
    gap = max(l1_distance(g, fixed_point.densities[k], ref.densities[k])
              for k in range(mesh.steps + 1))
    assert gap < 1e-6


def test_picard_memory_does_not_grow_with_iterations():
    # the iteration keeps the previous iterate only: 3 and 6 iterates hold
    # one history after return and peak at the same size (keeping every
    # iterate's rows and spectra read 4.1 -> 9.1 MB held, 5.8 -> 10.7 MB peak)
    spec = KernelSpec(chi=1.0, lam=0.0)
    g = Grid1D(10.0, 512)
    mesh = TimeMesh(math.pi / 32.0, 200)   # D(T0) = 0.5
    p0 = gaussian_density(g, 0.5)
    measured = {}
    for tol in (1e-6, 1e-13):
        tracemalloc.start()
        try:
            fixed_point, dists = picard(p0, spec, None, g, mesh, tol=tol)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        measured[len(dists)] = (held, peak)
        del fixed_point
    assert sorted(measured) == [3, 6]
    rows_bytes = 8 * (mesh.steps + 1) * g.n
    (held3, peak3), (held6, peak6) = measured[3], measured[6]
    assert held6 <= held3 * 1.01 and held6 <= 1.1 * rows_bytes
    assert peak6 <= peak3 * 1.01


def test_sup_l1_distance_works_in_one_buffer():
    # picard's iterate distance at n = 1024, M = 400: the difference and its
    # absolute value share one (M+1) x n buffer (two temporaries peak at 2x)
    rng = np.random.default_rng(3)
    A, B = rng.random((401, 1024)), rng.random((401, 1024))
    h = 20.0 / 1024
    tracemalloc.start()
    try:
        got = _sup_l1_distance(A, B, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * A.nbytes
    assert got == float(np.max(np.sum(np.abs(A - B), axis=1)) * h)
    # iterate 1 compares against p_0 broadcast over the rows
    row = B[0]
    assert _sup_l1_distance(A, row, h) == float(np.max(np.sum(np.abs(A - row), axis=1)) * h)


def test_picard_takes_chem_or_start_drift_not_both():
    g = Grid1D(3.0 * math.pi, 64)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    U0 = np.fft.rfft(drift_b(KernelSpec(chi=0.0), chem, 0.0))
    with pytest.raises(ValueError, match="not both"):
        picard(gaussian_density(g, 1.0), KernelSpec(chi=0.0), chem, g, TimeMesh(0.1, 5),
               start_drift=U0)


def test_picard_warns_on_supercritical_horizon():
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(1.0, 50)   # D(1) = 2 sqrt(2/pi) > 1
    with pytest.warns(RuntimeWarning):
        picard(gaussian_density(g, 0.5), KernelSpec(chi=1.0), None, g, mesh, k_max=2,
               tol=1e-14)


def test_picard_divergence_reported(monkeypatch):
    # every linear solve conserves mass exactly, so natural parameters do not
    # sustain growth (a D(T)=4.5 run and a gain-200
    # amplifying kernel both settle); the growth detector is exercised by
    # substituting the iterate metric with a strictly increasing one
    import ksmv.mild as mild_mod

    counter = iter(range(1, 100))
    monkeypatch.setattr(mild_mod, "_sup_l1_distance", lambda A, B, h: float(next(counter)))
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.5, 30)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(PicardDivergenceError) as err:
            picard(gaussian_density(g, 0.5), KernelSpec(chi=1.0), None, g, mesh,
                   k_max=25, tol=1e-12)
    assert err.value.distances == [1.0, 2.0, 3.0, 4.0]
    assert "3 consecutive" in str(err.value) or "diverg" in str(err.value).lower()


# --- restart drift: memory of the rows before a window --------------------------


def prefix_then_zero_history(grid, T0, steps):
    """Rows g(1,.) on [0, T0] and zero after: j steps past the prefix the
    memory drift is the prefix memory E1 q^j S_steps alone."""
    mesh = TimeMesh(2.0 * T0, 2 * steps)
    rows = np.zeros((mesh.steps + 1, grid.n))
    rows[:steps] = heat_kernel(1.0, grid.x)
    return MarginalHistory(grid, mesh, rows, {})


def test_restart_drift_frozen_gaussian_oracle():
    # prefix rows g(1,.): j steps into the next window the prefix memory is
    # b1(t, x) = -x int_t^{T0 + t} g(1+u, x) / (1+u) du at t = j dt
    T0 = 0.25
    hist = prefix_then_zero_history(G12, T0, 50)
    spec = KernelSpec(chi=1.0, lam=0.0)
    for j in (0, 20, 50):
        t = j * hist.mesh.dt
        b1 = memory_drift(hist, spec, 50 + j)
        mirrored = -b1[np.mod(G12.n - np.arange(G12.n), G12.n)]
        assert np.max(np.abs(b1 - mirrored)) < 1e-13   # odd for an even prefix
        for i in (300, 512, 700):
            xv = G12.x[i]
            want, _ = integrate.quad(lambda u: heat_kernel(1.0 + u, xv) / (1.0 + u),
                                     t, T0 + t, **QUAD_TOL)
            assert b1[i] == pytest.approx(-xv * want, abs=ORACLE_TOL)


def test_restart_drift_young_bound():
    T0 = 0.25
    hist = prefix_then_zero_history(G12, T0, 50)
    spec = KernelSpec(chi=1.0, lam=0.0)
    for j in (0, 24):
        t = j * hist.mesh.dt
        b1 = memory_drift(hist, spec, 50 + j)
        total, _ = integrate.quad(lambda s: kernel_l1_norm(spec, T0 + t - s), 0, T0,
                                  points=[T0])
        bound = float(np.max(hist.densities)) * total
        assert float(np.max(np.abs(b1))) <= bound * (1.0 + 1e-6)


def test_memory_sums_carried_across_windows_equal_one_pass():
    # the memory at node 25 + j splits into the first 25 rows' sum, decayed
    # by q^j, plus the later rows' own sum
    g = Grid1D(10.0, 128)
    mesh = TimeMesh(0.5, 60)
    spec = KernelSpec(chi=1.0, lam=0.3)
    hist = march(gaussian_density(g, 0.5), spec, None, g, mesh)
    q = symbol_decay(spec.lam, mesh.dt, g.wavenumbers)
    spectra = hist.spectra()
    first = running_sums(spectra[:25], q)
    own = running_sums(spectra[25:], q)
    assert np.array_equal(first, hist.memory_sums(spec.lam)[:26])
    E1 = integrated_kernel_symbol(spec, mesh.dt, g.wavenumbers)
    for j in (0, 1, 10):
        carried = symbol_decay(spec.lam, j * mesh.dt, g.wavenumbers) * first[-1]
        split = np.fft.irfft(E1 * (carried + own[j]), g.n)
        assert np.allclose(split, memory_drift(hist, spec, 25 + j), rtol=0, atol=1e-13)


# --- global solves ----------------------------------------------------------


def test_solve_global_march_mode_is_march():
    g = Grid1D(10.0, 256)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 1.0)
    a = solve_global(p0, spec, None, g, 0.3, mode="march", steps=30)
    b = march(p0, spec, None, g, TimeMesh(0.3, 30))
    assert np.array_equal(a.densities, b.densities)


def test_solve_global_single_window_reduces_to_picard():
    g = Grid1D(10.0, 256)
    spec = KernelSpec(chi=1.0, lam=0.0)
    T = 0.9 * math.pi / 32.0
    p0 = gaussian_density(g, 0.5)
    got = solve_global(p0, spec, None, g, T, mode="picard_with_restart", steps=40)
    fixed_point, _ = picard(p0, spec, None, g, TimeMesh(T, 40))
    assert got.meta["windows"] == 1
    assert np.array_equal(got.densities, fixed_point.densities)


def test_solve_global_two_windows_match_march():
    g = Grid1D(10.0, 256)
    spec = KernelSpec(chi=1.0, lam=0.0)
    T = 2.0 * math.pi / 32.0
    p0 = gaussian_density(g, 0.5)
    rest = solve_global(p0, spec, None, g, T, mode="picard_with_restart",
                        steps=120, tol=1e-10)
    ref = march(p0, spec, None, g, TimeMesh(T, 120))
    assert rest.meta["windows"] == 2
    gap = max(l1_distance(g, rest.densities[k], ref.densities[k]) for k in range(121))
    assert gap < 1e-8


def test_solve_global_rejects_bad_args():
    g = Grid1D(10.0, 256)
    p0 = gaussian_density(g, 1.0)
    with pytest.raises(ValueError):
        solve_global(p0, KernelSpec(), None, g, 0.0)
    with pytest.raises(ValueError):
        solve_global(p0, KernelSpec(), None, g, 1.0, mode="shooting")
