"""Exogenous drift, chemical concentration/gradient, and the consistency residual."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ksmv.grid import Grid1D, TimeMesh, DensityField, heat_kernel
from ksmv import field as kfield
from ksmv.kernel import KernelSpec
from ksmv.field import InitialChemical, drift_b, chemical_concentration, ks_residual
from ksmv.mild import MarginalHistory, march

from ksmv_helpers import (concentration_oracle, derivative_residual, gaussian_density,
                          memory_drift, periodic_interp, running_sums)

PI_GRID = Grid1D(3.0 * math.pi, 256)   # sin(x) is an exact harmonic here


def snapped(grid, freq):
    """The grid harmonic InitialChemical.sine snaps freq to."""
    fund = math.pi / grid.half_width
    return max(1, round(freq / fund)) * fund


# --- initial chemical ------------------------------------------------------


def test_sine_snaps_to_grid_harmonic():
    g = Grid1D(10.0, 256)
    chem = InitialChemical.sine(g, amp=1.0, freq=1.0)
    freq = snapped(g, 1.0)
    assert freq == pytest.approx(3.0 * math.pi / 10.0, rel=1e-15)
    assert np.array_equal(chem.c0, np.sin(freq * g.x))
    assert np.array_equal(chem.c0_prime, freq * np.cos(freq * g.x))
    # central-difference residual of a sampled sine is w^3 h^2 / 6 exactly
    assert derivative_residual(chem) < 0.2 * freq ** 3 * g.h ** 2


def test_sine_on_commensurate_box_keeps_frequency():
    chem = InitialChemical.sine(PI_GRID, amp=0.5, freq=1.0)
    assert snapped(PI_GRID, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(chem.c0, 0.5 * np.sin(PI_GRID.x), atol=1e-15)
    assert np.allclose(chem.c0_prime, 0.5 * np.cos(PI_GRID.x), atol=1e-15)


def test_bump_derivative_consistent():
    g = Grid1D(10.0, 512)
    chem = InitialChemical.gaussian_bump(g, amp=2.0, width=0.8)
    assert derivative_residual(chem) < 5.0 * g.h ** 2


def test_from_samples_central_difference_default():
    g = Grid1D(5.0, 64)
    vals = np.cos(2.0 * math.pi * g.x / 10.0)
    chem = InitialChemical.from_samples(g, vals)
    cd = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * g.h)
    assert np.array_equal(chem.c0_prime, cd)
    assert derivative_residual(chem) == 0.0


def test_chemical_rejects_bad_samples():
    g = Grid1D(5.0, 64)
    with pytest.raises(ValueError):
        InitialChemical.from_samples(g, np.zeros(63))
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        InitialChemical.from_samples(g, bad)


# --- drift b ---------------------------------------------------------------


def test_drift_sine_closed_form():
    chem = InitialChemical.sine(PI_GRID, amp=1.0, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.0)
    for t in (0.0, 0.2, 1.0):
        want = math.exp(-t / 2.0) * np.cos(PI_GRID.x)
        got = drift_b(spec, chem, t)
        assert np.max(np.abs(got - want)) < 1e-12


def test_drift_constant_chemical_vanishes():
    g = Grid1D(5.0, 64)
    chem = InitialChemical.from_samples(g, np.full(g.n, 3.7), c0_prime=np.zeros(g.n))
    assert np.all(drift_b(KernelSpec(chi=2.0), chem, 0.5) == 0.0)


def test_drift_time_zero_is_chi_c0_prime():
    g = Grid1D(8.0, 128)
    chem = InitialChemical.gaussian_bump(g, amp=1.0, width=1.0)
    assert np.allclose(drift_b(KernelSpec(chi=2.5), chem, 0.0), 2.5 * chem.c0_prime)


def test_drift_rejects_negative_time():
    chem = InitialChemical.sine(PI_GRID)
    with pytest.raises(ValueError):
        drift_b(KernelSpec(), chem, -0.1)


def test_drift_bump_closed_form_vs_quadrature():
    g = Grid1D(12.0, 256)
    chem = InitialChemical.gaussian_bump(g, amp=1.5, width=0.9)
    spec = KernelSpec(chi=1.0, lam=0.3)
    t, node = 0.7, 140
    xv = g.x[node]
    assert xv == 1.125
    want, _ = integrate.quad(
        lambda y: -1.5 * y / 0.9 ** 2 * math.exp(-y * y / (2 * 0.9 ** 2))
        * heat_kernel(t, xv - y), -12, 12)
    want *= math.exp(-0.3 * t)
    assert float(drift_b(spec, chem, t)[node]) == pytest.approx(want, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 3.0), amp=st.floats(0.1, 3.0), harm=st.integers(1, 6))
def test_drift_uniform_bound(t, amp, harm):
    freq = harm * math.pi / PI_GRID.half_width
    chem = InitialChemical.sine(PI_GRID, amp=amp, freq=freq)
    spec = KernelSpec(chi=1.7, lam=0.0)
    bound = 1.7 * amp * snapped(PI_GRID, freq)
    assert float(np.max(np.abs(drift_b(spec, chem, t)))) <= bound * (1.0 + 1e-12)


def test_drift_interp_matches_grid_at_nodes():
    # the pairwise oracle's b at the particles: the grid drift interpolated,
    # exact at the nodes and at their images one period away
    g = Grid1D(6.0, 128)
    chem = InitialChemical.from_samples(g, np.exp(np.sin(math.pi * g.x / 6.0)))
    on_grid = drift_b(KernelSpec(chi=1.0), chem, 0.4)
    for shift in (0.0, 2.0 * g.half_width, -2.0 * g.half_width):
        at_nodes = periodic_interp(g, on_grid, g.x + shift)
        assert np.max(np.abs(on_grid - at_nodes)) < 1e-12


# --- concentration ---------------------------------------------------------


def _zero_history(grid, mesh):
    shape = (mesh.steps + 1, grid.n)
    return MarginalHistory(grid, mesh, np.zeros(shape), {})


def test_concentration_time_zero_is_c0():
    mesh = TimeMesh(0.5, 20)
    chem = InitialChemical.sine(PI_GRID)
    hist = _zero_history(PI_GRID, mesh)
    for nodes in ([0], [0, 1], [0, 7, 20]):
        c = chemical_concentration(hist, chem, 0.7, nodes)[0]
        assert np.array_equal(c.values, chem.c0)
        assert np.array_equal(c.gradient, chem.c0_prime)
        assert c.values is not chem.c0 and c.gradient is not chem.c0_prime


def test_concentration_homogeneous_part_sine():
    mesh = TimeMesh(0.5, 20)
    lam = 0.7
    chem = InitialChemical.sine(PI_GRID, amp=1.0, freq=1.0)
    hist = _zero_history(PI_GRID, mesh)
    c, = chemical_concentration(hist, chem, lam, [20])
    want = math.exp(-lam * 0.5) * math.exp(-0.5 / 2.0) * np.sin(PI_GRID.x)
    assert np.max(np.abs(c.values - want)) < 1e-12
    assert float(np.max(np.abs(c.values))) <= 1.0  # no source: sup can only shrink


def test_concentration_duhamel_frozen_gaussian():
    # rows frozen at g(1,.), lam = 0: source term is int_0^t g(1+s, x) ds
    g = Grid1D(12.0, 512)
    mesh = TimeMesh(0.5, 100)
    rows = np.tile(heat_kernel(1.0, g.x), (mesh.steps + 1, 1))
    hist = MarginalHistory(g, mesh, rows, {})
    chem = InitialChemical.from_samples(g, np.zeros(g.n), c0_prime=np.zeros(g.n))
    c, = chemical_concentration(hist, chem, 0.0, [mesh.steps])
    for i in range(0, g.n, 37):
        want, _ = integrate.quad(lambda s: heat_kernel(1.0 + s, g.x[i]), 0, 0.5)
        assert c.values[i] == pytest.approx(want, abs=1e-4)


def test_concentration_requires_populated_rows():
    mesh = TimeMesh(0.5, 20)
    chem = InitialChemical.sine(PI_GRID)
    hist = _zero_history(PI_GRID, mesh)
    with pytest.raises(ValueError, match=r"node index 21 outside 0\.\.20"):
        chemical_concentration(hist, chem, 0.0, [2, 21])
    hist.densities[12] = np.nan
    with pytest.raises(ValueError, match="rows up to 15 are not all populated"):
        chemical_concentration(hist, chem, 0.0, [2, 15])
    assert len(chemical_concentration(hist, chem, 0.0, [2, 11])) == 2


@pytest.mark.parametrize("nodes, problem", [
    ([], r"nonempty, strictly increasing list, got \[\]"),
    ([3, 2], r"strictly increasing list, got \[3, 2\]"),
    ([0, 4, 4], r"strictly increasing list, got \[0, 4, 4\]"),
    ([-1, 3], r"node index -1 outside 0\.\.20")])
def test_concentration_refuses_a_node_list_by_name(nodes, problem):
    mesh = TimeMesh(0.5, 20)
    chem = InitialChemical.sine(PI_GRID)
    hist = _zero_history(PI_GRID, mesh)
    with pytest.raises(ValueError, match=problem):
        chemical_concentration(hist, chem, 0.0, nodes)


def test_concentration_pushes_each_row_once(monkeypatch):
    # one call over nodes up to 40 pushes rows 0..39, each once and in order
    g = Grid1D(3.0 * math.pi, 64)
    mesh = TimeMesh(0.4, 40)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    hist = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh)
    pushed = []

    def counting_push(U, q, E1, row, spare):
        pushed.append(row.copy())
        push(U, q, E1, row, spare)

    push = kfield._push
    monkeypatch.setattr(kfield, "_push", counting_push)
    chemical_concentration(hist, chem, 0.5, [0, 3, 4, 17, 40])
    spectra = np.fft.rfft(hist.densities[:41], axis=1)
    assert len(pushed) == 40
    assert all(np.array_equal(row, spectra[l]) for l, row in enumerate(pushed))


def test_concentration_pass_memory_does_not_grow_with_the_rows():
    # the pass transforms a block of 64 rows at a time and checks the rows
    # for NaN with no mask: at n = 1024 one block of spectra is 0.5 MB, all
    # 1601 rows' spectra would be 13 MB and their NaN mask 1.6 MB
    g = Grid1D(3.0 * math.pi, 1024)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    peaks = []
    for M in (400, 1600):
        mesh = TimeMesh(0.4, M)
        rows = np.vstack([heat_kernel(0.5 + t, g.x) for t in mesh.nodes])
        hist = MarginalHistory(g, mesh, rows, {})
        tracemalloc.start()
        try:
            chemical_concentration(hist, chem, 0.5, [1, M // 2, M])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2e6, peaks


# criterion 6's two levels, and n = 64 at the M of the residual's sample
# shapes and beyond: one call over every node, and one over the command's
# nodes {1, M/2, M}, equal the per-node oracle bit for bit
@pytest.mark.parametrize("n, M", [(256, 100), (512, 200)]
                         + [(64, M) for M in (1, 2, 3, 4, 25, 40, 400)])
def test_concentration_pass_equals_the_per_node_oracle(n, M):
    g = Grid1D(3.0 * math.pi, n)
    mesh = TimeMesh(0.4, M)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    hist = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh)
    checked = sorted({0, 1, 2, M // 3, M // 2, M - 1, M} & set(range(M + 1)))
    every = chemical_concentration(hist, chem, 0.5, range(M + 1))
    command = sorted({1, M // 2, M})
    fields = [(k, every[k]) for k in checked]
    fields += zip(command, chemical_concentration(hist, chem, 0.5, command))
    for k, got in fields:
        want = concentration_oracle(hist, chem, 0.5, k)
        assert np.array_equal(got.values, want.values), k
        assert np.array_equal(got.gradient, want.gradient), k
        assert got.time_tag == want.time_tag


def test_gradient_cross_method_agreement():
    g = Grid1D(3.0 * math.pi, 512)
    mesh = TimeMesh(0.3, 60)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    hist = march(p0, spec, chem, g, mesh)
    c, = chemical_concentration(hist, chem, 0.5, [mesh.steps])
    # the gradient comes from the memory drift, not from differencing c
    cd = (np.roll(c.values, -1) - np.roll(c.values, 1)) / (2.0 * g.h)
    assert float(np.max(np.abs(cd - c.gradient))) < 5.0 * g.h ** 2


def test_gradient_zero_at_symmetry_point():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.4, 40)
    rows = np.tile(heat_kernel(0.5, g.x), (mesh.steps + 1, 1))
    hist = MarginalHistory(g, mesh, rows, {})
    chem = InitialChemical.from_samples(g, np.full(g.n, 2.0), c0_prime=np.zeros(g.n))
    grad = chemical_concentration(hist, chem, 0.0, [mesh.steps])[0].gradient
    assert abs(grad[g.n // 2]) < 1e-14    # even density, odd kernel


# --- the structural drift identity -----------------------------------------


@pytest.mark.parametrize("chi", [1.0, 1.3])
def test_gradient_identity_with_memory_drift(chi):
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.3, 60)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    spec = KernelSpec(chi=chi, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    hist = march(p0, spec, chem, g, mesh)
    worst = 0.0
    nodes = (0, 1, mesh.steps // 2, mesh.steps)
    for k, field in zip(nodes, chemical_concentration(hist, chem, spec.lam, nodes)):
        lhs = chi * field.gradient
        rhs = drift_b(spec, chem, float(mesh.nodes[k])) + memory_drift(hist, spec, k)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


# --- the two lanes against the explicit memory sums -------------------------


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["keller_segel", "none"])
@pytest.mark.parametrize("c0", ["sine", "quadratic"])
def test_concentration_lanes_match_the_memory_sum_formulas(lam, kind, c0):
    # full_model.cfg's history at chi = 1.3: with S_0 = 0, S_{l+1} = q S_l +
    # rho_hat_l, c_hat_k = e^{-(lam + xi^2/2) t_k} c0_hat
    # + (w0/2) [S_{k+1} - q^k rho_hat_0 + r S_k] and d/dx c_hat_k =
    # e^{-(lam + xi^2/2) t_k} c0'_hat + E1 S_k, E1 of the unit kernel
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.4, 100)
    chem = (InitialChemical.sine(g, amp=0.3, freq=1.0) if c0 == "sine" else
            InitialChemical.from_samples(g, -g.x ** 2 / 2.0, c0_prime=-g.x))
    hist = march(gaussian_density(g, 0.5), KernelSpec(chi=1.3, lam=lam, kind=kind), chem, g, mesh)
    dt, xi = mesh.dt, g.wavenumbers
    rate = lam + xi * xi / 2.0
    q, r = np.exp(-rate * dt), np.exp(-xi * xi * dt / 2.0)
    w0 = dt if lam == 0.0 else -math.expm1(-lam * dt) / lam
    frac = np.full_like(xi, dt)
    np.divide(-np.expm1(-rate * dt), rate, out=frac, where=rate > 0.0)
    E1 = 1j * xi * frac
    rho_hat = np.fft.rfft(hist.densities, axis=1)
    S = running_sums(rho_hat, q)
    c0_hat, c0p_hat = np.fft.rfft(chem.c0), np.fft.rfft(chem.c0_prime)
    worst = [0.0, 0.0]
    nodes = range(mesh.steps + 1)
    for k, field in zip(nodes, chemical_concentration(hist, chem, lam, nodes)):
        decay = np.exp(-rate * k * dt)
        c_hat = decay * c0_hat
        if k:
            c_hat = c_hat + 0.5 * w0 * (S[k + 1] - decay * rho_hat[0] + r * S[k])
        want = (np.fft.irfft(c_hat, g.n), np.fft.irfft(decay * c0p_hat + E1 * S[k], g.n))
        for i, (got, ref) in enumerate(zip((field.values, field.gradient), want)):
            worst[i] = max(worst[i], float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    assert max(worst) < 1e-13, worst


# --- concentration bounds on a real run ------------------------------------


def test_concentration_young_bound_full_model():
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.4, 60)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    hist = march(gaussian_density(g, 0.5), spec, chem, g, mesh)
    c, = chemical_concentration(hist, chem, 0.5, [mesh.steps])
    sup_rho = float(np.max(hist.densities))
    bound = float(np.max(np.abs(chem.c0))) + mesh.horizon * sup_rho
    assert float(np.max(np.abs(c.values))) <= bound


# --- consistency residual --------------------------------------------------


def test_ks_residual_shrinks_under_refinement():
    spec = KernelSpec(chi=1.0, lam=0.5)
    norms = {}
    for n, M in ((128, 50), (256, 100)):
        g = Grid1D(3.0 * math.pi, n)
        mesh = TimeMesh(0.4, M)
        chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
        hist = march(gaussian_density(g, 0.5), spec, chem, g, mesh)
        norms[n] = float(np.max(ks_residual(hist, chem, 0.5)))
    assert norms[256] < norms[128] / 1.5


# M = 2 and 3 sample every interior node, M = 4 node 2 alone; from M = 4 on
# every max(1, M // 16)-th node from 2 to M - 2: all 22 at M = 25, every
# other one at M = 40, 16 at M = 400
@pytest.mark.parametrize("M, samples", [(2, 1), (3, 2), (4, 1), (25, 22), (40, 19), (400, 16)])
def test_ks_residual_samples_the_interior_nodes(M, samples):
    g = Grid1D(3.0 * math.pi, 64)
    mesh = TimeMesh(0.4, M)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    hist = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh)
    res = ks_residual(hist, chem, 0.5)
    assert res.shape == (samples,)
    assert np.all(np.isfinite(res))


# M = 40 samples nodes 2, 4, ..., 38 and reads nodes 1..39: a NaN row at a
# sampled node or at the last node read is refused, one past it is not read
@pytest.mark.parametrize("nan_row, refused", [(20, True), (39, True), (40, False)])
def test_ks_residual_rejects_a_nan_row_it_reads(nan_row, refused):
    g = Grid1D(3.0 * math.pi, 64)
    mesh = TimeMesh(0.4, 40)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    rows = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh).densities
    rows[nan_row] = np.nan
    hist = MarginalHistory(g, mesh, rows, {})
    if refused:
        with pytest.raises(ValueError, match="not all populated"):
            ks_residual(hist, chem, 0.5)
    else:
        assert np.all(np.isfinite(ks_residual(hist, chem, 0.5)))


# --- symmetries of the march and the field -----------------------------------


def _march_and_field(g, mesh, spec, p0, c0, c0_prime):
    """The march rows and the c and d/dx c lanes at every node, from samples."""
    chem = InitialChemical.from_samples(g, c0, c0_prime=c0_prime)
    hist = march(DensityField(g, p0), spec, chem, g, mesh)
    fields = chemical_concentration(hist, chem, spec.lam, range(mesh.steps + 1))
    return (hist.densities, np.array([f.values for f in fields]),
            np.array([f.gradient for f in fields]))


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("chi", [1.0, 5.0, 20.0])
@pytest.mark.parametrize("c0", ["sine", "bump"])
def test_march_and_field_commute_with_reflection_and_shift(c0, chi, lam):
    # x_j -> x_{n-j} maps gaussian(m, v) to gaussian(-m, v) and sine(a, f) to
    # sine(-a, f), and d/dx c changes sign; a shift by 37 cells moves every
    # lane alike.  The maps act on the samples, so the inputs map exactly
    # (the bump's sampled c0' is not odd at x_0 = -L, its own mirror image,
    # where it reads 1.3e-13 instead of 0; a reflected bump form would carry
    # that into d/dx c).  Largest gaps relative to the lane's max over
    # n = 256, M = 100: reflection 5.9e-16 (rows), 8.5e-16 (c), 7.1e-16
    # (d/dx c); shift 1.2e-15, 1.8e-15, 2.0e-15
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.4, 100)
    spec = KernelSpec(chi=chi, lam=lam)
    p0 = gaussian_density(g, 0.5, mean=0.7).values
    chem = (InitialChemical.sine(g, amp=0.3, freq=1.0) if c0 == "sine" else
            InitialChemical.gaussian_bump(g, amp=0.5, width=1.2))
    lanes = _march_and_field(g, mesh, spec, p0, chem.c0, chem.c0_prime)
    mirror = (g.n - np.arange(g.n)) % g.n
    reflected = _march_and_field(g, mesh, spec, p0[mirror], chem.c0[mirror],
                                 -chem.c0_prime[mirror])
    shifted = _march_and_field(g, mesh, spec, *(np.roll(v, 37) for v in
                                                (p0, chem.c0, chem.c0_prime)))
    for lane, sign, got_r, got_s in zip(lanes, (1.0, 1.0, -1.0), reflected, shifted):
        scale = float(np.max(np.abs(lane)))
        assert np.max(np.abs(got_r - sign * lane[:, mirror])) <= 2e-15 * scale
        assert np.max(np.abs(got_s - np.roll(lane, 37, axis=1))) <= 5e-15 * scale
