"""End-to-end acceptance checks, one per shipped guarantee.

Each test measures the claimed quantity at the stated tolerance, records a
pass/fail line through ksmv_helpers.record_criterion, and then asserts.  Shared
expensive solves live in module fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from ksmv import cli
from ksmv.grid import Grid1D, TimeMesh
from ksmv.kernel import KernelSpec, check_hypotheses, find_T0, horizon_D, f1_profile
from ksmv.field import InitialChemical, drift_b, chemical_concentration, ks_residual
from ksmv.mild import march, picard, solve_global
from ksmv.particle import simulate_particles, simulate_bounded_drift, kde_density
from ksmv.qz import QZParams, qz_density, verify_bound

from ksmv_helpers import (record_criterion, gaussian_density, kernel_l1_norm, l1_distance,
                          memory_drift, qz_density_oracle)

SINE_BOX = 3.0 * math.pi   # box half-width making the frequency-1 sine periodic


def sup_row_l1(a: np.ndarray, b: np.ndarray, h: float) -> float:
    return float(np.max(np.sum(np.abs(a - b), axis=1)) * h)


@pytest.fixture(scope="module")
def midscale_full_model():
    """Full model at production-config scale: interaction plus sine chemical."""
    grid = Grid1D(SINE_BOX, 256)
    mesh = TimeMesh(0.4, 100)
    spec = KernelSpec(chi=1.0, lam=0.5)
    chem = InitialChemical.sine(grid, amp=0.3, freq=1.0)
    hist = march(gaussian_density(grid, 0.5), spec, chem, grid, mesh)
    return grid, mesh, spec, chem, hist


def test_criterion_01_kernel_condition_suite():
    t_start = time.perf_counter()
    mesh = TimeMesh(1.0, 200)
    all_pass = True
    worst_dev = 0.0
    for chi in (0.5, 1.0, 2.0):
        for lam in (0.0, 0.5):
            spec = KernelSpec(chi=chi, lam=lam)
            report = check_hypotheses(spec, mesh)
            all_pass &= report.all_pass
            if lam == 0.0:
                target = math.sqrt(2.0 * math.pi) * chi
                vals = f1_profile(spec, mesh.nodes[1::10])
                worst_dev = max(worst_dev, float(np.max(np.abs(vals - target))) / target)
    # independent quadrature oracle for the plateau at one interior node
    spec1 = KernelSpec(chi=1.0, lam=0.0)
    oracle = integrate.quad(lambda s: kernel_l1_norm(spec1, 0.7 - s) / math.sqrt(s),
                            0.0, 0.7, epsabs=1e-10, limit=200)[0]
    k07 = int(round(0.7 / mesh.dt))
    oracle_dev = abs(float(f1_profile(spec1, mesh.nodes[k07])) - oracle) / oracle
    elapsed = time.perf_counter() - t_start
    ok = all_pass and worst_dev < 0.01 and oracle_dev < 0.01 and elapsed < 10.0
    record_criterion(1, ok, "kernel condition suite passes on the chi x lambda grid; "
                     f"singular-profile plateau dev {worst_dev:.1e}, quad oracle dev "
                     f"{oracle_dev:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_contraction_horizon():
    worst = 0.0
    for chi in (0.5, 1.0, 2.0):
        spec = KernelSpec(chi=chi, lam=0.0)
        ref = math.pi / (8.0 * chi * chi)
        worst = max(worst, abs(find_T0(spec, 0.9999) - ref) / ref)
    probe = np.linspace(1e-3, 5.0, 100)
    monotone = True
    for lam in (0.0, 0.5):
        d = np.array([horizon_D(KernelSpec(chi=1.0, lam=lam), float(T)) for T in probe])
        monotone &= bool(np.all(np.diff(d) > 0.0))
    ok = worst < 0.01 and monotone
    record_criterion(2, ok, f"contraction horizon matches closed form (worst dev {worst:.1e}); "
                     "interaction budget monotone on a 100-point probe")
    assert ok


def test_criterion_03_fixed_point_contraction():
    t_start = time.perf_counter()
    spec = KernelSpec(chi=1.0, lam=0.0)
    T0 = find_T0(spec, 0.5)
    grid = Grid1D(10.0, 1024)
    mesh = TimeMesh(T0, 400)
    p0 = gaussian_density(grid, 0.5)
    fixed_point, distances = picard(p0, spec, None, grid, mesh, k_max=25, tol=1e-8)
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0.0]
    tail_contracts = bool(ratios) and all(r <= 0.6 for r in ratios[1:]) and ratios[-1] <= 0.6
    reference = march(p0, spec, None, grid, mesh)
    gap = sup_row_l1(fixed_point.densities, reference.densities, grid.h)
    elapsed = time.perf_counter() - t_start
    ok = tail_contracts and gap <= 1e-3 and elapsed < 120.0
    record_criterion(3, ok, f"iterate distance ratios {['%.2g' % r for r in ratios]} "
                     f"reach <= 0.6; fixed point vs causal march L1 {gap:.1e}; {elapsed:.0f}s")
    assert ok


def test_criterion_04_mass_conservation():
    grid = Grid1D(SINE_BOX, 1024)
    mesh = TimeMesh(2.0, 400)
    spec = KernelSpec(chi=1.0, lam=0.5)
    chem = InitialChemical.sine(grid, amp=0.3, freq=1.0)
    hist = march(gaussian_density(grid, 1.0), spec, chem, grid, mesh)
    drift = hist.max_mass_drift()
    ok = drift <= 1e-3
    record_criterion(4, ok, f"row mass drift {drift:.1e} <= 1e-3 "
                     "over 401 marginals of the full model")
    assert ok


def test_criterion_05_drift_gradient_identity(midscale_full_model):
    grid, mesh, spec, chem, hist = midscale_full_model
    worst = 0.0
    nodes = range(mesh.steps + 1)
    for k, field in zip(nodes, chemical_concentration(hist, chem, spec.lam, nodes)):
        lhs = spec.chi * field.gradient
        rhs = drift_b(spec, chem, float(mesh.nodes[k])) + memory_drift(hist, spec, k)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-6
    record_criterion(5, ok, f"chi * concentration gradient vs total drift: sup gap "
                     f"{worst:.1e} <= 1e-6 at every mesh node")
    assert ok


def test_criterion_06_coupled_residual_refines(midscale_full_model):
    grid, mesh, spec, chem, hist = midscale_full_model
    coarse = float(np.max(ks_residual(hist, chem, spec.lam)))
    grid_f = Grid1D(SINE_BOX, 512)
    mesh_f = TimeMesh(0.4, 200)
    chem_f = InitialChemical.sine(grid_f, amp=0.3, freq=1.0)
    hist_f = march(gaussian_density(grid_f, 0.5), spec, chem_f, grid_f, mesh_f)
    fine = float(np.max(ks_residual(hist_f, chem_f, spec.lam)))
    ratio = coarse / fine
    ok = ratio >= 1.5
    record_criterion(6, ok, f"coupled-system residual drops {ratio:.2f}x (>= 1.5x) "
                     "under joint (h, dt) halving")
    assert ok


def test_criterion_07_density_scalings():
    grid = Grid1D(8.0, 2048)
    mesh = TimeMesh(1.0, 400)
    spec = KernelSpec(chi=1.0, lam=0.5)
    hist = march(gaussian_density(grid, 1e-2), spec, None, grid, mesh)
    t = mesh.nodes
    sel = t >= 0.01 - 1e-12
    sqrt_t_linf = (np.sqrt(t) * np.max(np.abs(hist.densities), axis=1))[sel]
    qrt_t_l2 = (t ** 0.25 * np.sqrt(np.sum(hist.densities ** 2, axis=1) * grid.h))[sel]
    r_inf = float(np.max(sqrt_t_linf) / np.min(sqrt_t_linf))
    r_l2 = float(np.max(qrt_t_l2) / np.min(qrt_t_l2))
    ok = r_inf < 2.0 and r_l2 < 2.0
    record_criterion(7, ok, f"sqrt(t)||p||_inf spread {r_inf:.2f}x and t^(1/4)||p||_L2 "
                     f"spread {r_l2:.2f}x, both < 2x over t in [0.01, 1]")
    assert ok


def test_criterion_08_comparison_density_oracles():
    t_start = time.perf_counter()
    worst_norm = 0.0
    for beta in (0.0, 0.25, 1.0, 4.0):
        for t in (0.1, 1.0, 5.0):
            p = QZParams(beta=beta, y=0.3, x=-0.8, t=t)
            w = 10.0 * math.sqrt(t) + beta * t + 2.0
            val = integrate.quad(lambda z: qz_density(p, z), min(p.x, p.y) - w,
                                 max(p.x, p.y) + w, points=[p.x, p.y],
                                 limit=400, epsabs=1e-10, epsrel=1e-10)[0]
            worst_norm = max(worst_norm, abs(val - 1.0))

    p0 = QZParams(beta=0.0, y=0.0, x=1.0, t=0.7)
    zs = np.linspace(-4.0, 4.0, 41)
    gauss = np.exp(-(zs - 1.0) ** 2 / 1.4) / math.sqrt(2.0 * math.pi * 0.7)
    red = float(np.max(np.abs(qz_density(p0, zs) - gauss)))

    # closed form vs the excursion integral by quadrature, attractor included
    worst_oracle = 0.0
    for p in (QZParams(beta=b, y=0.1, x=-0.9, t=t)
              for b in (0.25, 1.0, 2.5) for t in (0.2, 1.0, 3.0)):
        zs = np.array([-3.0, p.x, -0.4, p.y, 0.6, 2.5])
        oracle = np.array([qz_density_oracle(p, float(z)) for z in zs])
        worst_oracle = max(worst_oracle, float(np.max(np.abs(qz_density(p, zs) - oracle))))

    beta, y = 0.5, 0.0
    mesh = TimeMesh(1.0, 1000)
    ens = simulate_bounded_drift(lambda s, dt, x: dt * (beta * np.sign(y - x)),
                                 lambda u: np.full_like(u, 1.0), mesh, N=100000,
                                 seed=404, drift_bound=beta, store_rows=[1000])
    zs = np.linspace(-3.0, 4.0, 36)
    width = zs[1] - zs[0]
    edges = np.concatenate([zs - width / 2.0, [zs[-1] + width / 2.0]])
    counts, _ = np.histogram(ens.positions[-1], bins=edges)
    hist = counts / (100000 * width)
    # compare cell average to cell average: the density kinks at the attractor,
    # so its center value inside that bin is off by O(width) from the bin mass
    p_mc = QZParams(beta=beta, y=y, x=1.0, t=1.0)
    ref = np.array([integrate.quad(lambda z: qz_density(p_mc, z), a, b,
                                   points=([y] if a < y < b else None),
                                   epsabs=1e-12)[0] / width
                    for a, b in zip(edges[:-1], edges[1:])])
    mc_err = float(np.max(np.abs(hist - ref)))

    elapsed = time.perf_counter() - t_start
    ok = (worst_norm <= 1e-6 and red <= 1e-12 and worst_oracle <= 1e-8
          and mc_err <= 2e-2 and elapsed < 120.0)
    record_criterion(8, ok, f"closed-form density: normalization {worst_norm:.1e}, "
                     f"driftless reduction {red:.1e}, quadrature oracle {worst_oracle:.1e}, "
                     f"MC histogram sup {mc_err:.1e}; {elapsed:.0f}s")
    assert ok


def test_criterion_09_universal_density_bound():
    beta = 0.5
    mesh = TimeMesh(1.0, 500)
    ens = simulate_bounded_drift(lambda t, dt, x: dt * (beta * np.sin(x)),
                                 lambda u: np.zeros_like(u), mesh, N=40000,
                                 seed=2024, drift_bound=beta,
                                 store_rows=[5, 50, 250, 500])
    report = verify_bound(ens, beta)
    part1 = report.passed

    # random uniform start on a unit-mass interval: sup density <= 2 sup p0 + beta
    beta_u = 0.3
    ens_u = simulate_bounded_drift(lambda t, dt, x: dt * (beta_u * np.sin(x)),
                                   lambda u: u - 0.5, mesh, N=40000, seed=2025,
                                   drift_bound=beta_u, store_rows=[5, 50, 250, 500])
    cap = 2.0 * 1.0 + beta_u
    worst_excess = -math.inf
    for t, positions in zip(ens_u.snapshot_times, ens_u.positions):
        if t <= 0:
            continue
        edges = np.linspace(np.min(positions), np.max(positions), 61)
        counts, _ = np.histogram(positions, bins=edges)
        w = edges[1] - edges[0]
        dens = counts / (40000 * w)
        phat = counts / 40000
        se = np.sqrt(phat * (1.0 - phat) / 40000) / w
        worst_excess = max(worst_excess, float(np.max(dens - (cap + 3.0 * se))))
    part2 = worst_excess <= 0.0
    ok = part1 and part2
    record_criterion(9, ok, "bounded-sine-drift histogram: no bin count is improbable under "
                     f"the pointwise bound (smallest binomial-tail p-value "
                     f"{report.min_p_value():.2e} vs Bonferroni level {report.level:.1e}); "
                     "uniform-start sup "
                     f"density stays under {cap:g} (max excess {worst_excess:.2e})")
    assert ok


def test_criterion_10_mean_field_convergence():
    t_start = time.perf_counter()
    grid = Grid1D(SINE_BOX, 256)
    mesh = TimeMesh(1.0, 200)
    spec = KernelSpec(chi=1.0, lam=0.5)
    chem = InitialChemical.sine(grid, amp=0.3, freq=1.0)
    p0 = gaussian_density(grid, 0.5)
    ref = march(p0, spec, chem, grid, mesh)
    errs = []
    for N in (1000, 10000):
        # default key assignment nests the N=1000 streams inside the N=10000 run
        ens = simulate_particles(N, p0, spec, chem, mesh, seed=1234)
        est = kde_density(ens, mesh.steps)
        errs.append(l1_distance(grid, est.values, ref.densities[-1]))
    elapsed = time.perf_counter() - t_start
    ok = errs[1] <= errs[0] and elapsed < 600.0
    record_criterion(10, ok, f"particle-vs-solver L1 at the horizon: {errs[0]:.3f} "
                     f"(N=1e3) -> {errs[1]:.3f} (N=1e4), non-increasing; {elapsed:.0f}s")
    assert ok


def test_criterion_11_windowed_restart_equivalence():
    spec = KernelSpec(chi=1.0, lam=0.0)
    T0 = find_T0(spec, 0.5)
    T = 2.0 * T0
    grid = Grid1D(10.0, 512)
    p0 = gaussian_density(grid, 0.5)
    fine = march(p0, spec, None, grid, TimeMesh(T, 400))
    half = march(p0, spec, None, grid, TimeMesh(T, 200))
    scheme_err = sup_row_l1(fine.densities[::2], half.densities, grid.h)
    stitched = solve_global(p0, spec, None, grid, T, mode="picard_with_restart",
                            steps=400, safety=0.5, tol=1e-10)
    gap = sup_row_l1(stitched.densities, fine.densities, grid.h)
    ok = stitched.meta["windows"] == 2 and gap <= 5.0 * scheme_err
    record_criterion(11, ok, f"two-window restarted solve vs single march: L1 gap "
                     f"{gap:.1e} <= 5 x step-halving error {scheme_err:.1e}")
    assert ok


def test_criterion_12_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = tmp_path / "det.cfg"
    cfg.write_text("\n".join([
        "model.chi = 1.0", "model.lambda = 0.5", "model.kernel = keller_segel",
        "initial.p0 = gaussian(0, 0.5)", "initial.c0 = gaussian_bump(0.5, 1)",
        "discretization.l = 8", "discretization.n = 64",
        "discretization.t = 0.3", "discretization.m = 30",
        "particles.n = 600", "particles.seed = 99",
    ]) + "\n")
    payloads = []
    codes = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc_solve = cli.main(["--config", str(cfg), "--out", str(out), "solve"])
        rc_part = cli.main(["--config", str(cfg), "--out", str(out), "particles"])
        codes.append((rc_solve, rc_part))
        payloads.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
    same_files = set(payloads[0]) == set(payloads[1]) and len(payloads[0]) >= 3
    identical = same_files and all(payloads[0][k] == payloads[1][k] for k in payloads[0])
    ok = identical and codes[0] == codes[1] and codes[0][0] == 0
    record_criterion(12, ok, f"{len(payloads[0])} CSVs byte-identical across two reruns "
                     "with a fixed seed")
    assert ok
