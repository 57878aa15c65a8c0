import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from jacobi_heat.heat_kernel import auto_truncation_2d, density_2d_values
from jacobi_heat.polynomials import SimplexPolynomial
from jacobi_heat.sde import (
    BLOCK_PATHS,
    PathEnsemble,
    SdeConfig,
    _BYTE_LAW,
    _diffusion_increment,
    _normals,
    density_ks_check,
    simulate,
)
from jacobi_heat.validate import generator_moment_check


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(N=3, k=3, t_final=0.5, dt=1e-3, paths=10, seed=0)
    with pytest.raises(ValueError):
        SdeConfig(N=3, k=1, t_final=0.5, dt=0.1, paths=10, seed=0)  # dt too coarse
    with pytest.raises(ValueError):
        SdeConfig(N=3, k=1, t_final=0.0, dt=1e-3, paths=10, seed=0)
    with pytest.raises(ValueError):
        SdeConfig(N=3, k=1, t_final=0.5, dt=1e-3, paths=0, seed=0)
    with pytest.raises(ValueError):
        SdeConfig(N=3, k=1, t_final=0.5, dt=1e-3, paths=10, seed=-1)
    # non-integers were accepted (N, k) or failed later inside simulate (paths, seed)
    for field_, value in [("N", 3.5), ("N", 3.0), ("k", 1.5), ("paths", 10.5), ("seed", 1.5)]:
        kwargs = {**dict(N=3, k=1, t_final=0.5, dt=1e-3, paths=10, seed=0), field_: value}
        with pytest.raises(ValueError, match=f"{field_} must be >= \\d+ and an integer"):
            SdeConfig(**kwargs)
    SdeConfig(N=np.int64(3), k=np.int32(1), t_final=0.5, dt=1e-3, paths=np.int64(10),
              seed=np.uint64(2**63))
    for t_final, dt in [(math.inf, 1e-3), (math.nan, 1e-3), (0.5, math.nan), (0.5, 0.0)]:
        with pytest.raises(ValueError, match="positive and finite"):
            SdeConfig(N=3, k=1, t_final=t_final, dt=dt, paths=10, seed=0)
    # 1.0 / 0.07 = 14.29 steps would stop at t = 0.98
    with pytest.raises(ValueError, match="whole number of steps"):
        SdeConfig(N=3, k=1, t_final=1.0, dt=0.07, paths=10, seed=0)
    # every horizon the package and its benchmark use lies on its grid
    for steps in (20, 25, 65, 200, 800):
        SdeConfig(N=3, k=1, t_final=steps * 1e-4, dt=1e-4, paths=10, seed=0)
    SdeConfig(N=3, k=1, t_final=0.8, dt=1e-3, paths=10, seed=0)


def test_start_point_validation():
    cfg = SdeConfig(N=4, k=2, t_final=0.2, dt=1e-3, paths=5, seed=1)
    with pytest.raises(ValueError):
        simulate(cfg, np.array([0.7, 0.5]))
    with pytest.raises(ValueError):
        simulate(cfg, np.array([np.nan, 0.2]))
    with pytest.raises(ValueError):
        simulate(cfg, np.array([0.2]))
    with pytest.raises(ValueError):
        simulate(cfg, np.array([0.2, 0.1]), snapshot_times=(0.5,))
    for ts in (0.123456, math.nan):
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(cfg, np.array([0.2, 0.1]), snapshot_times=(ts,))


def test_bit_identical_for_identical_configs():
    cfg = SdeConfig(N=3, k=2, t_final=0.3, dt=1e-3, paths=400, seed=123)
    a = simulate(cfg, np.array([0.3, 0.3]), snapshot_times=(0.1,))
    b = simulate(cfg, np.array([0.3, 0.3]), snapshot_times=(0.1,))
    assert np.array_equal(a.terminal_points, b.terminal_points)
    assert np.array_equal(a.snapshots[0.1], b.snapshots[0.1])
    c = simulate(SdeConfig(N=3, k=2, t_final=0.3, dt=1e-3, paths=400, seed=124), np.array([0.3, 0.3]))
    assert not np.array_equal(a.terminal_points, c.terminal_points)


def test_multi_block_rerun_is_bit_identical():
    cfg = SdeConfig(N=4, k=2, t_final=0.05, dt=5e-3, paths=BLOCK_PATHS + 37, seed=41)
    a = simulate(cfg, np.array([0.3, 0.2]), snapshot_times=(0.02,))
    b = simulate(cfg, np.array([0.3, 0.2]), snapshot_times=(0.02,))
    assert np.array_equal(a.terminal_points, b.terminal_points)
    assert np.array_equal(a.snapshots[0.02], b.snapshots[0.02])


@pytest.mark.parametrize("k", [1, 3])
def test_blocks_are_keyed_by_seed_and_block_only(k):
    # the first block of a larger ensemble is the one-block ensemble
    start = np.full(k, 0.2)
    big, one = (
        simulate(
            SdeConfig(N=6, k=k, t_final=0.05, dt=5e-3, paths=paths, seed=43),
            start,
            snapshot_times=(0.01,),
        )
        for paths in (BLOCK_PATHS + 37, BLOCK_PATHS)
    )
    assert np.array_equal(big.terminal_points[:BLOCK_PATHS], one.terminal_points)
    assert np.array_equal(big.snapshots[0.01][:BLOCK_PATHS], one.snapshots[0.01])


def _block(seed, b):
    """Block b of an ensemble drawn with the given seed."""
    cfg = SdeConfig(N=3, k=1, t_final=0.05, dt=5e-3, paths=(b + 1) * BLOCK_PATHS, seed=seed)
    return simulate(cfg, np.array([0.4])).terminal_points[b * BLOCK_PATHS :]


def test_blocks_draw_from_distinct_keys():
    # two blocks sharing a key would be bit-identical; check_monte_carlo draws
    # its ensembles from seeds seed..seed+3, and 2**32 + 5 differs from 5
    # only above the low 32-bit word
    for first, second in [((59, 0), (59, 1)), ((2024, 1), (2025, 0)), ((5, 1), (2**32 + 5, 0))]:
        assert not np.array_equal(_block(*first), _block(*second)), (first, second)


def test_short_last_block_stays_in_the_simplex():
    cfg = SdeConfig(N=3, k=2, t_final=0.05, dt=5e-3, paths=BLOCK_PATHS + 37, seed=47)
    pts = simulate(cfg, np.array([0.02, 0.95])).terminal_points  # start near the boundary
    assert pts.shape == (BLOCK_PATHS + 37, 2)
    last = pts[BLOCK_PATHS:]
    assert np.all(last >= 0.0)
    assert np.all(last.sum(axis=1) <= 1.0 + 1e-12)
    assert np.unique(last, axis=0).shape[0] > 1


def _reference_diffusion_increment(u, z, sqrt2dt):
    """The allocating one-expression form of the factor, kept as the bit-exact reference."""
    denom = 1.0 + np.sqrt(np.maximum(1.0 - u.sum(axis=0), 0.0))
    return sqrt2dt * (np.sqrt(u) * z - u * ((np.sqrt(u) * z).sum(axis=0) / denom))


def test_byte_law_moments_through_order_five():
    # each table entry is sign * a with probability 1/256, a^2 = 128/43; odd powers
    # of a are irrational, so an odd moment is exact only through its zero sign sum
    signs = [int(v) for v in np.sign(_BYTE_LAW)]
    assert len(signs) == 256 and signs[:43] == [-1] * 43 and signs[43:86] == [1] * 43
    assert all(abs(v) == math.sqrt(128.0 / 43.0) for v in _BYTE_LAW if v)
    for m, want in enumerate([0, 1, 0, Fraction(128, 43), 0], start=1):
        sign_mean = Fraction(sum(sg**m for sg in signs), 256)
        if m % 2:
            assert sign_mean == want == 0
        else:
            assert sign_mean * Fraction(128, 43) ** (m // 2) == want


def test_normals_pin_the_byte_law_stream():
    # the seeded validate reports were verified on exactly this stream; the odd
    # size leaves part of the last raw word unread
    out = np.empty((3, 10**4 + 5))
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(7, spawn_key=(0,))))
    twin = np.random.Generator(np.random.SFC64(np.random.SeedSequence(7, spawn_key=(0,))))
    assert _normals(rng, out) is out
    words = twin.bit_generator.random_raw(-(-out.size // 8))
    raw = np.frombuffer(words.astype("<u8").tobytes(), dtype=np.uint8)[: out.size]
    assert np.array_equal(out, _BYTE_LAW[raw].reshape(out.shape))
    assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()  # no more draws


def test_normals_frequencies():
    n = 6 * 10**5
    z = _normals(np.random.Generator(np.random.SFC64(11)), np.empty((6, n // 6)))
    a = math.sqrt(128.0 / 43.0)
    for value, p in [(-a, 43 / 256), (a, 43 / 256), (0.0, 170 / 256)]:
        count = int(np.count_nonzero(z == value))
        assert abs(count - n * p) <= 4.5 * math.sqrt(n * p * (1.0 - p)), value


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_diffusion_increment_factors_the_diffusion_matrix(k):
    # applied to the unit vectors, the increment is sqrt(2 dt) L column by column
    rng = np.random.default_rng(60 + k)
    dt = 0.3
    interior = [rng.dirichlet(np.ones(k + 1))[:k] for _ in range(20)]
    zeros = [np.where(np.arange(k) == i, 0.0, p) for i, p in enumerate(interior[:k])]
    face = [rng.dirichlet(np.ones(k)) for _ in range(10)]  # sum(u) = 1, where q = 0
    # 1e-13 past the face, inside simulate's slack for a start point, q is clamped at 0
    # and L L^T = diag(u) - (2 - sum(u)) u u^T, as diag(u) - u u^T is indefinite there
    for point in interior + zeros + face + [p * (1.0 + 1e-13) for p in face]:
        u = np.tile(point[:, None], (1, k))
        L = _diffusion_increment(u, np.eye(k), math.sqrt(2.0 * dt), np.empty((k, k)), np.empty((2, k)))
        excess = max(point.sum() - 1.0, 0.0)
        want = 2.0 * dt * (np.diag(point) - (1.0 - excess) * np.outer(point, point))
        assert np.all(np.isfinite(L)) and np.max(np.abs(L @ L.T - want)) <= 1e-14, point


@pytest.mark.parametrize("k", [1, 2, 3])
def test_diffusion_increment_matches_the_allocating_loop(k):
    rng = np.random.default_rng(70 + k)
    n = 500
    u = rng.dirichlet(np.ones(k + 1), size=n).T[:k].copy()
    u[:, :5] = 0.0
    u[:, 5:10] = rng.dirichlet(np.ones(k), size=5).T  # on the face sum(u) = 1, where q = 0
    z = rng.standard_normal((k, n))
    got = _diffusion_increment(u, z.copy(), 0.05, np.empty((k, n)), np.empty((2, n)))
    assert np.array_equal(got, _reference_diffusion_increment(u, z, 0.05))


def test_simplex_containment():
    cfg = SdeConfig(N=3, k=2, t_final=0.5, dt=1e-3, paths=2000, seed=5)
    ens = simulate(cfg, np.array([0.05, 0.9]))  # start near the boundary
    pts = ens.terminal_points
    assert np.all(pts >= 0.0)
    assert np.all(pts.sum(axis=1) <= 1.0 + 1e-12)


# at t = 50 only the constant mode survives: the stationary Beta(1, N-1) law
T_STATIONARY = 50.0


def _beta_ensemble(a, b, paths, seed):
    """Terminal points drawn straight from Beta(a, b), labelled as an N = 3 ensemble at T_STATIONARY."""
    draws = np.random.default_rng(seed).beta(a, b, size=(paths, 1))
    cfg = SdeConfig(N=3, k=1, t_final=T_STATIONARY, dt=1e-2, paths=paths, seed=0)
    return PathEnsemble(terminal_points=draws, config=cfg, start=np.array([0.3]))


def test_ks_accepts_identically_distributed_sample():
    stat = density_ks_check(_beta_ensemble(1.0, 2.0, 10000, 77))
    assert stat <= 1.63 / math.sqrt(10000)


def test_ks_detects_wrong_law():
    stat = density_ks_check(_beta_ensemble(3.0, 1.5, 10000, 78))
    assert stat > 10.0 * 1.63 / math.sqrt(10000)


def test_ks_against_transition_density():
    cfg = SdeConfig(N=3, k=1, t_final=0.5, dt=1e-3, paths=20000, seed=13)
    stat = density_ks_check(simulate(cfg, np.array([0.3])))
    assert stat <= 3.0 * 1.63 / math.sqrt(cfg.paths)


def test_ks_statistic_memory_is_linear_in_the_paths():
    # the closed-form CDF needs a few arrays of the paths' size, not 16 density
    # evaluations per path
    ens = _beta_ensemble(1.0, 2.0, 2 * 10**5, 79)
    tracemalloc.start()
    try:
        density_ks_check(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_chi_square_matches_per_cell_integration():
    # the reference integrates the density cell by cell, one call per cell
    N, t, c, bins = 4, 0.4, (0.3, 0.2), 3
    ens = simulate(SdeConfig(N=N, k=2, t_final=t, dt=1e-3, paths=2000, seed=11), np.array(c))
    tr = auto_truncation_2d(t, N, 1e-10)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    width = 1.0 / bins
    expected = np.empty((bins, bins))
    for ix in range(bins):
        for iy in range(bins):
            x, y = np.meshgrid(ix * width + width * nodes, iy * width + width * nodes, indexing="ij")
            f = density_2d_values(t, c, np.column_stack([x.ravel(), ((1.0 - x) * y).ravel()]), N, tr)
            cell = (1.0 - x) * f.reshape(8, 8)
            expected[ix, iy] = width * width * weights @ cell @ weights
    expected *= ens.config.paths
    pts = ens.terminal_points
    ix = np.minimum((pts[:, 0] / width).astype(int), bins - 1)
    iy = np.minimum((pts[:, 1] / (1.0 - pts[:, 0]) / width).astype(int), bins - 1)
    observed = np.zeros((bins, bins))
    np.add.at(observed, (ix, iy), 1.0)
    want = float(np.sum((observed - expected) ** 2 / expected))
    assert density_ks_check(ens, grid_bins=bins) == pytest.approx(want, rel=1e-12)


def test_chi_square_refuses_sparse_cells():
    N, t, c = 4, 0.2, (0.3, 0.2)
    ens = simulate(SdeConfig(N=N, k=2, t_final=t, dt=1e-3, paths=200, seed=3), np.array(c))
    with pytest.raises(ValueError, match="insufficient paths"):
        density_ks_check(ens, grid_bins=5)
    # 0 and -1 raised IndexError, 2.0 TypeError, and 1 left no degrees of freedom
    for bins in (0, 1, -1, 2.0):
        with pytest.raises(ValueError, match="grid_bins must be >= 2"):
            density_ks_check(ens, grid_bins=bins)
    cfg = SdeConfig(N=6, k=3, t_final=1.0, dt=1e-2, paths=100, seed=0)
    ens = PathEnsemble(terminal_points=np.zeros((100, 3)), config=cfg, start=np.full(3, 0.1))
    with pytest.raises(ValueError, match="no closed-form density"):
        density_ks_check(ens)


def _generator_ensemble(cfg, start):
    # the stencil's snapshots at t - 2*delta and t - delta, as check_monte_carlo takes them
    delta = max(round(0.05 * round(cfg.t_final / cfg.dt)), 10) * cfg.dt
    return simulate(cfg, start, snapshot_times=(cfg.t_final - 2.0 * delta, cfg.t_final - delta))


def test_generator_moment_check_trivial_and_linear():
    cfg = SdeConfig(N=4, k=2, t_final=0.3, dt=1e-3, paths=5000, seed=17)
    ens = _generator_ensemble(cfg, np.array([0.3, 0.2]))
    lhs, rhs, _ = generator_moment_check(ens, SimplexPolynomial.constant(1.0, 2))
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs, band = generator_moment_check(ens, SimplexPolynomial.variable(0, 2))
    assert abs(lhs - rhs) <= band
    # the stencil needs exactly its two snapshots
    for times in [(), (0.2,), (0.1, 0.2, 0.25)]:
        with pytest.raises(ValueError):
            generator_moment_check(
                simulate(cfg, np.array([0.3, 0.2]), snapshot_times=times),
                SimplexPolynomial.variable(0, 2),
            )


def test_generator_moment_check_cross_term():
    cfg = SdeConfig(N=4, k=2, t_final=0.3, dt=1e-3, paths=20000, seed=19)
    ens = _generator_ensemble(cfg, np.array([0.3, 0.2]))
    lhs, rhs, band = generator_moment_check(ens, SimplexPolynomial({(1, 1): 1.0}, 2))
    assert abs(lhs - rhs) <= band
    with pytest.raises(ValueError):
        generator_moment_check(ens, SimplexPolynomial({(3, 2): 1.0}, 2))


@pytest.mark.parametrize(
    "t_final, dt, paths, times",
    [(0.4, 1e-3, 2000, (0.36, 0.38)), (0.05, 5e-3, BLOCK_PATHS + 37, (0.0, 0.02, 0.05))],
)
def test_snapshots_leave_the_terminal_points_unchanged(t_final, dt, paths, times):
    # the generator check reads snapshots of the chi-square ensemble, so they must not move it
    cfg = SdeConfig(N=4, k=2, t_final=t_final, dt=dt, paths=paths, seed=2026)
    plain = simulate(cfg, np.array([0.3, 0.2]))
    with_snapshots = simulate(cfg, np.array([0.3, 0.2]), snapshot_times=times)
    assert plain.terminal_points.tobytes() == with_snapshots.terminal_points.tobytes()
    if t_final in times:
        assert np.array_equal(with_snapshots.snapshots[t_final], plain.terminal_points)


def test_export_csv_roundtrip(tmp_path):
    from jacobi_heat.cli import main

    cfg = SdeConfig(N=3, k=2, t_final=0.2, dt=1e-3, paths=50, seed=2)
    ens = simulate(cfg, np.array([0.4, 0.3]))
    out = tmp_path / "ens.csv"
    code = main(["simulate", "--N", "3", "--k", "2", "--t", "0.2", "--c", "0.4,0.3",
                 "--paths", "50", "--dt", "1e-3", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# jacobi-heat")
    assert lines[1].startswith("#") and "seed=2" in lines[1]
    assert lines[2] == "u1,u2"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
    np.testing.assert_array_equal(data, ens.terminal_points)
