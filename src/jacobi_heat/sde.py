"""Euler-Maruyama simulation of the Wright-Fisher-type simplex diffusion.

The generator sum_i (1-Nu_i) d_i + sum_i (u_i-u_i^2) d_ii - sum_{i!=j}
u_iu_j d_ij carries no 1/2, so the simulated SDE has drift b_i = 1 - N u_i
and diffusion matrix sigma sigma^T = 2 a with a_ij = u_i (delta_ij - u_j).
The ensemble is the independent stochastic oracle for the spectral densities
and the only tool covering three or more projected coordinates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .heat_kernel import auto_truncation, auto_truncation_2d, cdf_1d_values, density_2d_values
from .quadrature import gauss_jacobi_rule
from .special import _require_integer, _require_positive

__all__ = [
    "SdeConfig",
    "PathEnsemble",
    "simulate",
    "density_ks_check",
]

# paths stepped together: a block's (k, BLOCK_PATHS) state and scratch arrays
# stay within one core's 2 MiB L2
BLOCK_PATHS = 1 << 14


def _whole_steps(t, dt, what):
    """The number of dt steps that reach t; refuses a t off the dt grid."""
    x = t / dt
    if not math.isfinite(x) or abs(x - round(x)) > 1e-9 * max(round(x), 1):
        raise ValueError(f"{what} {t!r} is not a whole number of steps dt = {dt!r}")
    return round(x)


@dataclass(frozen=True)
class SdeConfig:
    """Simulation request; dt must resolve t_final (dt <= t_final / 10) in whole steps."""

    N: int
    k: int
    t_final: float
    dt: float
    paths: int
    seed: int

    def __post_init__(self):
        _require_integer("N", self.N, 2)
        _require_integer("k", self.k, 1)
        if self.k > self.N - 1:
            raise ValueError(f"need k <= N-1, got N={self.N}, k={self.k}")
        _require_positive("t_final", self.t_final)
        _require_positive("dt", self.dt)
        if self.dt > self.t_final / 10.0:
            raise ValueError(f"dt = {self.dt} too coarse for t_final = {self.t_final}")
        _whole_steps(self.t_final, self.dt, "t_final")
        _require_integer("paths", self.paths, 1)
        _require_integer("seed", self.seed, 0)
        if self.seed >= 2**64:
            raise ValueError(f"seed must be below 2**64, got {self.seed!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal points (and optional intermediate snapshots) of a simulation from start."""

    terminal_points: np.ndarray  # shape (paths, k)
    config: SdeConfig
    start: np.ndarray  # shape (k,)
    snapshots: dict = field(default_factory=dict)  # time -> (paths, k) array


def _normals(rng, out):
    """Fill out with standard normals from the generator's ziggurat sampler."""
    rng.standard_normal(out=out)
    return out


def _diffusion_increment(u, z, sqrt2dt, out, work):
    """Apply the closed-form lower-triangular factor of u(diag - u u^T) to z.

    Rows index coordinates, columns index paths.  With q_j = 1 - u_1 - ...
    - u_j (q_0 = 1), the factor is L_ii = sqrt(u_i q_i / q_{i-1}) and
    L_ij = -u_i sqrt(u_j / (q_j q_{j-1})) for j < i.  The column factor
    depends on j only, so the off-diagonal part of row i is -u_i times a
    running prefix sum; degenerate pivots near the boundary are clamped
    at 1e-14.  The result goes to out (shape of u); work is a (4, paths)
    scratch array, so a step allocates nothing.
    """
    k = u.shape[0]
    q_prev, q_i, prefix, tmp = work
    q_prev.fill(1.0)
    prefix.fill(0.0)
    for i in range(k):
        np.subtract(q_prev, u[i], out=q_i)
        np.clip(q_i, 1e-14, None, out=q_i)
        np.multiply(u[i], q_i, out=tmp)
        tmp /= q_prev
        np.sqrt(tmp, out=tmp)
        np.multiply(tmp, z[i], out=out[i])
        if i:
            np.multiply(u[i], prefix, out=tmp)
            out[i] -= tmp
        if i + 1 < k:
            np.multiply(q_i, q_prev, out=tmp)
            np.divide(u[i], tmp, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp *= z[i]
            prefix += tmp
        q_prev, q_i = q_i, q_prev
    out *= sqrt2dt
    return out


def _simulate_block(cfg, start, rng, n, n_steps, dests):
    """Step n paths from start through every step.

    dests maps a step to the (n, k) arrays that receive the state after it.
    """
    # coordinates as rows: every per-step reduction then runs over contiguous memory
    u = np.tile(start[:, None], (1, n))
    z = np.empty_like(u)
    noise = np.empty_like(u)
    work = np.empty((4, n))
    total = np.empty(n)
    over = np.empty(n, dtype=bool)
    sqrt2dt = math.sqrt(2.0 * cfg.dt)
    drift_scale = 1.0 - cfg.N * cfg.dt
    for dest in dests.get(0, ()):
        dest[...] = u.T
    for step in range(1, n_steps + 1):
        _diffusion_increment(u, _normals(rng, z), sqrt2dt, noise, work)
        u *= drift_scale
        u += cfg.dt
        u += noise
        np.clip(u, 0.0, None, out=u)
        u.sum(axis=0, out=total)
        np.greater(total, 1.0, out=over)
        if over.any():
            u[:, over] /= total[over]
        # NaNs persist once present, so a sparse check still localizes the blowup
        if (step % 64 == 0 or step in dests) and not np.all(np.isfinite(u)):
            raise RuntimeError(f"simulation diverged (NaN/inf) by step {step}")
        for dest in dests.get(step, ()):
            dest[...] = u.T


def simulate(cfg, start, snapshot_times=()):
    """Run the Euler-Maruyama scheme from a common start point.

    start: point of the closed simplex (length k)
    snapshot_times: times at which copies of the ensemble are recorded, each
        a whole number of steps dt

    Coordinates are clamped at 0 after every step and the state is rescaled
    onto the simplex whenever the coordinates sum above 1.  The ensemble is
    stepped in blocks of BLOCK_PATHS paths, each through every step before
    the next starts, so a block's state stays in cache.  Block b draws its
    normals from an SFC64 generator seeded by SeedSequence(seed,
    spawn_key=(b,)), the b-th child of SeedSequence(seed).spawn, so a path
    depends only on the configuration, its block and its place in the
    block: results are bit-identical for identical configurations, and the
    first BLOCK_PATHS paths of any larger ensemble are the BLOCK_PATHS-path
    one.  The spawn key is hashed apart from the seed, so distinct (seed,
    block) pairs get distinct streams; SeedSequence((seed, b)) would not
    guarantee that, since it pads short entropy with zero words.
    """
    start = np.array(start, dtype=float)
    if start.shape != (cfg.k,):
        raise ValueError(f"start must have shape ({cfg.k},), got {start.shape}")
    if not (np.all(start >= 0.0) and start.sum() <= 1.0 + 1e-12):
        raise ValueError(f"start {start} outside the closed simplex")

    n_steps = _whole_steps(cfg.t_final, cfg.dt, "t_final")
    terminal = np.empty((cfg.paths, cfg.k))
    snapshots = {}
    dests = {n_steps: [terminal]}  # step -> arrays that receive the state after it
    for ts in snapshot_times:
        step = _whole_steps(ts, cfg.dt, "snapshot time")
        if not (0 <= step <= n_steps):
            raise ValueError(f"snapshot time {ts} outside [0, t_final]")
        snapshots[ts] = np.empty((cfg.paths, cfg.k))
        dests.setdefault(step, []).append(snapshots[ts])
    for b, lo in enumerate(range(0, cfg.paths, BLOCK_PATHS)):
        hi = min(lo + BLOCK_PATHS, cfg.paths)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.SFC64(seq))
        block_dests = {step: [a[lo:hi] for a in arrays] for step, arrays in dests.items()}
        _simulate_block(cfg, start, rng, hi - lo, n_steps, block_dests)
    return PathEnsemble(terminal_points=terminal, config=cfg, start=start, snapshots=snapshots)


def density_ks_check(ens, grid_bins=5):
    """Goodness-of-fit statistic of an ensemble against its own law f_t(c, .).

    N, t = config.t_final and c = start come from the ensemble, and the series
    is cut where its certified tail falls below 1e-10.  k = 1: the
    Kolmogorov-Smirnov statistic between the empirical terminal CDF and the
    series' closed-form CDF, which is within 1e-10/(N-1) of the exact one.
    k = 2: Pearson's chi-square over grid_bins^2 cells (grid_bins >= 2) of
    the square (u1, u2/(1-u1)), with expected counts from one density call on
    every cell's 8x8 Gauss-Legendre nodes; cells with expected count below 5
    make the check refuse.
    """
    _require_integer("grid_bins", grid_bins, 2)
    k, N, t = ens.config.k, ens.config.N, ens.config.t_final
    pts = ens.terminal_points
    n = len(pts)
    if k == 1:
        xs = np.sort(pts[:, 0])
        cdf = cdf_1d_values(t, ens.start[0], xs, N, auto_truncation(t, N, 1e-10))
        i = np.arange(1, n + 1)
        return float(np.max(np.maximum(np.abs(i / n - cdf), np.abs((i - 1) / n - cdf))))
    if k == 2:
        rule = gauss_jacobi_rule(8, 0.0, 0.0)
        edges = np.linspace(0.0, 1.0, grid_bins + 1)
        width = edges[1] - edges[0]
        y = (edges[:-1, None] + width * rule.nodes).ravel()  # the nodes of every bin, bin-major
        u1 = np.repeat(y, len(y))
        cell_pts = np.column_stack([u1, (1.0 - u1) * np.tile(y, len(y))])
        f = density_2d_values(t, ens.start, cell_pts, N, auto_truncation_2d(t, N, 1e-10))
        f *= 1.0 - u1  # the Jacobian of u2 = (1-u1) y
        f = f.reshape(grid_bins, 8, grid_bins, 8)
        expected = width * width * np.einsum("a,iajb,b->ij", rule.weights, f, rule.weights)
        expected *= n
        if np.any(expected < 5.0):
            raise ValueError(
                f"insufficient paths: smallest expected cell count is {expected.min():.2f}"
            )
        x_emp = pts[:, 0]
        rem = np.clip(1.0 - x_emp, 1e-300, None)
        y_emp = np.clip(pts[:, 1] / rem, 0.0, 1.0 - 1e-15)
        ix = np.clip((x_emp / width).astype(int), 0, grid_bins - 1)
        iy = np.clip((y_emp / width).astype(int), 0, grid_bins - 1)
        observed = np.zeros((grid_bins, grid_bins))
        np.add.at(observed, (ix, iy), 1.0)
        return float(np.sum((observed - expected) ** 2 / expected))
    raise ValueError(f"no closed-form density for k = {k}")
