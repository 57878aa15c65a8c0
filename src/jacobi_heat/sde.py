"""Weak Euler simulation of the Wright-Fisher-type simplex diffusion.

The generator sum_i (1-Nu_i) d_i + sum_i (u_i-u_i^2) d_ii - sum_{i!=j}
u_iu_j d_ij carries no 1/2, so the simulated SDE has drift b_i = 1 - N u_i
and diffusion matrix sigma sigma^T = 2 a with a_ij = u_i (delta_ij - u_j).
The ensemble is the independent stochastic oracle for the spectral densities
and the only tool covering three or more projected coordinates.

The noise factor is a closed-form square root of a: with v = sqrt(u) and
q = 1 - sum(u), (I - alpha v v^T)^2 = I - v v^T iff alpha (1 + sqrt(q)) = 1
or alpha (1 - sqrt(q)) = 1, so L = diag(v) (I - v v^T / (1 + sqrt(q))) has
L L^T = a for every k and divides by no pivot that vanishes on the boundary
(see _diffusion_increment).

The scheme is the simplified weak Euler scheme (Kloeden & Platen, Numerical
Solution of SDEs, 1992, sections 14.1-14.2): the Gaussian increments of
Euler-Maruyama are replaced by independent three-point variables, -a and +a
with probability 43/256 each and 0 with probability 170/256, a^2 = 128/43.
A weak scheme needs only the moments of its increments.  This law is
symmetric, so every odd moment is 0, and E z^2 = 86 a^2 / 256 = 1 exactly;
these are the simplified scheme's conditions for weak order 1, so the global
weak error stays C dt (Talay & Tubaro, Stoch. Anal. Appl. 8 (1990) 483).
Only the constant C differs from the Gaussian step's, by a term proportional
to E z^4 - 3 = 128/43 - 3 = -0.023; the two-point law +-1 would move it by
E z^4 - 3 = -2.  The law costs one raw byte per increment (see _normals).
Block b of BLOCK_PATHS paths draws its increments from its own SFC64 stream,
keyed by SeedSequence(seed, spawn_key=(b,)) (see simulate).
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


# the increment law by byte: 0..42 -> -a, 43..85 -> +a, 86..255 -> 0, a^2 = 128/43
_BYTE_LAW = np.repeat([-math.sqrt(128.0 / 43.0), math.sqrt(128.0 / 43.0), 0.0], [43, 43, 170])


def _normals(rng, out):
    """Fill out with three-point increments, the normals of the weak scheme.

    One call rng.bit_generator.random_raw(ceil(out.size / 8)) draws raw
    64-bit words; their bytes, least significant first, map through
    _BYTE_LAW in C order: -a and +a with probability 43/256 each, 0 with
    170/256, a^2 = 128/43, so E z = E z^3 = 0, E z^2 = 1 and E z^4 = 128/43.
    A raw byte costs a fraction of a bounded-integer draw, which needs a
    rejection loop.  The seeded validate reports were verified on exactly
    this stream.  The name stays from the Gaussian scheme: the increments
    stand in for standard normals, and the benchmark tracer times this
    function as the normal draw.
    """
    words = rng.bit_generator.random_raw(-(-out.size // 8))
    # little-endian on every host, so the stream does not depend on the machine
    raw = words.astype("<u8", copy=False).view(np.uint8)[: out.size]
    # out is C-contiguous, so reshape is a view; every index is in range, and
    # mode="clip" spares the buffered copy of out that mode="raise" makes
    np.take(_BYTE_LAW, raw, out=out.reshape(-1), mode="clip")
    return out


def _diffusion_increment(u, z, sqrt2dt, out, work):
    """Apply a closed-form square root L of diag(u) - u u^T to z.

    Rows index coordinates, columns index paths.  With v = sqrt(u) and
    q = 1 - sum(u) = 1 - |v|^2, diag(u) - u u^T = D (I - v v^T) D for
    D = diag(v), and (I - alpha v v^T)^2 = I - (2 alpha - alpha^2 (1 - q)) v v^T
    is I - v v^T iff alpha (1 + sqrt(q)) = 1 or alpha (1 - sqrt(q)) = 1.  The
    first root gives L z = sqrt(u) z - u (sqrt(u) . z) / (1 + sqrt(q)) for
    every k (sqrt(u (1 - u)) z at k = 1).  Its only division is by
    1 + sqrt(q) >= 1, q clamped at 0 where rounding puts sum(u) above 1, so
    unlike a Cholesky factor it divides by no pivot that vanishes on the
    boundary.  The result goes to out (shape of u); work is a (2, paths)
    scratch array, and z is overwritten with sqrt(u) z, so a step allocates
    nothing.
    """
    dot, denom = work
    u.sum(axis=0, out=denom)
    np.subtract(1.0, denom, out=denom)
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    denom += 1.0
    np.sqrt(u, out=out)
    z *= out
    z.sum(axis=0, out=dot)
    dot /= denom
    np.multiply(u, dot, out=out)
    np.subtract(z, out, out=out)
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
    work = np.empty((2, n))
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
        np.maximum(u, 0.0, out=u)
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
    """Run the simplified weak Euler scheme from a common start point.

    start: point of the closed simplex (length k)
    snapshot_times: times at which copies of the ensemble are recorded, each
        a whole number of steps dt

    Coordinates are clamped at 0 after every step and the state is rescaled
    onto the simplex whenever the coordinates sum above 1.  The ensemble is
    stepped in blocks of BLOCK_PATHS paths, each through every step before
    the next starts, so a block's state stays in cache.  Each step's
    increments are independent three-point variables (+-a with probability
    43/256 each, 0 with probability 170/256, a^2 = 128/43): odd moments 0,
    E z^2 = 1 and E z^4 = 128/43, so the scheme keeps weak order 1 and only
    the constant of its O(dt) error moves from the Gaussian scheme's (see
    the module docstring).
    Block b draws them from an SFC64 generator seeded by SeedSequence(seed,
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
    k >= 2: Pearson's chi-square of the (u1, u2) coordinates, whose law is
    the 2-D density from start[:2] for every k, over grid_bins^2 cells
    (grid_bins >= 2) of the square (u1, u2/(1-u1)), with expected counts from
    one density call on every cell's 8x8 Gauss-Legendre nodes; cells with
    expected count below 5 make the check refuse.
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
    rule = gauss_jacobi_rule(8, 0.0, 0.0)
    edges = np.linspace(0.0, 1.0, grid_bins + 1)
    width = edges[1] - edges[0]
    y = (edges[:-1, None] + width * rule.nodes).ravel()  # the nodes of every bin, bin-major
    u1 = np.repeat(y, len(y))
    cell_pts = np.column_stack([u1, (1.0 - u1) * np.tile(y, len(y))])
    f = density_2d_values(t, ens.start[:2], cell_pts, N, auto_truncation_2d(t, N, 1e-10))
    f *= 1.0 - u1  # the Jacobian of u2 = (1-u1) y
    f = f.reshape(grid_bins, 8, grid_bins, 8)
    expected = width * width * np.einsum("a,iajb,b->ij", rule.weights, f, rule.weights)
    expected *= n
    if np.any(expected < 5.0):
        raise ValueError(f"insufficient paths: smallest expected cell count {expected.min():.2f}")
    x_emp = pts[:, 0]
    rem = np.clip(1.0 - x_emp, 1e-300, None)
    y_emp = np.clip(pts[:, 1] / rem, 0.0, 1.0 - 1e-15)
    ix = np.clip((x_emp / width).astype(int), 0, grid_bins - 1)
    iy = np.clip((y_emp / width).astype(int), 0, grid_bins - 1)
    observed = np.zeros((grid_bins, grid_bins))
    np.add.at(observed, (ix, iy), 1.0)
    return float(np.sum((observed - expected) ** 2 / expected))
