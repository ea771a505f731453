"""Steady Darcy flow on the unit square with a log-normal permeability prior.

The log-permeability is a Gaussian random field with squared-exponential
covariance, reduced to its 16 leading Karhunen-Loeve modes; the inverse
problem recovers the mode coefficients from a handful of interior pressure
measurements. Pressure is driven by Gaussian bumps of opposite sign on the
x = 0 and x = 1 boundaries, centered at the design parameters (e1, e2).

Discretization: vertex-centered finite volumes on a uniform 65x65 grid with
harmonic-mean face transmissibilities (flux-conservative, second order on
smooth fields) and homogeneous Neumann conditions on the y = 0, 1 sides,
along which the x-faces are half width. The unknowns are the (n-2)*n nodes
(r, j) off the Dirichlet lines x = 0, 1, whose 5-point flux balance has the
boundary pressure times the first and last x-face transmissibilities on its
right. It couples only nodes of opposite parity of r + j, so the red nodes
(r + j even) are eliminated exactly, u_r = (b_r + sum t u_b) / D_r, leaving
the SPD Schur complement S = D_b - A_br D_r^-1 A_rb on the black nodes: a
9-point operator coupling (r, j+-2), (r+-2, j) and (r+-1, j+-1), whose
products are formed as t * (t / D) so that small permeabilities do not
underflow. One banded Cholesky solve takes its lower band, of width n
(offsets 1, (n-1)/2, (n+1)/2 and n on odd grids), stored (n+1, N_black).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

KL_CACHE_VERSION = 2


@dataclass(frozen=True)
class DarcyConstants:
    n_grid: int = 65            # nodes per side; h = 1/(n_grid-1)
    sigma_w: float = 0.05       # boundary bump width parameter
    sigma_v: float = 1.0        # kernel standard deviation
    ell2: float = 0.1           # kernel squared length-scale
    n_modes: int = 16

    def __post_init__(self):
        if self.n_grid < 3:
            raise ValueError(f"n_grid must be at least 3, got {self.n_grid}")
        if not 1 <= self.n_modes <= self.n_grid ** 2:
            raise ValueError(f"n_modes must lie in [1, n_grid**2], got {self.n_modes}")

    @property
    def h(self):
        return 1.0 / (self.n_grid - 1)


CONST = DarcyConstants()


# ---------------------------------------------------------------------------
# Karhunen-Loeve basis of the log-permeability prior
# ---------------------------------------------------------------------------

class KLBasis:
    """Leading eigenpairs of the covariance operator on the solver grid.

    ``eigenvalues`` are those of the h^2-weighted kernel matrix (so they sum
    toward the integral-operator trace); ``modes`` holds eigenfunctions
    normalized to sum(phi^2) * h^2 = 1, flattened over grid nodes.
    """

    def __init__(self, eigenvalues, modes, const: DarcyConstants, trace: float):
        self.eigenvalues = eigenvalues          # (n_modes,) descending
        self.modes = modes                      # (n_modes, n_grid*n_grid)
        self.const = const
        self.trace = float(trace)
        self.scaled_modes = (modes * np.sqrt(eigenvalues)[:, None])

    @property
    def captured_fraction(self):
        return float(self.eigenvalues.sum() / self.trace)


def _cache_path(const, cache_dir):
    cache_dir = cache_dir or os.environ.get("FLOWINVERSE_CACHE")
    if not cache_dir:
        return None
    tag = f"kl_n{const.n_grid}_sv{const.sigma_v:g}_l2{const.ell2:g}_m{const.n_modes}_v{KL_CACHE_VERSION}"
    return os.path.join(cache_dir, tag + ".npz")


def kl_basis_build(const: DarcyConstants = CONST, cache_dir=None) -> KLBasis:
    """Leading eigenpairs of the covariance operator. With a ``cache_dir``, or
    else ``$FLOWINVERSE_CACHE``, they are disk-cached by (grid, sigma_v, ell^2,
    n_modes) and the cache format version; with neither, built in memory.

    The kernel separates in x and y, so the h^2-weighted grid matrix is the
    Kronecker square of the h-weighted 1-D matrix K1, and mode kron(u_a, u_b)
    has eigenvalue lam_a * lam_b. Ordering modes by (-lam, a, b) and giving
    each u_a a positive entry at x = 0 pins degenerate pairs such as (a, b)
    and (b, a), so every build gives the same basis.
    """
    path = _cache_path(const, cache_dir)
    if path is not None and os.path.exists(path):
        with np.load(path) as z:
            if int(z["version"]) == KL_CACHE_VERSION:
                return KLBasis(z["eigenvalues"], z["modes"], const, float(z["trace"]))
    xs = np.linspace(0.0, 1.0, const.n_grid)
    k1 = const.sigma_v * const.h * np.exp(-(xs[:, None] - xs[None, :]) ** 2 / (2.0 * const.ell2))
    lam, u = np.linalg.eigh(k1)
    lam, u = lam[::-1], u[:, ::-1]
    u = u * np.where(u[0] < 0.0, -1.0, 1.0)
    a, b = np.indices(k1.shape).reshape(2, -1)
    prod = np.outer(lam, lam).ravel()
    top = np.lexsort((b, a, -prod))[:const.n_modes]
    a, b = a[top], b[top]
    vals = np.maximum(prod[top], 0.0)
    modes = (u[:, a].T[:, :, None] * u[:, b].T[:, None, :]).reshape(const.n_modes, -1) / const.h
    trace = lam.sum() ** 2
    if path is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.npz"
        np.savez(tmp, version=KL_CACHE_VERSION, eigenvalues=vals, modes=modes, trace=trace)
        os.replace(tmp, path)
    return KLBasis(vals, modes, const, trace)


def kl_expand(m, basis: KLBasis) -> np.ndarray:
    """Log-permeability field (n, n) from the (n_modes,) mode coefficients."""
    n = basis.const.n_grid
    return (np.asarray(m, dtype=np.float64) @ basis.scaled_modes).reshape(n, n)


# ---------------------------------------------------------------------------
# finite-volume solver
# ---------------------------------------------------------------------------

class SolverError(FloatingPointError):
    """A permeability the finite-volume solve cannot handle numerically."""


@functools.lru_cache(maxsize=None)
def _red_black(n):
    """Flat red and black indices of the (n-2, n) free grid, and where each
    entry of the black lower band comes from in ``_solve_dirichlet``'s stacked
    (5, n-2, n) couplings (``src``) and goes in the flat band (``dst``)."""
    black = np.indices((n - 2, n)).sum(0) % 2 == 1
    idx = np.full((n, n + 3), -1)           # black number at (r, j + 1); -1 elsewhere
    idx[:n - 2, 1:-2][black] = p = np.arange(black.sum())
    src, dst = [], []
    for k, (dr, dj) in enumerate([(0, 0), (0, 2), (2, 0), (1, 1), (1, -1)]):
        q = idx[dr:dr + n - 2, 1 + dj:1 + dj + n][black]
        src.append(k * black.size + np.flatnonzero(black)[q >= 0])
        dst.append((p * (n + 1) + q - p)[q >= 0])
    maps = np.flatnonzero(~black), np.flatnonzero(black), np.concatenate(src), np.concatenate(dst)
    for a in maps:
        a.flags.writeable = False           # one map per grid size, shared by every solve
    return maps


def _solve_dirichlet(kappa, left_vals, right_vals):
    """Solve the FV system with explicit Dirichlet data on x = 0 (left) and
    x = 1 (right); homogeneous Neumann on the y sides. The red nodes are
    eliminated and the black Schur complement is Cholesky-factored in band."""
    kappa = np.asarray(kappa, dtype=np.float64)
    if np.any(kappa <= 0) or not np.isfinite(kappa).all():
        raise SolverError("permeability must be positive and finite everywhere")
    n = kappa.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):      # bad faces are rejected below
        tx = 2.0 * kappa[:-1] * kappa[1:] / (kappa[:-1] + kappa[1:])     # (n-1, n) x-faces
        tx[:, [0, -1]] *= 0.5
        ty = np.zeros((n - 2, n))       # y-face above each free node; none above y = 1
        k, k_up = kappa[1:-1, :-1], kappa[1:-1, 1:]
        ty[:, :-1] = 2.0 * k * k_up / (k + k_up)
    if not all(((t > 0) & (t < np.inf)).all() for t in (tx, ty[:, :-1])):
        raise SolverError("face transmissibilities overflow or underflow for permeability "
                          f"in [{kappa.min():.3g}, {kappa.max():.3g}]")
    t = np.zeros((4, n - 2, n))         # each free node's faces to its W, E, S, N neighbours
    t[0], t[1], t[2, :, 1:], t[3] = tx[:-1], tx[1:], ty[:, :-1], ty
    (W, E, S, N), d = t, t.sum(0)

    def at(a, dr, dj):                  # a, padded by one zero node, at each (r+dr, j+dj)
        return a[..., 1 + dr:n - 1 + dr, 1 + dj:n + 1 + dj]

    frame = np.zeros((5, n, n + 2))     # zero off the free grid
    frame[:4, 1:-1, 1:-1] = t / d
    g, v = frame[:4], frame[4]          # each face's t / D, read at its red end; inflow's grid

    def inflow(nodes):                  # sum over the faces of t * nodes at the neighbour
        v[1:-1, 1:-1] = nodes
        return W * at(v, -1, 0) + E * at(v, 1, 0) + S * at(v, 0, -1) + N * at(v, 0, 1)

    c = np.stack([d - W * at(g[1], -1, 0) - E * at(g[0], 1, 0) - S * at(g[3], 0, -1)
                  - N * at(g[2], 0, 1),                                     # diagonal
                  -N * at(g[3], 0, 1),                                      # (r, j+2)
                  -E * at(g[1], 1, 0),                                      # (r+2, j)
                  -N * at(g[1], 0, 1) - E * at(g[3], 1, 0),                 # (r+1, j+1)
                  -S * at(g[1], 0, -1) - E * at(g[2], 1, 0)])               # (r+1, j-1)
    red, black, src, dst = _red_black(n)
    band = np.zeros(black.size * (n + 1))    # its transpose is the LAPACK layout
    band[dst] = c.ravel()[src]
    b = np.zeros((n - 2, n))
    b[0] = W[0] * left_vals
    b[-1] += E[-1] * right_vals
    rhs = (b + inflow(b / d)).ravel()[black]
    try:
        x = solveh_banded(band.reshape(black.size, n + 1).T, rhs, overwrite_ab=True,
                          overwrite_b=True, lower=True, check_finite=False)
    except LinAlgError as err:
        raise SolverError(f"banded Cholesky factorisation failed: {err}") from err
    u = np.zeros((n, n))
    u[0], u[-1] = left_vals, right_vals
    free = u[1:-1].reshape(-1)          # a view
    free[black] = x
    free[red] = (b + inflow(u[1:-1])).ravel()[red] / d.ravel()[red]
    return u


def boundary_profiles(e1, e2):
    ys = np.linspace(0.0, 1.0, CONST.n_grid)
    f = np.exp(-((ys - e1) ** 2) / (2.0 * CONST.sigma_w))
    g = -np.exp(-((ys - e2) ** 2) / (2.0 * CONST.sigma_w))
    return f, g


def darcy_solve(kappa, e1, e2):
    """Pressure field for a permeability ``kappa`` on the ``CONST`` grid and
    boundary designs (e1, e2)."""
    if not (0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0):
        raise ValueError(f"design parameters must lie in [0, 1], got ({e1}, {e2})")
    f, g = boundary_profiles(e1, e2)
    return _solve_dirichlet(kappa, f, g)


def darcy_observe(u, points):
    """Bilinear interpolation of the pressure field at interior points."""
    u = np.asarray(u)
    n = u.shape[0]
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if np.any(pts <= 0.0) or np.any(pts >= 1.0):
        raise ValueError("measurement points must lie strictly inside the unit square")
    h = 1.0 / (n - 1)
    fx = pts[:, 0] / h
    fy = pts[:, 1] / h
    i = np.minimum(fx.astype(int), n - 2)
    j = np.minimum(fy.astype(int), n - 2)
    wx = fx - i
    wy = fy - j
    return (u[i, j] * (1 - wx) * (1 - wy) + u[i + 1, j] * wx * (1 - wy)
            + u[i, j + 1] * (1 - wx) * wy + u[i + 1, j + 1] * wx * wy)


class DarcyTask:
    name = "darcy"
    dim_m = 16
    obs_token_dim = 3          # (d_i, x_i, y_i)
    design_token_dim = 2       # (e1, e2)
    sigma = 0.01               # noise relative to each design's max|u| (see sigma_for)

    def __init__(self):
        self._basis = None

    @property
    def basis(self) -> KLBasis:
        if self._basis is None:
            self._basis = kl_basis_build()
        return self._basis

    def e_width(self, n_obs):
        return 2 + 2 * n_obs    # (e1, e2, x1, y1, ..., xn, yn)

    def d_width(self, n_obs):
        return n_obs

    def sample_params(self, rng, size):
        return rng.normal(0.0, 1.0, (size, self.dim_m))

    prior_sample = sample_params

    def sample_design(self, rng, n_obs):
        h = CONST.h
        e12 = rng.uniform(0.0, 1.0, 2)
        pts = rng.uniform(h, 1.0 - h, (n_obs, 2))
        return np.concatenate([e12, pts.ravel()])

    def _solve_row(self, m, e_row):
        kappa = np.exp(kl_expand(m, self.basis))
        return darcy_solve(kappa, float(e_row[0]), float(e_row[1]))

    def simulate_batch(self, m, e, n_obs):
        B = m.shape[0]
        d = np.empty((B, n_obs))
        scale = np.empty(B)
        for i in range(B):
            d[i] = self.forward_observed(m[i], e[i])
            scale[i] = self.sigma_for(e[i])
        return d, scale

    def token_features(self, d, e):
        B, n = d.shape
        pts = e[:, 2:].reshape(B, n, 2)
        return np.concatenate([d[..., None], pts], axis=-1), e[:, None, :2]

    def de_solution(self, m, e_row):
        return self._solve_row(m, e_row).reshape(-1)

    def forward_observed(self, m, e_row):
        n_obs = (len(e_row) - 2) // 2
        u = self._solve_row(m, e_row)
        return darcy_observe(u, e_row[2:].reshape(n_obs, 2))

    def log_prior(self, m):
        m = np.asarray(m, dtype=np.float64)
        return float(-0.5 * np.dot(m, m))

    def sigma_for(self, e_row):
        """Noise scale consistent with generation: sigma * max|u|.

        By the discrete maximum principle max|u| equals the largest boundary
        magnitude, which depends only on the design, not on the field.
        """
        f, g = boundary_profiles(float(e_row[0]), float(e_row[1]))
        return self.sigma * max(np.abs(f).max(), np.abs(g).max())
