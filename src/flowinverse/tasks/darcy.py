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
off the Dirichlet lines x = 0, 1, row-major in x; their flux balance is a
symmetric positive definite 5-diagonal matrix (offsets -n, -1, 0, 1, n), and
the boundary pressure times the first and last x-face transmissibilities is
its right-hand side. One banded Cholesky solve takes its lower band, stored
(n+1, (n-2)*n) with the diagonal in row 0, -ty in row 1 and -tx in row n.
"""

from __future__ import annotations

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


def _solve_dirichlet(kappa, left_vals, right_vals):
    """Solve the FV system with explicit Dirichlet data on x = 0 (left) and
    x = 1 (right); homogeneous Neumann on the y sides."""
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
    ab = np.zeros((n + 1, (n - 2) * n), order="F")    # lower band, LAPACK layout
    ab[0] = (tx[1:] + tx[:-1] + ty).ravel()
    ab[1] = -ty.ravel()                 # 0 at a row's last node: no face above y = 1
    ab[0, 1:] -= ab[1, :-1]             # add the y-face below
    ab[n, :-n] = -tx[1:-1].ravel()
    b = np.zeros(ab.shape[1])
    b[:n] = tx[0] * left_vals
    b[-n:] += tx[-1] * right_vals
    try:
        x = solveh_banded(ab, b, overwrite_ab=True, overwrite_b=True, lower=True, check_finite=False)
    except LinAlgError as err:
        raise SolverError(f"banded Cholesky factorisation failed: {err}") from err
    u = np.empty((n, n))
    u[0], u[1:-1], u[-1] = left_vals, x.reshape(n - 2, n), right_vals
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

    def __init__(self, sigma: float = 0.01):
        """``sigma`` is the noise level relative to the largest boundary
        magnitude of each design (see ``sigma_for``)."""
        self.sigma = float(sigma)
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
