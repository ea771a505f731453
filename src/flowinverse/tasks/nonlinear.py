"""Closed-form scalar forward model with uniform priors.

d = e^2 m^3 + m exp(-|0.2 - e|) + eta, with m, e ~ U[0, 1]. The map is
strictly increasing in m, so a single noisy observation already pins the
parameter down to noise scale.
"""

from __future__ import annotations

import numpy as np

DE_GRID = np.linspace(0.0, 1.0, 101)      # designs at which de_solution evaluates the map


def nonlinear_forward(m, e):
    m = np.asarray(m, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    return e ** 2 * m ** 3 + m * np.exp(-np.abs(0.2 - e))


class NonlinearTask:
    name = "nonlinear"
    dim_m = 1
    obs_token_dim = 2          # (d_i, e_i)
    design_token_dim = 0
    sigma = 0.01               # observation noise standard deviation

    # --- dataset layout -----------------------------------------------------
    def e_width(self, n_obs):
        return n_obs

    def d_width(self, n_obs):
        return n_obs

    # --- sampling -----------------------------------------------------------
    def sample_params(self, rng, size):
        return rng.uniform(0.0, 1.0, (size, 1))

    prior_sample = sample_params

    def sample_design(self, rng, n_obs):
        return rng.uniform(0.0, 1.0, n_obs)

    def simulate_batch(self, m, e, n_obs):
        """Noise-free observations plus the per-tuple noise scale."""
        d = nonlinear_forward(m[:, :1], e)
        return d, np.full(m.shape[0], self.sigma)

    # --- network inputs -----------------------------------------------------
    def token_features(self, d, e):
        return np.stack([d, e], axis=-1), None

    # --- evaluation / inference ---------------------------------------------
    def de_solution(self, m, e_row):
        """Forward map evaluated over the fixed design grid ``DE_GRID``
        (noise-free); ``e_row`` is not used."""
        return nonlinear_forward(float(np.asarray(m).reshape(-1)[0]), DE_GRID)

    def forward_observed(self, m, e_row):
        """Noise-free observations at the designs of one tuple."""
        return nonlinear_forward(float(np.asarray(m).reshape(-1)[0]), e_row)

    def log_prior(self, m):
        m = np.asarray(m)
        return 0.0 if np.all(m >= 0.0) and np.all(m <= 1.0) else -np.inf

    def sigma_for(self, e_row):
        return self.sigma
