"""SEIR epidemic dynamics with time-dependent transmission and removal rates.

The six inferred rates are [beta1, alpha, gamma_r, gamma_d1, beta2, gamma_d2],
each uniform on [0, 1]. Transmission and death rates switch around t = tau
with weight (1 + tanh(7(t - tau))) / 2, which moves them monotonically from
their initial to their final values and keeps them non-negative on the whole
prior box; the paper's printed weight tanh(7(t - tau)) / 2 admits negative
rates, which make the quadratic dynamics diverge for some prior draws.

Observations are (I, R) read at a handful of times in [1, 3].

One fixed-step RK4 kernel, ``_integrate``, serves every path: a single rate
vector runs it in Python floats (MH, ``de_solution``, each row of a small
batch), appending each step's state to one flat list that becomes an array
once at the end; a larger (B, 6) batch runs on columns (data generation) and
writes each step into a preallocated array. Both give bitwise equal results.
``_read`` interpolates the steps linearly; ``simulate_batch`` and
``forward_observed`` integrate only up to their last time, ``seir_solve``
(one rate vector) always over [0, t_end].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeirConstants:
    tau: float = 2.1
    t_end: float = 4.0
    s0: float = 99.0
    e0: float = 1.0
    i0: float = 0.0
    r0: float = 0.0
    dt: float = 1.0 / 256.0


CONST = SeirConstants()
N_STEPS = int(round(CONST.t_end / CONST.dt))

TRUE_RATES = np.array([0.4, 0.3, 0.3, 0.1, 0.15, 0.6])
DE_GRID = np.linspace(0.0, CONST.t_end, 256)    # times at which de_solution reads the states


def _ramp(t, tau):
    return (1.0 + np.tanh(7.0 * (np.asarray(t, dtype=np.float64) - tau))) / 2.0


def _ramp_tables():
    ts = np.arange(N_STEPS + 1) * CONST.dt
    full = _ramp(ts, CONST.tau)
    half = _ramp(ts[:-1] + CONST.dt / 2.0, CONST.tau)
    return full.tolist(), half.tolist()


# Python floats, so that the single-vector loop stays in plain float arithmetic
_RAMP = _ramp_tables()


def _integrate(m, n_steps=N_STEPS):
    """Classical RK4 from t = 0 over n_steps fixed steps of length dt.

    A 6-vector m runs in Python floats and returns (n_steps+1, 4); a (B, 6)
    batch runs on its columns and returns (n_steps+1, 4, B). Both run the
    same operations in the same order, so each batch row equals the single
    vector's result bitwise.
    """
    m = np.asarray(m, dtype=np.float64)
    single = m.ndim == 1
    b1, al, gr, gd1, b2, gd2 = m.tolist() if single else np.ascontiguousarray(m.T)
    db, dg, g0 = b2 - b1, gd2 - gd1, gr + gd1
    dt, h2, h6 = CONST.dt, CONST.dt / 2, CONST.dt / 6
    s_full, s_half = _RAMP
    S, E, I, R = CONST.s0, CONST.e0, CONST.i0, CONST.r0
    flat = [S, E, I, R]
    if not single:
        state = np.empty((n_steps + 1, 4) + m.shape[:-1])
        state[0] = np.reshape(flat, (4, 1))
    # Stage j has infection flux x_j = -dS/dt, dE/dt e_j, dI/dt i_j and dR/dt
    # g_j; the end-of-step rates (bf, gf) start the next step. "S - h * x" is
    # bitwise "S + h * (-x)": rounding is sign-symmetric.
    bf, gf = b1 + s_full[0] * db, g0 + s_full[0] * dg
    for k, sh, sf in zip(range(1, n_steps + 1), s_half, s_full[1:]):
        x1, aE, g1 = bf * S * I, al * E, gf * I
        e1, i1 = x1 - aE, aE - g1
        beta, gam = b1 + sh * db, g0 + sh * dg
        Sj, Ej, Ij = S - h2 * x1, E + h2 * e1, I + h2 * i1
        x2, aE, g2 = beta * Sj * Ij, al * Ej, gam * Ij
        e2, i2 = x2 - aE, aE - g2
        Sj, Ej, Ij = S - h2 * x2, E + h2 * e2, I + h2 * i2
        x3, aE, g3 = beta * Sj * Ij, al * Ej, gam * Ij
        e3, i3 = x3 - aE, aE - g3
        bf, gf = b1 + sf * db, g0 + sf * dg
        Sj, Ej, Ij = S - dt * x3, E + dt * e3, I + dt * i3
        x4, aE, g4 = bf * Sj * Ij, al * Ej, gf * Ij
        e4, i4 = x4 - aE, aE - g4
        S = S - h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        E = E + h6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        I = I + h6 * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        R = R + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        if single:
            flat.extend((S, E, I, R))
        else:
            state[k] = S, E, I, R
    if single:
        state = np.array(flat).reshape(-1, 4)
    bad = ~np.isfinite(state).all(axis=1).reshape(n_steps + 1, -1)
    if bad.any():
        k_bad, b_bad = np.argwhere(bad)[0]
        raise FloatingPointError(f"SEIR state became non-finite at t={k_bad * dt:.4f} "
                                 f"for m={m.reshape(-1, 6)[b_bad].tolist()}")
    return state


def _read(state, times):
    """States linearly interpolated between RK4 steps.

    times (n_t,) against a single (steps+1, 4) state gives (n_t, 4); times
    (B, n_t) against a (steps+1, 4, B) batch gives (B, n_t, 4).
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0) or np.any(times > CONST.t_end + 1e-12):
        raise ValueError(f"requested times outside [0, {CONST.t_end}]")
    pos = times / CONST.dt
    k = np.minimum(pos.astype(int), len(state) - 2)
    w = (pos - k)[..., None]
    if state.ndim == 2:
        lo, hi = state[k], state[k + 1]
    else:
        rows = np.arange(state.shape[2])[:, None]
        lo, hi = state[k, :, rows], state[k + 1, :, rows]
    return lo * (1.0 - w) + hi * w


def seir_solve(m, t_grid):
    """States (S, E, I, R) of one 6-vector of rates at the times of the 1-d
    ``t_grid`` in [0, t_end], linearly interpolated between fixed RK4 steps
    over the full span; returns (len(t_grid), 4)."""
    return _read(_integrate(m), t_grid)


# Below this many rows a batch runs row by row in Python floats: the column
# kernel pays about 90 numpy calls per step whatever B is. simulate_batch at
# n_obs 5, one BLAS thread on a 2-CPU AMD EPYC guest, median of 9, rows vs
# columns: B=1 0.5 vs 10.6 ms, B=16 7.3 vs 15.6, B=32 13.2 vs 15.5, B=36 14.1
# vs 15.8, B=40 16.3 vs 15.9, B=48 19.9 vs 15.8, B=64 26.9 vs 16.1.
ROW_LOOP_BELOW = 40


def _observe(m, times):
    """(I, R) at the requested times, integrating only up to the last step
    that brackets the latest of them; bitwise equal to a full-span read.
    A batch smaller than ``ROW_LOOP_BELOW`` runs one row at a time."""
    if np.ndim(m) == 2 and len(m) < ROW_LOOP_BELOW:
        return np.stack([_observe(row, t) for row, t in zip(m, times)])
    n_steps = min(max(int(np.max(times) / CONST.dt), 0), N_STEPS - 1) + 1
    return _read(_integrate(m, n_steps), times)[..., 2:4]


class SeirTask:
    name = "seir"
    dim_m = 6
    obs_token_dim = 3          # (e_i, I_i, R_i)
    design_token_dim = 0

    # fixed input scaling so token features are O(1)
    POP_SCALE = 100.0
    TIME_SCALE = 4.0

    def __init__(self, sigma: float = 0.5):
        self.sigma = float(sigma)

    def e_width(self, n_obs):
        return n_obs

    def d_width(self, n_obs):
        return 2 * n_obs

    def sample_params(self, rng, size):
        return rng.uniform(0.0, 1.0, (size, 6))

    prior_sample = sample_params

    def sample_design(self, rng, n_obs):
        return rng.uniform(1.0, 3.0, n_obs)

    def simulate_batch(self, m, e, n_obs):
        # every tuple has its own observation times; integrate once, read all
        obs = _observe(m, e)
        return obs.reshape(m.shape[0], 2 * n_obs), np.full(m.shape[0], self.sigma)

    def token_features(self, d, e):
        B, n = e.shape
        ir = d.reshape(B, n, 2) / self.POP_SCALE
        et = e[..., None] / self.TIME_SCALE
        return np.concatenate([et, ir], axis=-1), None

    def de_solution(self, m, e_row):
        """The states on ``DE_GRID``, flattened; ``e_row`` is not used."""
        return seir_solve(m, DE_GRID).reshape(-1)

    def forward_observed(self, m, e_row):
        return _observe(m, np.asarray(e_row, dtype=np.float64)).reshape(-1)

    def log_prior(self, m):
        m = np.asarray(m)
        return 0.0 if np.all(m >= 0.0) and np.all(m <= 1.0) else -np.inf

    def sigma_for(self, e_row):
        return self.sigma
