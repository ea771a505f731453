"""SEIR epidemic dynamics with time-dependent transmission and removal rates.

The six inferred rates are [beta1, alpha, gamma_r, gamma_d1, beta2, gamma_d2],
each uniform on [0, 1]. Transmission and death rates switch around t = tau
with weight (1 + tanh(7(t - tau))) / 2, which moves them monotonically from
their initial to their final values and keeps them non-negative on the whole
prior box; the paper's printed weight tanh(7(t - tau)) / 2 admits negative
rates, which make the quadratic dynamics diverge for some prior draws.

Observations are (I, R) read at a handful of times in [1, 3].

One fixed-step RK4 scheme serves every path and keeps only the steps it is
asked for (``_integrate``): a single rate vector runs it as one loop in Python
floats (MH, ``de_solution``, each row of a small batch), a larger (B, 6) batch
as one kernel on a stacked (4, B) state that writes every stage into
preallocated buffers (data generation); each batch row is bitwise equal to
its vector's loop. ``_read``, which ``seir_solve``, ``forward_observed`` and
``simulate_batch`` go through, asks it for the two steps that bracket each
requested time and interpolates linearly between them.
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
    full = _ramp(ts, CONST.tau).tolist()
    half = _ramp(ts[:-1] + CONST.dt / 2.0, CONST.tau).tolist()
    return full[0], list(zip(half, full[1:]))


# ramp at t = 0 and each step's (midpoint, end) pair, as Python floats for the float loop
_RAMP = _ramp_tables()


def _integrate(m, stops):
    """Classical RK4 from t = 0 in fixed steps of length dt, keeping the
    states at the step indices ``stops`` (sorted, distinct, at most N_STEPS)
    and stopping at the last of them.

    A 6-vector m runs in Python floats and returns (len(stops), 4); a (B, 6)
    batch runs ``_columns`` and returns (len(stops), 4, B). Both run the same
    float operations in the same order, up to exact sign flips, so each batch
    row equals the single vector's result bitwise.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        kept = _floats(m.tolist(), stops)
    else:
        kept = _columns(m, stops)
    # a non-finite state stays non-finite, so the kept states show a failure;
    # one rerun that keeps every step names the first step that failed
    bad = ~np.isfinite(kept).all(axis=1).reshape(len(stops), -1)
    if bad.any():
        if len(stops) <= stops[-1]:
            _integrate(m, range(stops[-1] + 1))
        j_bad, b_bad = np.argwhere(bad)[0]
        raise FloatingPointError(f"SEIR state became non-finite at t={stops[j_bad] * CONST.dt:.4f} "
                                 f"for m={m.reshape(-1, 6)[b_bad].tolist()}")
    return kept


def _floats(m, stops):
    """The RK4 loop of one rate vector in Python floats: (len(stops), 4)."""
    b1, al, gr, gd1, b2, gd2 = m
    db, dg, g0 = b2 - b1, gd2 - gd1, gr + gd1
    dt, h2, h6 = CONST.dt, CONST.dt / 2, CONST.dt / 6
    s_start, steps = _RAMP
    S, E, I, R = CONST.s0, CONST.e0, CONST.i0, CONST.r0
    kept = []
    # Stage j has infection flux x_j = -dS/dt, dE/dt e_j, dI/dt i_j and dR/dt
    # g_j; the end-of-step rates (bf, gf) start the next step.
    bf, gf = b1 + s_start * db, g0 + s_start * dg
    k = 0
    for stop in stops:
        for sh, sf in steps[k:stop]:
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
        k = stop
        kept.extend((S, E, I, R))
    return np.array(kept).reshape(-1, 4)


def _columns(m, stops):
    """The RK4 loop of ``_floats`` on the columns of a (B, 6) batch, writing
    every stage into preallocated buffers: (len(stops), 4, B).

    The state is one (4, B) array Y = (S, E, I, R) and each stage's slopes
    one (4, B) block (-x, e, i, g), so a stage state is Y + c * slopes and the
    update Y + h6 * (k1 + 2 k2 + 2 k3 + k4) on all four rows at once. The
    float operations are those of ``_floats`` with -x for x and -beta for
    beta: "S + h * (-x)" is bitwise "S - h * x", and (-beta * S) * I bitwise
    -(beta * S * I), since rounding is sign-symmetric.
    """
    mul, neg = np.multiply, np.negative
    b1, al, gr, gd1, b2, gd2 = np.ascontiguousarray(m.T)
    # (-beta, gamma) at ramp weight w is base + w * slope
    base, slope = np.stack([-b1, gr + gd1]), np.stack([-(b2 - b1), gd2 - gd1])
    dt, h2, h6 = CONST.dt, CONST.dt / 2, CONST.dt / 6
    s_start, steps = _RAMP
    Y = np.empty((4, len(m)))
    Y.T[:] = CONST.s0, CONST.e0, CONST.i0, CONST.r0
    Z = np.empty((3, len(m)))                   # a stage state (S, E, I)
    K = np.empty((4, 4, len(m)))                # the four stages' slopes
    mid, end = np.empty((2, len(m))), np.empty((2, len(m)))
    kept = np.empty((len(stops), 4, len(m)))
    mul(slope, s_start, end)
    end += base
    Y3, k1, k2, k3, k4 = Y[:3], *K
    ys, zs, mids, ends = (*Y3,), (*Z,), (*mid,), (*end,)
    stage_rows = [(*k,) for k in K]

    def slopes(j, S, E, I, nb, gam):
        nx, e, i, g = stage_rows[j]
        mul(nb, S, nx)
        nx *= I                 # -x = (-beta * S) * I
        mul(al, E, i)           # alpha * E, until the last line
        mul(gam, I, g)
        neg(nx, e)
        e -= i                  # e = x - alpha * E
        i -= g                  # i = alpha * E - g

    k = 0
    for j, stop in enumerate(stops):
        for sh, sf in steps[k:stop]:
            slopes(0, *ys, *ends)
            mul(slope, sh, mid)
            mid += base
            mul(k1[:3], h2, Z)
            Z += Y3
            slopes(1, *zs, *mids)
            mul(k2[:3], h2, Z)
            Z += Y3
            slopes(2, *zs, *mids)
            mul(slope, sf, end)
            end += base
            mul(k3[:3], dt, Z)
            Z += Y3
            slopes(3, *zs, *ends)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= h6
            Y += k1
        k = stop
        kept[j] = Y
    return kept


def _read(m, times):
    """States of rates m at the given times, interpolated linearly between
    the two RK4 steps that bracket each time, the only steps integrated to.

    times (n_t,) for a 6-vector gives (n_t, 4); times (B, n_t) for a (B, 6)
    batch gives (B, n_t, 4).
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("no times requested: the SEIR states are read at one time or more")
    if np.any(times < 0) or np.any(times > CONST.t_end + 1e-12):
        raise ValueError(f"requested times outside [0, {CONST.t_end}]")
    pos = times / CONST.dt
    k = np.minimum(pos.astype(int), N_STEPS - 1)
    w = (pos - k)[..., None]
    stops, at = np.unique(np.stack([k, k + 1]), return_inverse=True)
    state = _integrate(m, stops.tolist())
    at = at.reshape((2,) + k.shape)         # where k and k + 1 sit among the stops
    if state.ndim == 2:
        lo, hi = state[at[0]], state[at[1]]
    else:
        rows = np.arange(state.shape[2])[:, None]
        lo, hi = state[at[0], :, rows], state[at[1], :, rows]
    return lo * (1.0 - w) + hi * w


def seir_solve(m, t_grid):
    """States (S, E, I, R) of one 6-vector of rates at the times of the 1-d
    ``t_grid`` in [0, t_end], linearly interpolated between fixed RK4 steps;
    returns (len(t_grid), 4)."""
    return _read(m, t_grid)


# Below this many rows a batch runs row by row in Python floats: the column
# kernel pays about 45 numpy calls per step whatever B is. simulate_batch at
# n_obs 5, one BLAS thread on a 2-CPU Intel Xeon guest, median over three runs
# of a median of 9 interleaved calls, rows vs columns in ms: B=1 1.3 vs 41.2,
# B=16 19.0 vs 37.1, B=24 28.2 vs 37.3, B=28 34.9 vs 37.6, B=32 36.4 vs 37.4,
# B=36 31.1 vs 27.2, B=40 39.5 vs 32.7, B=48 55.4 vs 36.2, B=64 66.3 vs 28.5.
# In three more runs the median paired rows/columns ratio passed 1 at B=25-31.
ROW_LOOP_BELOW = 32


def _observe(m, times):
    """(I, R) at the requested times, through ``_read``. A batch smaller
    than ``ROW_LOOP_BELOW`` runs one row at a time; an empty one gives an
    empty (0, n_t, 2) array."""
    if np.ndim(m) == 2 and len(m) < ROW_LOOP_BELOW:
        if len(m) == 0:
            return np.empty(np.shape(times) + (2,))
        return np.stack([_observe(row, t) for row, t in zip(m, times)])
    return _read(m, times)[..., 2:4]


class SeirTask:
    name = "seir"
    dim_m = 6
    obs_token_dim = 3          # (e_i, I_i, R_i)
    design_token_dim = 0

    # fixed input scaling so token features are O(1)
    POP_SCALE = 100.0
    TIME_SCALE = 4.0
    sigma = 0.5                # observation noise standard deviation

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
