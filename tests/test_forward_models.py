import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from flowinverse.tasks import get_task
from flowinverse.tasks.nonlinear import nonlinear_forward
from flowinverse.tasks.seir import (CONST, N_STEPS, ROW_LOOP_BELOW, TRUE_RATES, _integrate,
                                    _ramp, _read, seir_solve)
from flowinverse.tasks import darcy as dy


def grid_points(const):
    """The (n_grid**2, 2) solver-grid nodes, row-major in x."""
    xs = np.linspace(0.0, 1.0, const.n_grid)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def dense_kernel(const, rows=slice(None)):
    """Rows of the dense squared-exponential kernel on the grid nodes, h^2
    quadrature weighted, from the 2-D distance formula: the reference for
    the separable construction in ``kl_basis_build``."""
    pts = grid_points(const)
    d2 = ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(-1)
    return const.sigma_v ** 2 * np.exp(-d2 / (2.0 * const.ell2)) * const.h ** 2


class TestNonlinear:
    def test_zero_parameter_gives_zero(self):
        for e in (0.0, 0.3, 1.0):
            assert nonlinear_forward(0.0, e) == 0.0

    def test_closed_form_values(self):
        assert nonlinear_forward(1.0, 0.2) == pytest.approx(1.04)
        assert nonlinear_forward(1.0, 0.0) == pytest.approx(np.exp(-0.2))

    def test_monotone_in_m(self):
        e = np.linspace(0, 1, 11)
        lo = nonlinear_forward(0.3, e)
        hi = nonlinear_forward(0.6, e)
        assert np.all(hi > lo)


class TestSeirRates:
    # beta(t) = beta1 + w(t) (beta2 - beta1), likewise gamma_d; w is the ramp
    def test_late_time_shifted_reaches_final(self):
        assert _ramp(1e6, CONST.tau) == pytest.approx(1.0)
        assert _ramp(0.0, CONST.tau) == pytest.approx(0.0, abs=1e-12)
        assert _ramp(CONST.tau, CONST.tau) == 0.5

    def test_gamma_decomposition(self):
        # the removal rate is gamma_r + gamma_d(t): moving a constant from
        # gamma_r into both death rates leaves every trajectory unchanged
        e = np.linspace(1.0, 3.0, 6)
        task = get_task("seir")
        m = np.array([0.2, 0.5, 0.31, 0.07, 0.9, 0.44])
        moved = m + np.array([0.0, 0.0, -0.2, 0.2, 0.0, 0.2])
        np.testing.assert_allclose(task.forward_observed(moved, e),
                                   task.forward_observed(m, e), rtol=1e-12)
        assert np.abs(task.forward_observed(m + [0, 0, 0.2, 0, 0, 0], e)
                      - task.forward_observed(m, e)).max() > 1e-3


class TestSeirSolve:
    def test_initial_derivatives(self):
        h = 1.0 / 256.0
        traj = seir_solve(np.array([0.5, 0.3, 0.2, 0.1, 0.7, 0.4]), [0.0, h])
        s0, e0, i0, r0 = traj[0]
        s1, e1, i1, r1 = traj[1]
        assert (s0, e0, i0, r0) == (99.0, 1.0, 0.0, 0.0)
        # I(0)=0 freezes S and R at first order; E and I move at rate alpha*E
        # (tolerances allow the O(h) curvature of the one-step difference)
        assert abs(s1 - 99.0) < 1e-3
        assert abs(r1 - 0.0) < 1e-4
        assert (e1 - 1.0) / h == pytest.approx(-0.3, abs=0.05)
        assert (i1 - 0.0) / h == pytest.approx(0.3, abs=0.05)

    def test_conservation_along_trajectory(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 1, (64, 6))
        traj = np.stack([seir_solve(row, np.linspace(0, 4, 257)) for row in m])
        total = traj.sum(axis=-1)
        assert np.abs(total - 100.0).max() / 100.0 < 1e-8

    def test_true_rates_regression(self):
        # frozen reference trajectory for the published ground-truth rates
        traj = seir_solve(TRUE_RATES, [1.0, 2.0, 3.0, 4.0])
        expected = np.array([
            [88.43871313, 10.51497928, 0.93349754, 0.11281005],
            [14.99235758, 72.20953988, 10.79746138, 2.00064115],
            [0.97580649, 64.79670716, 18.68760242, 15.53988394],
            [0.05639267, 48.74744337, 18.55073885, 32.64542510],
        ])
        np.testing.assert_allclose(traj, expected, rtol=1e-7, atol=1e-7)

    def test_scalar_path_pinned_to_reference_digests(self):
        # sha256 of the single-vector RK4 outputs: 16 seeded prior draws
        # observed at 8 times, the dense true-rate solution, and a seeded
        # 200-sample MH chain; any change in the float operations shows here
        from flowinverse.mcmc import ChainConfig, run_chain

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        task = get_task("seir")
        rng = np.random.default_rng(14)
        m = task.sample_params(rng, 16)
        e = task.sample_design(rng, 8)
        observed = np.stack([task.forward_observed(row, e) for row in m])
        d = task.forward_observed(TRUE_RATES, e)
        chain = run_chain(task, d, e, ChainConfig(n_samples=200, seed=3))
        assert digest(observed) == "4609b9fa127a059a44ca896895fcef340c781d08c2a5d35085378ee61608371d"
        assert digest(task.de_solution(TRUE_RATES, e)) == (
            "080f7fc5b06fc6a9baee87065780842de03d03bc5fbef5aa8e79968b8cc29bec")
        assert digest(chain.chain) == "1fff41d0fc5ee5d54c49887de21343410f53ac135c9a10ad4c19a257d4f8058e"
        assert digest(chain.log_posterior) == (
            "1140a9a32480caed99328949a5da238247cb81ae66b3fb6d7f548600b9f4977f")

    # times where choosing the bracketing steps can go wrong: t = 0, exact
    # multiples of dt, t = 3, t_end, duplicate and unsorted times
    EDGE_TIMES = ([0.0], [5 * CONST.dt, 512 * CONST.dt, 1023 * CONST.dt], [3.0], [CONST.t_end],
                  [0.0, CONST.t_end], [2.0, 2.0, 1.5], [3.0, 1.0 + CONST.dt, 0.0, 2.5, 3.0])

    def test_edge_time_reads_pinned_to_reference_digests(self):
        # sha256 of single-vector reads at EDGE_TIMES, and of a batch large
        # enough to run on columns whose rows draw their times from them
        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        task = get_task("seir")
        rng = np.random.default_rng(22)
        m = task.sample_params(rng, 4)
        observed = np.concatenate([task.forward_observed(row, t) for row in m for t in self.EDGE_TIMES])
        solved = np.concatenate([seir_solve(row, t) for row in m for t in self.EDGE_TIMES])
        pool = np.concatenate(self.EDGE_TIMES)
        rows = 96
        assert rows >= ROW_LOOP_BELOW
        batch, _ = task.simulate_batch(task.sample_params(rng, rows), rng.choice(pool, (rows, 3)), 3)
        assert digest(observed) == "3b68a119f96f36454dfb4bc723ff44e5a0c04bd7760796f7649219a0ed2f7774"
        assert digest(solved) == "d986f7c12bb774cddc0de40b1a2e95eb7275ba0f8e8f85c6951d81a69377d8f6"
        assert digest(batch) == "e58c34766d9a28dc019f86f1b4a34de380b7c3bf18fb3f6434357bbf496ca035"

    @pytest.mark.parametrize("rows", [None, ROW_LOOP_BELOW + 8], ids=["vector", "columns"])
    def test_kept_steps_equal_a_run_that_keeps_every_step(self, rows):
        # keeping only some steps changes no float operation, for one vector
        # and on columns: stop 0, adjacent, gapped and last stops
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 1, 6 if rows is None else (rows, 6))
        every = _integrate(m, range(N_STEPS + 1))
        for stops in ([0], [0, 1, 2], [3, 700], [1, 2, 40, 41, 511, N_STEPS], [N_STEPS]):
            np.testing.assert_array_equal(_integrate(m, stops), every[stops])

    def test_empty_times_rejected(self):
        task = get_task("seir")
        with pytest.raises(ValueError, match="no times requested"):
            seir_solve(TRUE_RATES, [])
        with pytest.raises(ValueError, match="no times requested"):
            task.forward_observed(TRUE_RATES, [])
        for rows in (1, ROW_LOOP_BELOW + 8):        # row by row and on columns
            with pytest.raises(ValueError, match="no times requested"):
                task.simulate_batch(np.tile(TRUE_RATES, (rows, 1)), np.empty((rows, 0)), 0)

    def test_states_bounded_over_prior(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(0, 1, (200, 6))
        traj = np.stack([seir_solve(row, np.linspace(0, 4, 129)) for row in m])
        assert traj.min() >= -1e-9
        assert traj.max() <= 100.0 + 1e-9

    def test_out_of_range_time_rejected(self):
        with pytest.raises(ValueError):
            seir_solve(TRUE_RATES, [5.0])

    # rates outside the prior box (negative removal rates) make the quadratic
    # dynamics diverge at t = 3.9688; up to t = 3 they stay finite
    OUT_OF_BOX = np.array([0.559, 0.28, -0.878, -0.418, 1.835, -0.512])

    def test_printed_ramp_blowup_is_reported(self):
        # by one vector, and by a batch large enough to run on columns
        batch = np.tile(self.OUT_OF_BOX, (ROW_LOOP_BELOW, 1))
        old = np.seterr(all="ignore")
        try:
            with pytest.raises(FloatingPointError, match="non-finite at t=3.9688"):
                seir_solve(self.OUT_OF_BOX, [4.0])
            with pytest.raises(FloatingPointError, match="non-finite at t=3.9688"):
                get_task("seir").simulate_batch(batch, np.full((ROW_LOOP_BELOW, 1), 4.0), 1)
        finally:
            np.seterr(**old)

    def test_one_failing_row_of_a_column_batch_is_named(self):
        # among finite prior draws on columns, the error names the failing
        # row's rates and the step at which its single-vector run fails
        rows = ROW_LOOP_BELOW + 8
        batch = np.random.default_rng(9).uniform(0, 1, (rows, 6))
        batch[rows // 3] = self.OUT_OF_BOX
        times = np.full((rows, 2), 4.0)
        times[:, 0] = 1.5
        old = np.seterr(all="ignore")
        try:
            with pytest.raises(FloatingPointError) as single:
                seir_solve(self.OUT_OF_BOX, [1.5, 4.0])
            t_single = re.search(r"t=[0-9.]+", str(single.value)).group()
            with pytest.raises(FloatingPointError, match=re.escape(
                    f"non-finite at {t_single} for m={self.OUT_OF_BOX.tolist()}")):
                get_task("seir").simulate_batch(batch, times, 2)
        finally:
            np.seterr(**old)
        assert t_single == "t=3.9688"

    def test_datagen_sized_batch_matches_single_vectors(self):
        # a batch shaped like one dataset shard: 1024 prior draws at n_obs 8
        rng = np.random.default_rng(1024)
        task = get_task("seir")
        m = task.sample_params(rng, 1024)
        e = rng.uniform(1, 3, (1024, 8))
        d, _ = task.simulate_batch(m, e, 8)
        for i in np.linspace(0, 1023, 24).astype(int):
            np.testing.assert_array_equal(d[i], task.forward_observed(m[i], e[i]))

    def test_single_vector_blowup_raises_and_mh_rejects_it(self):
        # one vector fails as loudly as a batch, and MH turns the failure
        # into a rejection once the prior admits the vector
        from flowinverse import mcmc
        from flowinverse.tasks import SeirTask

        class UnboundedSeirTask(SeirTask):
            def log_prior(self, m):
                return 0.0

        task = UnboundedSeirTask()
        bad = self.OUT_OF_BOX
        e = np.array([1.0, 2.0, 4.0])
        with pytest.raises(FloatingPointError, match="non-finite at t=3.9688"):
            task.forward_observed(bad, e)
        with pytest.warns(UserWarning, match="forward model failed"):
            assert mcmc.log_posterior(task, bad, np.zeros(6), e, 0.5) == -np.inf
        # observations up to t = 3 stop before the blow-up
        assert np.isfinite(task.forward_observed(bad, [1.0, 3.0])).all()

    def test_early_stop_changes_nothing(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(0, 1, (4, 6))
        task = get_task("seir")
        for t in (0.0, 1.0, 2.0 + 1.0 / 256.0, 3.0, 4.0):
            full = np.stack([seir_solve(row, [t])[0, 2:4] for row in m])
            d, _ = task.simulate_batch(m, np.full((4, 1), t), 1)
            np.testing.assert_array_equal(d, full)
            for row in range(4):
                np.testing.assert_array_equal(task.forward_observed(m[row], [t]), full[row])


class TestSeirObserve:
    def test_sorted_vs_unsorted_same_rows(self):
        task = get_task("seir")
        t_sorted = np.array([1.2, 1.8, 2.4, 2.9])
        t_shuffled = np.array([2.4, 1.2, 2.9, 1.8])
        a = task.forward_observed(TRUE_RATES, t_sorted).reshape(-1, 2)
        b = task.forward_observed(TRUE_RATES, t_shuffled).reshape(-1, 2)
        np.testing.assert_array_equal(a[[2, 0, 3, 1]], b)

    def test_duplicate_times_duplicate_rows(self):
        obs = get_task("seir").forward_observed(TRUE_RATES, [2.0, 2.0]).reshape(-1, 2)
        np.testing.assert_array_equal(obs[0], obs[1])

    def test_nonnegative_without_noise(self):
        rng = np.random.default_rng(1)
        task = get_task("seir")
        m = task.sample_params(rng, 20)
        d, _ = task.simulate_batch(m, rng.uniform(1, 3, (20, 4)), 4)
        assert np.all(d >= 0)

    def test_scalar_path_matches_batched(self):
        # one RK4 kernel: a single vector in Python floats and a batch on
        # columns run the same operations, so they agree bitwise
        rng = np.random.default_rng(2)
        task = get_task("seir")
        rows = ROW_LOOP_BELOW + 8           # enough rows to run on columns
        m = rng.uniform(0, 1, (rows, 6))
        e = rng.uniform(1, 3, (rows, 5))
        d, _ = task.simulate_batch(m, e, 5)
        grid = np.linspace(0.0, 4.0, 256)
        columns = _read(m, np.broadcast_to(grid, (rows, grid.size)))
        for row in range(rows):
            np.testing.assert_array_equal(task.forward_observed(m[row], e[row]), d[row])
            np.testing.assert_array_equal(task.de_solution(m[row], e[row]),
                                          columns[row].reshape(-1))

    @pytest.mark.parametrize("rows", sorted({1, 2, ROW_LOOP_BELOW - 1, ROW_LOOP_BELOW,
                                             ROW_LOOP_BELOW + 1, 51, 52, 53}))
    def test_small_and_large_batches_match_single_vectors(self, rows):
        # below ROW_LOOP_BELOW a batch runs row by row, above it on columns;
        # either way each row is the single vector's result bitwise. 51-53
        # rows straddle the crossover of the earlier allocating column kernel.
        rng = np.random.default_rng(rows)
        task = get_task("seir")
        m = rng.uniform(0, 1, (rows, 6))
        e = rng.uniform(1, 3, (rows, 4))
        d, scale = task.simulate_batch(m, e, 4)
        assert d.shape == (rows, 8) and scale.shape == (rows,)
        np.testing.assert_array_equal(
            d, np.stack([task.forward_observed(m[i], e[i]) for i in range(rows)]))


class TestDarcyConstants:
    @pytest.mark.parametrize("kwargs, field", [
        (dict(n_grid=2), "n_grid"),
        (dict(n_grid=3, n_modes=0), "n_modes"),
        (dict(n_grid=3, n_modes=16), "n_modes"),
    ])
    def test_bad_grid_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            dy.DarcyConstants(**kwargs)

    def test_smallest_grid_solves(self):
        const = dy.DarcyConstants(n_grid=3, n_modes=9)
        assert dy.kl_basis_build(const).modes.shape == (9, 9)
        u = dy._solve_dirichlet(np.ones((3, 3)), np.zeros(3), np.ones(3))
        np.testing.assert_allclose(u[1], 0.5, rtol=1e-12)


class TestKlBasis:
    def test_kernel_diagonal(self):
        const = dy.DarcyConstants(n_grid=9)
        K = dense_kernel(const)
        np.testing.assert_allclose(np.diag(K), const.h ** 2, rtol=1e-12)

    def test_eigenvalues_sorted_nonnegative(self, kl_basis):
        lam = kl_basis.eigenvalues
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_captured_variance_fraction(self, kl_basis):
        assert kl_basis.captured_fraction >= 0.99

    def test_frobenius_reconstruction(self, kl_basis):
        # the 4225x4225 kernel is formed a block of rows at a time
        const = kl_basis.const
        V = kl_basis.modes.T * const.h      # back to unit eigenvectors
        k_sq = err_sq = 0.0
        for lo in range(0, const.n_grid ** 2, 128):
            rows = slice(lo, lo + 128)
            K = dense_kernel(const, rows)
            K16 = (V[rows] * kl_basis.eigenvalues) @ V.T
            k_sq += np.sum(K ** 2)
            err_sq += np.sum((K - K16) ** 2)
        assert np.sqrt(err_sq / k_sq) < 0.01

    def test_cache_roundtrip(self, tmp_path):
        const = dy.DarcyConstants(n_grid=9, n_modes=4)
        b1 = dy.kl_basis_build(const, cache_dir=str(tmp_path))
        b2 = dy.kl_basis_build(const, cache_dir=str(tmp_path))
        np.testing.assert_array_equal(b1.eigenvalues, b2.eigenvalues)
        np.testing.assert_array_equal(b1.modes, b2.modes)
        assert len(list(tmp_path.iterdir())) == 1

    def test_no_cache_directory_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("FLOWINVERSE_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        basis = get_task("darcy").basis
        assert basis.modes.shape == (16, 65 * 65)
        assert list(tmp_path.iterdir()) == []

    def test_fresh_builds_are_bitwise_equal(self, tmp_path):
        # degenerate eigenpairs must not leave the basis to the eigensolver
        b1 = dy.kl_basis_build(cache_dir=str(tmp_path / "one"))
        b2 = dy.kl_basis_build(cache_dir=str(tmp_path / "two"))
        np.testing.assert_array_equal(b1.eigenvalues, b2.eigenvalues)
        np.testing.assert_array_equal(b1.modes, b2.modes)

    def test_modes_are_eigenvectors_of_the_dense_kernel(self, tmp_path):
        const = dy.DarcyConstants(n_grid=9)
        basis = dy.kl_basis_build(const, cache_dir=str(tmp_path))
        K = dense_kernel(const)
        V = basis.modes.T * const.h
        np.testing.assert_allclose(V.T @ V, np.eye(const.n_modes), atol=1e-10)
        np.testing.assert_allclose(K @ V, V * basis.eigenvalues, rtol=0, atol=1e-10)
        assert basis.trace == pytest.approx(np.trace(K), rel=1e-12)


class TestKlExpand:
    def test_zero_coefficients(self, kl_basis):
        field = dy.kl_expand(np.zeros(16), kl_basis)
        np.testing.assert_array_equal(field, 0.0)
        assert field.shape == (65, 65)

    def test_linearity(self, kl_basis):
        rng = np.random.default_rng(0)
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        lhs = dy.kl_expand(a + b, kl_basis)
        rhs = dy.kl_expand(a, kl_basis) + dy.kl_expand(b, kl_basis)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_center_variance_monte_carlo(self, kl_basis):
        # sample variance at the domain center vs the captured spectral value
        rng = np.random.default_rng(1)
        m = rng.normal(size=(10_000, 16))
        center = np.array([dy.kl_expand(row, kl_basis)[32, 32] for row in m])
        phi_c = kl_basis.modes[:, 32 * 65 + 32]
        expected = float(np.sum(kl_basis.eigenvalues * phi_c ** 2))
        assert expected <= 1.0 + 1e-6
        assert center.var() == pytest.approx(expected, rel=0.05)


class TestDarcySolve:
    @pytest.mark.parametrize("e1, e2", [(-0.1, 0.5), (0.5, 1.2)])
    def test_rejects_design_outside_unit_interval(self, e1, e2):
        with pytest.raises(ValueError, match="design parameters must lie in"):
            dy.darcy_solve(np.ones((65, 65)), e1, e2)

    def test_antisymmetry_uniform_kappa(self):
        u = dy.darcy_solve(np.ones((65, 65)), 0.5, 0.5)
        assert np.abs(u + u[::-1, :]).max() < 1e-8

    def test_discrete_maximum_principle(self):
        u = dy.darcy_solve(np.ones((65, 65)), 0.3, 0.8)
        interior = u[1:-1, :]
        assert interior.max() <= u[[0, -1], :].max() + 1e-12
        assert interior.min() >= u[[0, -1], :].min() - 1e-12

    def test_manufactured_linear_solution(self):
        n = 65
        xs = np.linspace(0, 1, n)
        u = dy._solve_dirichlet(np.ones((n, n)), np.zeros(n), np.ones(n))
        np.testing.assert_allclose(u, xs[:, None] * np.ones((1, n)), atol=1e-9)

    @staticmethod
    def _flux_residual(kappa, f, g):
        """Relative residual of the solve's flux balance."""
        n = kappa.shape[0]
        u = dy._solve_dirichlet(kappa, f, g)
        np.testing.assert_array_equal(u[0], f)
        np.testing.assert_array_equal(u[-1], g)

        def face(a, b, width=1.0):
            return width * 2.0 * kappa[a] * kappa[b] / (kappa[a] + kappa[b])

        # flux balance node by node: harmonic-mean faces, half-width x-faces
        # on the y = 0, 1 sides, and no face across a Neumann side; the flux
        # from a Dirichlet neighbour is the right-hand side
        residual, rhs = [], []
        for i in range(1, n - 1):
            for j in range(n):
                width = 0.5 if j in (0, n - 1) else 1.0
                neighbours = [((i - 1, j), width), ((i + 1, j), width)]
                neighbours += [((i, jj), 1.0) for jj in (j - 1, j + 1) if 0 <= jj < n]
                r = b = 0.0
                for nb, w in neighbours:
                    t = face((i, j), nb, w)
                    r += t * u[i, j]
                    if nb[0] in (0, n - 1):
                        b += t * u[nb]
                    else:
                        r -= t * u[nb]
                residual.append(r - b)
                rhs.append(b)
        return np.linalg.norm(residual) / np.linalg.norm(rhs)

    # an even grid has as many red as black nodes and row-dependent band offsets
    @pytest.mark.parametrize("n", [8, 9, 33])
    def test_residual_below_tolerance(self, n):
        rng = np.random.default_rng(3)
        kappa = np.exp(rng.normal(0, 0.5, (n, n)))
        f = np.linspace(0, 1, n)
        assert self._flux_residual(kappa, f, -f) <= 1e-9

    @pytest.mark.parametrize("n", [8, 33])
    def test_residual_below_tolerance_on_a_checkerboard(self, n):
        # permeability 1e4 apart on the red and the black nodes, times a
        # rough field so that the faces still differ
        rng = np.random.default_rng(4)
        i, j = np.indices((n, n))
        kappa = np.where((i + j) % 2 == 0, 1e2, 1e-2) * np.exp(rng.normal(0, 0.5, (n, n)))
        f = np.linspace(0, 1, n)
        assert self._flux_residual(kappa, f, -f) <= 1e-9

    def test_pressure_is_invariant_to_permeability_scale(self, kl_basis):
        # every product in the elimination is t * (t / D), so neither scale
        # underflows or overflows
        m = np.random.default_rng(5).standard_normal(16)
        kappa = np.exp(dy.kl_expand(m, kl_basis))
        u = dy.darcy_solve(kappa, 0.3, 0.7)
        for c in (1e-100, 1e100):
            np.testing.assert_allclose(dy.darcy_solve(kappa * c, 0.3, 0.7), u,
                                       rtol=0, atol=1e-12 * np.abs(u).max())

    @pytest.mark.parametrize("n", [9, 65])
    def test_black_band_offsets_on_odd_grids(self, n):
        red, black, src, dst = dy._red_black(n)
        assert (red.size, black.size) == ((n - 2) * n // 2 + 1, (n - 2) * n // 2)
        assert set(dst % (n + 1)) == {0, 1, (n - 1) // 2, (n + 1) // 2, n}

    @staticmethod
    def _reference_cases(kl_basis):
        for seed in (11, 12, 13):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal(16)
            e1, e2 = rng.uniform(0.0, 1.0, 2)
            yield seed, dy.darcy_solve(np.exp(dy.kl_expand(m, kl_basis)), e1, e2)

    def test_solution_pinned_to_reference_digests(self, kl_basis):
        # sha256 of the pressure field's bytes from the red-black elimination
        # and the banded Cholesky solve of the black Schur complement
        expected = {
            11: "243635d286410a5ac37a66b489530fdfcb974228bfbe4e2558a13ff0239369ea",
            12: "c6124a514971cb5ff12a4997cfdff63d21b9f29673bfd4a196d43d65e95d55a3",
            13: "c609026dbd1fc95a3e948abe7cec0019e20b5d5936d1cb4bfec53210adf295cb",
        }
        for seed, u in self._reference_cases(kl_basis):
            assert u.dtype == np.float64 and u.shape == (65, 65)
            assert hashlib.sha256(u.tobytes()).hexdigest() == expected[seed], seed

    def test_matches_conjugate_gradient_reference(self, kl_basis):
        # the same fields from Jacobi-preconditioned CG at relative residual
        # 1e-10, the solver that earlier datasets were generated with
        with np.load(Path(__file__).parent / "data" / "darcy_cg_reference.npz") as ref:
            for seed, u in self._reference_cases(kl_basis):
                u_cg = ref[f"seed_{seed}"]
                assert np.abs(u - u_cg).max() <= 1e-8 * np.abs(u_cg).max(), seed

    def test_rejects_nonpositive_kappa(self):
        kappa = np.ones((65, 65))
        kappa[3, 3] = 0.0
        with pytest.raises(dy.SolverError):
            dy.darcy_solve(kappa, 0.5, 0.5)

    @pytest.mark.parametrize("level", [1e300, 1e308, 1e-310])
    def test_faces_out_of_range_fail_before_factorisation(self, level, monkeypatch):
        # the harmonic-mean faces overflow to inf at 1e300, turn nan (inf / inf)
        # at 1e308 and underflow to 0 at 1e-310
        def factorise(*args, **kwargs):
            raise AssertionError("factorised a system with out-of-range faces")

        monkeypatch.setattr(dy, "solveh_banded", factorise)
        with pytest.raises(dy.SolverError, match="overflow or underflow"):
            dy.darcy_solve(np.full((65, 65), level), 0.5, 0.5)

    def test_factorisation_failure_is_a_solver_error(self, monkeypatch):
        def factorise(*args, **kwargs):
            raise np.linalg.LinAlgError("3-th leading minor not positive definite")

        monkeypatch.setattr(dy, "solveh_banded", factorise)
        with pytest.raises(dy.SolverError, match="leading minor"):
            dy.darcy_solve(np.ones((65, 65)), 0.5, 0.5)

    def test_grid_convergence_second_order(self):
        def kfun(X, Y):
            return np.exp(0.8 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) + 0.3 * X)

        def run(n):
            xs = np.linspace(0, 1, n)
            X, Y = np.meshgrid(xs, xs, indexing="ij")
            f = np.exp(-((xs - 0.3) ** 2) / 0.1)
            g = -np.exp(-((xs - 0.7) ** 2) / 0.1)
            return dy._solve_dirichlet(kfun(X, Y), f, g)

        u33, u65, u129 = run(33), run(65), run(129)
        ref = u129[::4, ::4]
        e33 = np.linalg.norm(u33 - ref)
        e65 = np.linalg.norm(u65[::2, ::2] - ref)
        assert e33 / e65 >= 3.5


class TestDarcyObserve:
    def test_node_value(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(65, 65))
        h = 1 / 64
        val = dy.darcy_observe(u, [(5 * h, 9 * h)])
        assert val[0] == pytest.approx(u[5, 9], abs=1e-12)

    def test_linear_field_exact(self):
        xs = np.linspace(0, 1, 65)
        u = xs[:, None] * np.ones((1, 65))
        pts = np.random.default_rng(1).uniform(0.05, 0.95, (20, 2))
        np.testing.assert_allclose(dy.darcy_observe(u, pts), pts[:, 0], atol=1e-12)

    def test_cell_center_mean(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(65, 65))
        h = 1 / 64
        val = dy.darcy_observe(u, [(10.5 * h, 20.5 * h)])
        corners = (u[10, 20] + u[11, 20] + u[10, 21] + u[11, 21]) / 4
        assert val[0] == pytest.approx(corners, abs=1e-12)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            dy.darcy_observe(np.ones((65, 65)), [(1.2, 0.5)])


class TestTaskInterfaces:
    @pytest.mark.parametrize("name,n_obs,dim_m", [
        ("nonlinear", 1, 1), ("seir", 4, 6), ("darcy", 3, 16)])
    def test_simulate_shapes(self, name, n_obs, dim_m):
        task = get_task(name)
        rng = np.random.default_rng(0)
        m = task.sample_params(rng, 3)
        e = np.stack([task.sample_design(rng, n_obs) for _ in range(3)])
        d, scale = task.simulate_batch(m, e, n_obs)
        assert m.shape == (3, dim_m)
        assert e.shape == (3, task.e_width(n_obs))
        assert d.shape == (3, task.d_width(n_obs))
        assert scale.shape == (3,) and np.all(scale > 0)

    @pytest.mark.parametrize("name", ["nonlinear", "seir", "darcy"])
    def test_zero_rows_give_empty_arrays(self, name):
        task = get_task(name)
        d, scale = task.simulate_batch(np.empty((0, task.dim_m)), np.empty((0, task.e_width(3))), 3)
        assert d.shape == (0, task.d_width(3)) and scale.shape == (0,)

    def test_forward_observed_consistency(self):
        for name in ("nonlinear", "seir", "darcy"):
            task = get_task(name)
            rng = np.random.default_rng(5)
            n_obs = 4
            m = task.sample_params(rng, 1)
            e = task.sample_design(rng, n_obs)[None, :]
            d, _ = task.simulate_batch(m, e, n_obs)
            single = np.asarray(task.forward_observed(m[0], e[0])).reshape(-1)
            np.testing.assert_array_equal(single, d[0])
