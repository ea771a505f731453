import hashlib
import re

import numpy as np
import pytest

from flowinverse import cfm
from flowinverse import tensor as T
from flowinverse.data import Batch
from flowinverse.net import (Conditioning, NetConfig, VelocityNet, init_params, param_count,
                             timestep_basis)
from flowinverse.tasks import SeirTask, get_task
from gradcheck import finite_difference_check

def timestep_embed(params, t, dim):
    """The flow-time embedding alone: time_embedding added to zero tokens."""
    temb = [params[f"temb.{name}"] for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b")]
    return T.time_embedding(T.Tensor(np.zeros((len(t), 1, dim))),
                            timestep_basis(np.reshape(t, (-1, 1)), dim), *temb)


class TestTimestepEmbed:
    def test_basis_at_zero(self):
        b = timestep_basis(np.array([0.0]), 8)
        np.testing.assert_array_equal(b[0, :4], 0.0)
        np.testing.assert_array_equal(b[0, 4:], 1.0)

    def test_frequency_range(self):
        b4 = timestep_basis(np.array([1.0]), 4)
        # two frequencies, log-spaced over [1, 1e4]
        assert b4[0, 0] == pytest.approx(np.sin(1.0), abs=1e-6)
        assert b4[0, 1] == pytest.approx(np.sin(10000.0 % (2 * np.pi)), abs=1e-3)

    def test_determinism(self):
        cfg = NetConfig(n_emb=8, n_head=2, dim_m=1)
        params = init_params(cfg, seed=3)
        a = timestep_embed(params, np.array([0.37]), 8).data
        b = timestep_embed(params, np.array([0.37]), 8).data
        np.testing.assert_array_equal(a, b)

    def test_tiny_perturbation(self):
        cfg = NetConfig(n_emb=8, n_head=2, dim_m=1)
        params = init_params(cfg, seed=3)
        a = timestep_embed(params, np.array([0.5]), 8).data
        b = timestep_embed(params, np.array([0.5 + 1e-9]), 8).data
        assert np.abs(a - b).max() < 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            timestep_basis(np.array([1.5]), 8)


def n_tokens(task, d, e):
    """Tokens the net sees: the observations, a design token if the task
    has one, and the state."""
    obs, design = task.token_features(d, e)
    assert obs.shape[:1] == (1,) and obs.shape[2] == task.obs_token_dim
    if design is not None:
        assert design.shape == (1, 1, task.design_token_dim)
    return obs.shape[1] + (design is not None) + 1


class TestTokenize:
    def test_seir_counts(self):
        task = get_task("seir")
        d = np.zeros((1, 8))
        e = np.full((1, 4), 2.0)
        assert n_tokens(task, d, e) == 5

    def test_darcy_counts(self):
        task = get_task("darcy")
        e = np.concatenate([[0.3, 0.7], np.random.default_rng(0).uniform(0.1, 0.9, 16)])
        assert n_tokens(task, np.zeros((1, 8)), e[None, :]) == 10   # 8 obs + design + state

    def test_nonlinear_counts(self):
        task = get_task("nonlinear")
        assert n_tokens(task, np.zeros((1, 1)), np.zeros((1, 1))) == 2

    def test_empty_observations_rejected(self):
        cfg = NetConfig(n_emb=8, n_head=2, n_layer=1, dim_m=1, obs_token_dim=2)
        net = VelocityNet(get_task("nonlinear"), cfg, seed=0)
        with pytest.raises(ValueError, match="empty"):
            net.forward(np.zeros((1, 1)), np.full(1, 0.5), np.zeros((1, 0)), np.zeros((1, 0)))


def micro_oracle(params, m_t, t, d, e):
    """Independent plain-numpy forward pass for a 1-layer, 1-head, n_emb=2
    transformer on the scalar task; written from scratch against the
    documented architecture, no shared code with the engine. The time
    embedding goes to the state token alone, and the observation token
    attends to itself alone."""
    def lin(x, w, b):
        return x @ w + b

    def rms(x, g, eps=1e-8):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * g

    p = {k: v.data.astype(np.float64) for k, v in params.items()}
    obs = np.array([[d, e]])                                  # (1 obs token, feat 2)
    tokens = np.concatenate([lin(obs, p["embed.obs.w"], p["embed.obs.b"]),
                             lin(np.array([[m_t]]) @ p["embed.state.w"]
                                 + p["embed.state.b"], np.eye(2), np.zeros(2))], axis=0)
    freqs = np.array([1.0])                                   # dim 2 -> one sin, one cos
    basis = np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])
    h = np.maximum(lin(basis, p["temb.fc1.w"], p["temb.fc1.b"]), 0) ** 2
    temb = lin(h, p["temb.fc2.w"], p["temb.fc2.b"])
    tokens = tokens + np.array([[0.0], [1.0]]) * temb        # the state row only

    x = rms(tokens, p["block0.ln1.g"])
    wqkv, bqkv = p["block0.attn.wqkv.w"], p["block0.attn.wqkv.b"]      # q | k | v
    q = lin(x, wqkv[:, 0:2], bqkv[0:2])
    k = lin(x, wqkv[:, 2:4], bqkv[2:4])
    v = lin(x, wqkv[:, 4:6], bqkv[4:6])
    scores = q @ k.T / np.sqrt(2.0)
    scores[0, 1] = -np.inf                                    # observation -> state
    w = np.exp(scores - scores.max(-1, keepdims=True))
    w = w / w.sum(-1, keepdims=True)
    attn = lin(w @ v, p["block0.attn.wo.w"], p["block0.attn.wo.b"])
    tokens = tokens + attn
    x = rms(tokens, p["block0.ln2.g"])
    x = np.maximum(lin(x, p["block0.mlp.fc.w"], p["block0.mlp.fc.b"]), 0) ** 2
    tokens = tokens + lin(x, p["block0.mlp.proj.w"], p["block0.mlp.proj.b"])
    out = rms(tokens, p["ln_f.g"])
    return lin(out[-1], p["head.w"], p["head.b"])


class TestTransformerForward:
    def test_output_shape_any_n_obs(self):
        task = get_task("nonlinear")
        cfg = NetConfig(n_emb=8, n_head=2, n_layer=2, dim_m=1, obs_token_dim=2)
        net = VelocityNet(task, cfg, seed=0)
        for n_obs in range(1, 17):
            rng = np.random.default_rng(n_obs)
            m_t = rng.uniform(0, 1, (3, 1))
            cond = net.condition(rng.normal(size=(3, n_obs)), rng.uniform(0, 1, (3, n_obs)), [0.4])
            out = net.velocity(m_t, 0, cond)
            assert out.shape == (3, 1)
            assert np.isfinite(out).all()

    def test_micro_config_matches_hand_oracle(self):
        task = get_task("nonlinear")
        cfg = NetConfig(n_emb=2, n_head=1, n_layer=1, dim_m=1, obs_token_dim=2)
        params = init_params(cfg, seed=7)
        m_t, t, d, e = 0.3, 0.6, 0.8, 0.2
        got = VelocityNet(task, cfg, params).forward(
            np.array([[m_t]], dtype=np.float32), np.full(1, t), np.array([[d]]),
            np.array([[e]])).data[0, 0]
        want = micro_oracle(params, m_t, t, d, e)[0]
        # relative: the velocity is about 0.03, and the old architecture's
        # differs from this oracle's by 3e-6 of it
        assert got == pytest.approx(want, rel=1e-6)

    def test_bitwise_determinism(self):
        task = get_task("seir")
        cfg = NetConfig(n_emb=16, n_head=2, n_layer=2, dim_m=6, obs_token_dim=3)
        net = VelocityNet(task, cfg, seed=1)
        rng = np.random.default_rng(0)
        m_t = rng.uniform(0, 1, (2, 6))
        d = rng.uniform(0, 50, (2, 8))
        e = rng.uniform(1, 3, (2, 4))
        a = net.velocity(m_t, 0, net.condition(d, e, [0.3]))
        b = net.velocity(m_t, 0, net.condition(d, e, [0.3]))
        np.testing.assert_array_equal(a, b)

    def test_param_count_pure_function_of_config(self):
        cfg = NetConfig(n_emb=32, n_head=4, n_layer=4, dim_m=16,
                        obs_token_dim=3, design_token_dim=2)
        n1 = param_count(init_params(cfg, seed=0))
        n2 = param_count(init_params(cfg, seed=999))
        assert n1 == n2

    def test_end_to_end_gradients_micro_config(self):
        task = get_task("nonlinear")
        cfg = NetConfig(n_emb=8, n_head=2, n_layer=2, dim_m=1, obs_token_dim=2)
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(0)
        m_t = rng.uniform(0, 1, (2, 1))
        d = rng.normal(size=(2, 3))
        e = rng.uniform(0, 1, (2, 3))
        target = rng.normal(size=(2, 1)).astype(np.float64)

        def fn(p):
            return T.mse(VelocityNet(task, cfg, p).forward(m_t, np.full(2, 0.5), d, e), target)

        worst = finite_difference_check(fn, params, max_entries=6)
        assert worst < 1e-4


def _observations(task, rng, n_obs):
    """Random (d, e) rows for 2 instances with ``n_obs`` observations each."""
    if task.name == "seir":
        return rng.uniform(0, 100, (2, 2 * n_obs)), rng.uniform(0, 3, (2, n_obs))
    if task.name == "darcy":
        return rng.normal(size=(2, n_obs)), rng.uniform(0, 1, (2, 2 + 2 * n_obs))
    return rng.normal(size=(2, n_obs)), rng.uniform(0, 1, (2, n_obs))


def _permute_observations(task, d, e, perm):
    """Reorder the observations, each with its own design."""
    n = len(perm)
    if task.name == "seir":       # a time with its (I, R) pair
        return d.reshape(-1, n, 2)[:, perm].reshape(-1, 2 * n), e[:, perm]
    if task.name == "darcy":      # a value with its (x, y); (e1, e2) stay first
        pts = e[:, 2:].reshape(-1, n, 2)[:, perm].reshape(-1, 2 * n)
        return d[:, perm], np.concatenate([e[:, :2], pts], axis=1)
    return d[:, perm], e[:, perm]


class TestPermutationInvariance:
    @pytest.mark.parametrize("task_name", ["nonlinear", "seir", "darcy"])
    def test_velocity_ignores_observation_order(self, task_name):
        task = get_task(task_name)
        cfg = NetConfig(n_emb=16, n_head=2, n_layer=2, dim_m=task.dim_m,
                        obs_token_dim=task.obs_token_dim,
                        design_token_dim=task.design_token_dim)
        # float64 weights: the float32 rounding of a reordered softmax sum
        # reaches a few 1e-7 of max|v| on the scalar task, near the bound
        params = {k: T.Tensor(p.data, dtype=np.float64)
                  for k, p in init_params(cfg, seed=4).items()}
        net = VelocityNet(task, cfg, params=params)
        rng = np.random.default_rng(11)
        for n_obs in (4, 8):
            d, e = _observations(task, rng, n_obs)
            m_t = rng.normal(size=(2, task.dim_m))
            v = net.velocity(m_t, 0, net.condition(d, e, [0.6]))
            dp, ep = _permute_observations(task, d, e, rng.permutation(n_obs))
            vp = net.velocity(m_t, 0, net.condition(dp, ep, [0.6]))
            assert np.abs(vp - v).max() <= 1e-6 * np.abs(v).max(), n_obs


def _seir_paper_config():
    return NetConfig(n_emb=32, n_head=4, n_layer=6, dim_m=SeirTask.dim_m,
                     obs_token_dim=SeirTask.obs_token_dim)


def two_stream_oracle(params, task, n_head, m_t, t, d, e):
    """Independent float64 velocity of the two-stream net, one row and one
    head at a time, written from the documented architecture with no code
    shared with the engine: the observation (and design) tokens run a plain
    transformer of their own, without the flow time, and the state token,
    which alone gets the time embedding, attends to their keys and its own.
    The observation tokens of the last block are computed too, and unused."""
    p = {k: v.data.astype(np.float64) for k, v in params.items()}
    n_layer = sum(k.endswith(".ln1.g") for k in p)
    E = p["head.w"].shape[0]
    hd = E // n_head

    def lin(x, name):
        return x @ p[name + ".w"] + p[name + ".b"]

    def rms(x, g):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-8) * g

    def softmax(z):
        z = np.exp(z - z.max(-1, keepdims=True))
        return z / z.sum(-1, keepdims=True)

    def mlp(x, b):
        return x + lin(np.maximum(lin(rms(x, p[b + ".ln2.g"]), b + ".mlp.fc"), 0) ** 2,
                       b + ".mlp.proj")

    obs, design = task.token_features(np.asarray(d, np.float64), np.asarray(e, np.float64))
    t = np.asarray(t, np.float64)
    half = E // 2
    # float32 flow-time angles, as the engine forms them: at a frequency of
    # 1e4 their rounding alone moves the velocity by up to 2e-5 of max|v|
    freqs = (10000.0 ** (np.arange(half) / max(half - 1, 1))).astype(np.float32)
    out = []
    for row in range(len(m_t)):
        fixed = lin(obs[row], "embed.obs")
        if design is not None:
            fixed = np.vstack([fixed, lin(design[row], "embed.design")])
        angles = (np.float32(t[row]) * freqs).astype(np.float64)
        basis = np.concatenate([np.sin(angles), np.cos(angles)])
        temb = lin(np.maximum(lin(basis, "temb.fc1"), 0) ** 2, "temb.fc2")
        state = lin(np.asarray(m_t[row], np.float64), "embed.state") + temb
        for i in range(n_layer):
            b = f"block{i}"
            qkv_f = lin(rms(fixed, p[b + ".ln1.g"]), b + ".attn.wqkv")
            qkv_s = lin(rms(state, p[b + ".ln1.g"]), b + ".attn.wqkv")
            keys = np.vstack([qkv_f[:, E:2 * E], qkv_s[None, E:2 * E]])
            values = np.vstack([qkv_f[:, 2 * E:], qkv_s[None, 2 * E:]])
            ctx_f = np.empty((len(fixed), E))
            ctx_s = np.empty(E)
            for h in range(n_head):
                c = slice(h * hd, (h + 1) * hd)
                w = softmax(qkv_f[:, c] @ keys[:-1, c].T / np.sqrt(hd))    # own keys only
                ctx_f[:, c] = w @ values[:-1, c]
                ctx_s[c] = softmax(keys[:, c] @ qkv_s[c] / np.sqrt(hd)) @ values[:, c]
            fixed = mlp(fixed + lin(ctx_f, b + ".attn.wo"), b)
            state = mlp(state + lin(ctx_s, b + ".attn.wo"), b)
        out.append(lin(rms(state, p["ln_f.g"]), "head"))
    return np.array(out)


def _seir_oracle_case(B=4, n_obs=8):
    """A net with perturbed paper-config SEIR parameters (biases and gains
    off 0 and 1 too) and one cfm_loss batch for it: (net, batch, t, m0)."""
    task = SeirTask()
    params = init_params(_seir_paper_config(), seed=5)
    rng = np.random.default_rng(2024)
    for name in sorted(params):
        params[name].data += rng.normal(0.0, 0.05, params[name].shape).astype(np.float32)
    e = np.sort(rng.uniform(1.0, 3.0, (B, n_obs)), axis=1)
    d = rng.uniform(0.0, 100.0, (B, 2 * n_obs))
    batch = Batch(n_obs=n_obs, m=rng.normal(size=(B, task.dim_m)), e=e, d=d,
                  index=np.arange(B))
    net = VelocityNet(task, _seir_paper_config(), params=params)
    return net, batch, rng.uniform(0.0, 1.0, B), rng.normal(size=(B, task.dim_m))


class TestSeirPaperConfig:
    def test_matches_reference_engine(self):
        # the loss and the velocity of the engine, in float32, against the
        # reference engine, the float64 two-stream oracle, at the bounds the
        # earlier engine parity used
        net, batch, t, m0 = _seir_oracle_case()
        with T.Tape():
            loss = cfm.cfm_loss(net, batch, t, m0).item()
        m1 = batch.m.astype(np.float32)
        m0, t = m0.astype(np.float32), t.astype(np.float32)
        m_t = cfm.interpolate(m0, m1, t).astype(np.float32)
        want = two_stream_oracle(net.params, net.task, net.config.n_head, m_t, t,
                                 batch.d, batch.e)
        assert loss == pytest.approx(np.mean((want - (m1 - m0)) ** 2), rel=1e-5)
        scale = np.abs(want).max()
        np.testing.assert_allclose(net.forward(m_t, t, batch.d, batch.e).data, want,
                                   rtol=0, atol=1e-5 * scale)
        # the solver's path takes one flow time for the whole batch
        want = two_stream_oracle(net.params, net.task, net.config.n_head, m_t,
                                 np.full(len(t), t[0]), batch.d, batch.e)
        np.testing.assert_allclose(net.velocity(m_t, 0, net.condition(batch.d, batch.e, t[:1])),
                                   want, rtol=0, atol=1e-5 * np.abs(want).max())

    def test_gradients_match_finite_differences(self):
        # per parameter, its three largest gradient entries in float64; the
        # key bias's gradient is 0 up to rounding (softmax is shift-invariant
        # within each stream), so its largest entries are the query's and value's
        net, batch, t, m0 = _seir_oracle_case(B=3)

        def fn(p):
            return cfm.cfm_loss(VelocityNet(net.task, net.config, params=p), batch, t, m0)

        p64 = {k: T.Tensor(p.data, requires_grad=True, dtype=np.float64)
               for k, p in net.params.items()}
        with T.Tape() as tape:
            loss = fn(p64)
        T.backward(loss, tape)
        entries = {k: np.argsort(np.abs(p.grad).reshape(-1))[-3:] for k, p in p64.items()}
        assert finite_difference_check(fn, net.params, entries=entries) < 1e-5

    def test_tape_records_per_loss(self):
        # one record per layer: the token embedding, the time embedding, the
        # fused attention and MLP sub-blocks of each of the 6 blocks, the head
        # and the loss
        net, batch, t, m0 = _seir_oracle_case()
        with T.Tape() as tape:
            cfm.cfm_loss(net, batch, t, m0)
        assert len(tape) == 16

    @pytest.mark.parametrize("B", [1, 10, 256])
    def test_shared_flow_time_matches_per_row_times(self, B):
        # a solver step's one flow time, embedded once for the batch, gives
        # each row the velocity that training's per-row times give it
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=3)
        rng = np.random.default_rng(B)
        e = np.sort(rng.uniform(1.0, 3.0, (B, 8)), axis=1)
        d = rng.uniform(0.0, 100.0, (B, 16))
        m_t = rng.normal(size=(B, task.dim_m))
        times = (0.0, 0.37, 1.0)
        cond = net.condition(d, e, times)
        for k, t in enumerate(times):
            want = net.forward(m_t, np.full(B, t), d, e).data
            np.testing.assert_allclose(net.velocity(m_t, k, cond), want,
                                       rtol=0, atol=1e-6 * np.abs(want).max())


def _digest(arrays: dict) -> str:
    """sha256 of named arrays, by name: each name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _loss_and_grads(net, batch, t, m0):
    with T.Tape() as tape:
        loss = cfm.cfm_loss(net, batch, t, m0)
    T.backward(loss, tape)
    return {"loss": loss.data, **{k: p.grad for k, p in net.params.items()}}


class TestBitwisePins:
    """Digests of the two-stream net, recorded once
    ``TestSeirPaperConfig`` had checked it against an independent oracle
    and finite differences; a refactor of the engine must not move a bit."""

    def test_darcy_loss_and_gradients(self):
        # three embedding groups: observations, the design token and the state
        task = get_task("darcy")
        cfg = NetConfig(n_emb=16, n_head=2, n_layer=2, dim_m=task.dim_m,
                        obs_token_dim=task.obs_token_dim, design_token_dim=task.design_token_dim)
        rng = np.random.default_rng(31)
        B, n_obs = 7, 5
        batch = Batch(n_obs=n_obs, m=rng.normal(size=(B, task.dim_m)),
                      e=rng.uniform(0, 1, (B, 2 + 2 * n_obs)), d=rng.normal(size=(B, n_obs)),
                      index=np.arange(B))
        arrays = _loss_and_grads(VelocityNet(task, cfg, seed=6), batch, rng.uniform(0, 1, B),
                                 rng.normal(size=(B, task.dim_m)))
        assert _digest(arrays) == "40e0941a6d4bb956"

    def test_seir_training_step_on_one_row(self):
        # one row: the (1, 1, E) time embedding reaches the state token alone
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=4)
        rng = np.random.default_rng(32)
        batch = Batch(n_obs=6, m=task.prior_sample(rng, 1), e=np.sort(rng.uniform(1, 3, (1, 6))),
                      d=rng.uniform(0, 100, (1, 12)), index=np.arange(1))
        arrays = _loss_and_grads(net, batch, rng.uniform(0, 1, 1), task.prior_sample(rng, 1))
        T.adam_step(net.params, T.AdamState(net.params, lr=8e-4))
        arrays.update((f"{k}.stepped", p.data) for k, p in net.params.items())
        assert _digest(arrays) == "fb2bcbcf37023718"

    def test_shared_flow_time_velocity(self):
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=3)
        rng = np.random.default_rng(33)
        e = np.sort(rng.uniform(1.0, 3.0, (10, 8)), axis=1)
        d = rng.uniform(0.0, 100.0, (10, 16))
        v = net.velocity(rng.normal(size=(10, task.dim_m)), 0, net.condition(d, e, [0.37]))
        assert _digest({"v": v}) == "f934deb4d4c035f0"

    def test_sample_batch_on_a_perturbed_net(self):
        # gains off 1 and biases off 0: a fresh net's unit gains hide a
        # reordering of the inference path's float operations
        net, batch, _, _ = _seir_oracle_case(B=2)
        draws = {method: cfm.sample_batch(net, batch.d, batch.e, [11, 12],
                                          cfm.SamplerConfig(steps=steps, method=method,
                                                            ensemble=3))
                 for method, steps in (("euler", 5), ("rk4", 2))}
        assert _digest(draws) == "da30fc69b16202d1"


class TestConditionedVelocity:
    """``velocity`` from a prebuilt conditioning is ``forward``'s velocity,
    up to float rounding, without a tape record."""

    @staticmethod
    def _net(task_name, n_layer):
        task = get_task(task_name)
        if task_name == "seir" and n_layer == 6:
            return VelocityNet(task, _seir_paper_config(), seed=8)
        cfg = NetConfig(n_emb=16, n_head=2, n_layer=n_layer, dim_m=task.dim_m,
                        obs_token_dim=task.obs_token_dim, design_token_dim=task.design_token_dim)
        return VelocityNet(task, cfg, seed=n_layer)

    @staticmethod
    def _batch(net, B, seed):
        rng = np.random.default_rng(seed)
        pairs = [_observations(net.task, rng, 8) for _ in range(5)]     # 2 rows each
        d, e = (np.concatenate(rows)[:B] for rows in zip(*pairs))
        return d, e, rng.normal(size=(B, net.task.dim_m)).astype(np.float32), rng

    # n_layer 1: the first block is also the state_only block
    @pytest.mark.parametrize("task_name, n_layer", [
        ("nonlinear", 1), ("nonlinear", 2), ("seir", 1), ("seir", 6),
        ("darcy", 1), ("darcy", 2)])
    @pytest.mark.parametrize("B", [1, 10])
    def test_equals_forward(self, task_name, n_layer, B):
        # the two paths run GEMMs of different shapes, whose rows OpenBLAS
        # does not always round alike
        net = self._net(task_name, n_layer)
        d, e, m_t, rng = self._batch(net, B, B * 10 + n_layer)
        times = (0.0, 0.37, 1.0, float(rng.uniform(0, 1)))
        cond = net.condition(d, e, times)
        for k, t in enumerate(times):
            want = net.forward(m_t, np.full(B, t), d, e).data
            got = net.velocity(m_t, k, cond)
            assert got.dtype == want.dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("task_name, n_layer", [("nonlinear", 2), ("seir", 6), ("darcy", 2)])
    def test_folded_gains_match_forward_and_the_oracle(self, task_name, n_layer):
        # every parameter perturbed as in _seir_oracle_case: a fresh net's
        # gains are all 1, under which a gain left out of the fold cannot show
        net = self._net(task_name, n_layer)
        rng = np.random.default_rng(41)
        for p in (net.params[name] for name in sorted(net.params)):
            p.data += rng.normal(0.0, 0.05, p.shape).astype(np.float32)
        d, e, _, rng = self._batch(net, 2, 7)
        times = (0.0, 0.37, 1.0)
        for ensemble in (1, 4):
            cond = Conditioning.join([(net.condition(d, e, times), slice(None))], ensemble)
            d_rows, e_rows = np.repeat(d, ensemble, axis=0), np.repeat(e, ensemble, axis=0)
            m_t = rng.normal(size=(len(d_rows), net.task.dim_m)).astype(np.float32)
            for k, t in enumerate(times):
                got = net.velocity(m_t, k, cond)
                want = net.forward(m_t, np.full(len(m_t), t), d_rows, e_rows).data
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())
                want = two_stream_oracle(net.params, net.task, net.config.n_head, m_t,
                                         np.full(len(m_t), t), d_rows, e_rows)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("task_name, n_layer", [("seir", 6), ("darcy", 2)])
    def test_velocity_writes_only_the_state_slots(self, task_name, n_layer):
        net = self._net(task_name, n_layer)
        d, e, m_t, rng = self._batch(net, 10, 5)
        cond = net.condition(d, e, (0.0, 1.0, float(rng.uniform(0, 1))))
        cached = [(k[..., :-1].copy(), v[:, :, :-1].copy()) for k, v in zip(cond.keys, cond.values)]
        assert len(cached) == n_layer
        for c, m in enumerate((m_t, 100 * m_t, -m_t)):
            net.velocity(m, c, cond)
            for (k, v), (k0, v0) in zip(zip(cond.keys, cond.values), cached):
                np.testing.assert_array_equal(k[..., :-1], k0)
                np.testing.assert_array_equal(v[:, :, :-1], v0)

    def test_a_conditioning_serves_integrations_in_turn(self, monkeypatch):
        net = self._net("seir", 6)
        d, e, _, _ = self._batch(net, 10, 6)
        cfg = cfm.SamplerConfig(steps=50, ensemble=3)
        fresh = cfm.sample_batch(net, d, e, list(range(10)), cfg)
        # one row per instance
        cond = net.condition(np.float32(d), np.float32(e), cfm._flow_times(cfg))
        monkeypatch.setattr(net, "condition", lambda d, e, times: cond)
        for _ in range(2):
            np.testing.assert_array_equal(cfm.sample_batch(net, d, e, list(range(10)), cfg), fresh)

    @pytest.mark.parametrize("task_name, n_layer", [("nonlinear", 2), ("seir", 6), ("darcy", 2)])
    @pytest.mark.parametrize("instances, ensemble, n_obs",
                             [(1, 10, 8), (16, 10, 8), (25, 10, 5), (4, 100, 4)])
    def test_repeated_conditioning_is_that_of_repeated_rows(self, task_name, n_layer,
                                                            instances, ensemble, n_obs):
        # sample_batch conditions each instance once and repeats the cache
        # for its members: bitwise the cache of the repeated rows
        net = self._net(task_name, n_layer)
        rng = np.random.default_rng(instances * n_obs)
        pairs = [_observations(net.task, rng, n_obs) for _ in range((instances + 1) // 2)]
        d, e = (np.float32(np.concatenate(rows)[:instances]) for rows in zip(*pairs))
        once = net.condition(d, e, [0.5])
        rows = net.condition(np.repeat(d, ensemble, axis=0), np.repeat(e, ensemble, axis=0), [0.5])
        repeated = Conditioning.join([(once, slice(None))], ensemble)
        np.testing.assert_array_equal(repeated.keys[..., :-1], rows.keys[..., :-1])
        np.testing.assert_array_equal(repeated.values[..., :-1, :], rows.values[..., :-1, :])

    def test_records_nothing_on_an_open_tape(self):
        net = self._net("seir", 6)
        d, e = _observations(net.task, np.random.default_rng(3), 4)
        cond = net.condition(d, e, [0.5])
        with T.Tape() as tape:
            v = net.velocity(np.zeros((2, net.task.dim_m)), 0, cond)
        assert len(tape) == 0 and v.shape == (2, net.task.dim_m)

    def test_rejects_rows_that_differ_from_the_conditioning(self):
        net = self._net("nonlinear", 2)
        d, e = _observations(net.task, np.random.default_rng(4), 3)
        cond = net.condition(d, e, [0.5])          # 2 rows
        with pytest.raises(ValueError, match="m_t must have shape"):
            net.velocity(np.zeros((3, 1)), 0, cond)

    @pytest.mark.parametrize("t", [np.full(2, 0), np.full(1, 0), [[0]]])
    def test_velocity_rejects_a_time_per_row(self, t):
        # a solver call integrates every row at one flow time: one index
        # into the conditioning's times
        net = self._net("nonlinear", 2)
        cond = net.condition(*_observations(net.task, np.random.default_rng(4), 3), [0.5, 0.5])
        with pytest.raises(ValueError, match="k must be a scalar"):
            net.velocity(np.zeros((2, 1)), t, cond)

    @pytest.mark.parametrize("k", [-1, -2, 2])
    def test_velocity_rejects_an_index_outside_the_times(self, k):
        # a negative index would read a flow time from the end
        net = self._net("nonlinear", 2)
        cond = net.condition(*_observations(net.task, np.random.default_rng(4), 3), [0.5, 0.7])
        with pytest.raises(ValueError, match=r"k must lie in \[0, 2\)"):
            net.velocity(np.zeros((2, 1)), k, cond)

    @pytest.mark.parametrize("t", [0.5, np.full(1, 0.5), np.full(3, 0.5), np.full((2, 1), 0.5)])
    def test_forward_rejects_times_not_one_per_row(self, t):
        # training draws one flow time per row: forward takes exactly (B,)
        net = self._net("nonlinear", 2)
        d, e = _observations(net.task, np.random.default_rng(4), 3)
        with pytest.raises(ValueError, match=r"t must have shape \(2,\), a time per row"):
            net.forward(np.zeros((2, 1)), t, d, e)

    @pytest.mark.parametrize("task_name", ["nonlinear", "seir", "darcy"])
    def test_rejects_d_and_e_of_different_counts(self, task_name):
        net = self._net(task_name, 1)
        d, e = _observations(net.task, np.random.default_rng(5), 3)
        cases = [(d[:1], e), (d[:, :-1], e), (d, e[:, :-1])]
        if task_name == "seir":               # widths 2n and n, of one count
            cases.append((d[:, :4], e))
        for dd, ee in cases:
            msg = rf"d \({len(dd)}, {dd.shape[1]}\) and e \({len(ee)}, {ee.shape[1]}\)"
            with pytest.raises(ValueError, match=msg):
                net.condition(dd, ee, [0.5])
            with pytest.raises(ValueError, match=msg):
                net.forward(np.zeros((len(dd), net.task.dim_m)), np.full(len(dd), 0.5), dd, ee)

    def test_condition_rejects_empty_observations(self):
        net = self._net("nonlinear", 1)
        with pytest.raises(ValueError, match="empty"):
            net.condition(np.zeros((1, 0)), np.zeros((1, 0)), [0.5])


class TestMixedCounts:
    """``sample_batch`` of instances of several observation counts: one
    integration, each count's keys and values padded to the longest and the
    padded slots masked."""

    COUNTS = [3, 1, 3, 2]

    @staticmethod
    def _instances(counts):
        rng = np.random.default_rng(sum(counts))
        e = [np.sort(rng.uniform(1.0, 3.0, n)) for n in counts]
        d = [rng.uniform(0.0, 100.0, 2 * n) for n in counts]
        return d, e, [21 + i for i in range(len(counts))]

    @staticmethod
    def _per_count(net, d, e, seeds, cfg):
        """One sample_batch call per count, its rows put back in input order."""
        out = np.empty((len(seeds), cfg.ensemble, net.task.dim_m))
        for n in set(map(len, e)):
            rows = [i for i, row in enumerate(e) if len(row) == n]
            out[rows] = cfm.sample_batch(net, np.stack([d[i] for i in rows]),
                                         np.stack([e[i] for i in rows]),
                                         [seeds[i] for i in rows], cfg)
        return out

    @pytest.mark.parametrize("method, steps", [("euler", 5), ("rk4", 2)])
    def test_rows_in_input_order_match_per_count_calls(self, method, steps):
        # a padded row's softmax sums over more slots, so it matches its
        # count sampled alone up to float rounding, not bitwise
        net = _seir_oracle_case(B=2)[0]
        d, e, seeds = self._instances(self.COUNTS)
        cfg = cfm.SamplerConfig(steps=steps, method=method, ensemble=3)
        got = cfm.sample_batch(net, d, e, seeds, cfg)
        want = self._per_count(net, d, e, seeds, cfg)
        assert got.shape == (4, 3, net.task.dim_m)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("path_batch", [cfm.PATH_BATCH, 6])
    def test_a_nonfinite_path_names_its_input_instance_and_member(self, path_batch,
                                                                   monkeypatch):
        # instance 3 (2 observations, padded to 3) member 1 is path 10; a
        # bound of 6 paths puts it in the second integration
        monkeypatch.setattr(cfm, "PATH_BATCH", path_batch)
        net = _seir_oracle_case(B=2)[0]
        d, e, seeds = self._instances(self.COUNTS)
        prior_draws = cfm._prior_draws

        def poisoned(task, n, seed):
            draws = prior_draws(task, n, seed)
            if seed == seeds[3]:
                draws[1] = np.nan
            return draws

        monkeypatch.setattr(cfm, "_prior_draws", poisoned)
        with pytest.raises(cfm.FlowDivergedError, match=re.escape(
                "velocity became non-finite at t=0.0000 in row 10 (instance 3, member 1)")) as err:
            cfm.sample_batch(net, d, e, seeds, cfm.SamplerConfig(steps=2, ensemble=3))
        assert err.value.row == 10

    def test_path_batch_holds_across_counts(self, monkeypatch):
        net = _seir_oracle_case(B=2)[0]
        d, e, seeds = self._instances(self.COUNTS)
        cfg = cfm.SamplerConfig(steps=3, ensemble=3)
        whole = cfm.sample_batch(net, d, e, seeds, cfg)
        monkeypatch.setattr(cfm, "PATH_BATCH", 6)       # 2 instances per integration
        paths, velocity = [], net.velocity

        def recording(m_t, k, cond):
            paths.append(len(m_t))
            return velocity(m_t, k, cond)

        monkeypatch.setattr(net, "velocity", recording)
        got = cfm.sample_batch(net, d, e, seeds, cfg)
        assert paths == [6] * 6                         # 2 integrations of 3 steps
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-6 * np.abs(whole).max())

    def test_padded_slots_are_zero_and_masked(self):
        # zero keys score 0 and the mask makes that −inf, whose weight is 0;
        # zero values then add nothing, where garbage could add a NaN.
        # RuntimeWarnings are errors in this suite.
        net = _seir_oracle_case(B=2)[0]
        d, e, _ = self._instances([3, 1])
        times = [0.0, 0.5]
        parts = [(net.condition(np.float32(d[i])[None], np.float32(e[i])[None], times), [i])
                 for i in range(2)]
        cond = Conditioning.join(parts, 2)              # rows 2 and 3: 1 observation
        assert cond.keys.shape[-1] == cond.values.shape[-2] == 4
        assert not cond.keys[:, 2:, ..., 1:3].any() and not cond.values[:, 2:, :, 1:3].any()
        np.testing.assert_array_equal(cond.mask[2:, ..., 1:3], -np.inf)
        assert not cond.mask[:2].any() and not cond.mask[..., [0, 3]].any()
        assert Conditioning.join(parts[:1], 2).mask is None
        m_t = np.random.default_rng(1).normal(size=(4, net.task.dim_m)).astype(np.float32)
        for k in range(len(times)):
            got = net.velocity(m_t, k, cond)
            for i, (c, _) in enumerate(parts):
                want = net.velocity(m_t[2 * i:2 * i + 2], k, Conditioning.join([(c, [0])], 2))
                np.testing.assert_allclose(got[2 * i:2 * i + 2], want, rtol=0,
                                           atol=1e-6 * np.abs(want).max())


class TestConfigValidation:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            NetConfig(n_emb=30, n_head=4)

    def test_odd_head_dim_builds_and_runs(self):
        cfg = NetConfig(n_emb=6, n_head=2, n_layer=1)     # 3 features per head
        net = VelocityNet(get_task("nonlinear"), cfg, seed=0)
        out = net.velocity(np.full((2, 1), 0.5), 0,
                           net.condition(np.ones((2, 3)), np.full((2, 3), 0.4), [0.3]))
        assert out.shape == (2, 1) and np.isfinite(out).all()

    def test_rejects_odd_n_emb(self):
        # the flow-time basis has 2 * (n_emb // 2) features
        with pytest.raises(ValueError, match="n_emb"):
            NetConfig(n_emb=5, n_head=1)

    @pytest.mark.parametrize("field, value", [
        ("n_emb", 0), ("n_emb", -8), ("n_head", 0), ("n_head", -2),
        ("n_layer", 0), ("n_layer", -1), ("dim_m", 0),
    ])
    def test_rejects_sizes_below_one(self, field, value):
        # checked before the divisibility test, so n_head=0 is no ZeroDivisionError
        with pytest.raises(ValueError, match="must be >= 1"):
            NetConfig(**{"n_emb": 8, "n_head": 2, "n_layer": 1, field: value})
