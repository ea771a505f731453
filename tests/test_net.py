import hashlib
from pathlib import Path

import numpy as np
import pytest

from flowinverse import cfm
from flowinverse import tensor as T
from flowinverse.data import Batch
from flowinverse.net import NetConfig, VelocityNet, init_params, param_count, timestep_basis
from flowinverse.tasks import SeirTask, get_task
from gradcheck import finite_difference_check

PARITY_REFERENCE = Path(__file__).parent / "data" / "seir_parity_reference.npz"


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
            net.forward(np.zeros((1, 1)), 0.5, np.zeros((1, 0)), np.zeros((1, 0)))


def micro_oracle(params, m_t, t, d, e):
    """Independent plain-numpy forward pass for a 1-layer, 1-head, n_emb=2
    transformer on the scalar task; written from scratch against the
    documented architecture, no shared code with the engine."""
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
    tokens = tokens + temb

    x = rms(tokens, p["block0.ln1.g"])
    wqkv, bqkv = p["block0.attn.wqkv.w"], p["block0.attn.wqkv.b"]      # q | k | v
    q = lin(x, wqkv[:, 0:2], bqkv[0:2])
    k = lin(x, wqkv[:, 2:4], bqkv[2:4])
    v = lin(x, wqkv[:, 4:6], bqkv[4:6])
    scores = q @ k.T / np.sqrt(2.0)
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
            out = net.velocity(rng.uniform(0, 1, (3, 1)), 0.4,
                               rng.normal(size=(3, n_obs)), rng.uniform(0, 1, (3, n_obs)))
            assert out.shape == (3, 1)
            assert np.isfinite(out).all()

    def test_micro_config_matches_hand_oracle(self):
        task = get_task("nonlinear")
        cfg = NetConfig(n_emb=2, n_head=1, n_layer=1, dim_m=1, obs_token_dim=2)
        params = init_params(cfg, seed=7)
        m_t, t, d, e = 0.3, 0.6, 0.8, 0.2
        got = VelocityNet(task, cfg, params).forward(
            np.array([[m_t]], dtype=np.float32), t, np.array([[d]]), np.array([[e]])).data[0, 0]
        want = micro_oracle(params, m_t, t, d, e)[0]
        assert got == pytest.approx(want, abs=1e-5)

    def test_bitwise_determinism(self):
        task = get_task("seir")
        cfg = NetConfig(n_emb=16, n_head=2, n_layer=2, dim_m=6, obs_token_dim=3)
        net = VelocityNet(task, cfg, seed=1)
        rng = np.random.default_rng(0)
        m_t = rng.uniform(0, 1, (2, 6))
        d = rng.uniform(0, 50, (2, 8))
        e = rng.uniform(1, 3, (2, 4))
        a = net.velocity(m_t, 0.3, d, e)
        b = net.velocity(m_t, 0.3, d, e)
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
            return T.mse(VelocityNet(task, cfg, p).forward(m_t, 0.5, d, e), target)

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
            v = net.velocity(m_t, 0.6, d, e)
            dp, ep = _permute_observations(task, d, e, rng.permutation(n_obs))
            vp = net.velocity(m_t, 0.6, dp, ep)
            assert np.abs(vp - v).max() <= 1e-6 * np.abs(v).max(), n_obs


def _seir_paper_config():
    return NetConfig(n_emb=32, n_head=4, n_layer=6, dim_m=SeirTask.dim_m,
                     obs_token_dim=SeirTask.obs_token_dim)


QKV = ("wq", "wk", "wv")


def _split_qkv(arrays: dict) -> dict:
    """The arrays under their names before q, k and v were packed: each
    ``attn.wqkv.*`` becomes ``attn.wq.*``, ``attn.wk.*`` and ``attn.wv.*``,
    as views into the packed array."""
    out = {}
    for name, a in arrays.items():
        if ".attn.wqkv." in name:
            out.update((name.replace("wqkv", part), piece)
                       for part, piece in zip(QKV, np.split(a, 3, axis=-1)))
        else:
            out[name] = a
    return out


def _packed_group(name: str) -> list:
    """The unpacked names that share ``name``'s packed parameter."""
    for part in QKV:
        if f".attn.{part}." in name:
            return [name.replace(f".{part}.", f".{other}.") for other in QKV]
    return [name]


def _seir_parity_case():
    """Loss, velocity and parameter gradients of one cfm_loss on frozen,
    perturbed paper-config SEIR parameters (B=64, n_obs=8), and the number of
    tape records (read before the backward sweep empties the tape).
    Gradients come under the unpacked q/k/v names."""
    task = SeirTask()
    params = init_params(_seir_paper_config(), seed=5)
    rng = np.random.default_rng(2024)
    unpacked = _split_qkv({k: p.data for k, p in params.items()})
    for name in sorted(unpacked):   # biases and gains move off 0 and 1 too
        unpacked[name] += rng.normal(0.0, 0.05, unpacked[name].shape).astype(np.float32)
    B, n_obs = 64, 8
    e = np.sort(rng.uniform(1.0, 3.0, (B, n_obs)), axis=1)
    d = rng.uniform(0.0, 100.0, (B, 2 * n_obs))
    m1 = rng.normal(size=(B, task.dim_m))
    m0 = rng.normal(size=(B, task.dim_m))
    t = rng.uniform(0.0, 1.0, B)
    net = VelocityNet(task, _seir_paper_config(), params=params)
    with T.Tape() as tape:
        loss = cfm.cfm_loss(net, Batch(n_obs=n_obs, m=m1, e=e, d=d, index=np.arange(B)), t, m0)
    n_records = len(tape)
    T.backward(loss, tape)
    m_t = cfm.interpolate(m0.astype(np.float32), m1.astype(np.float32),
                          t.astype(np.float32)).astype(np.float32)
    v = net.velocity(m_t, t.astype(np.float32), d, e)
    return loss.item(), v, _split_qkv({k: p.grad for k, p in params.items()}), n_records


class TestSeirPaperConfig:
    def test_matches_reference_engine(self):
        # The reference was recorded with the engine of commit 858d25c (fused
        # linear, separate q, k and v weights, RoPE as a complex multiply)
        # with every rotary position set to 0; a zero rotation is the
        # identity, so that is this position-free net computed by an
        # independently validated engine. It keeps the loss, the velocity
        # and, per parameter, 48 evenly spaced gradient entries plus the
        # largest one. The q, k and v slices of a packed weight share the
        # scale of that weight's largest gradient: the key bias's gradient
        # is 0 up to rounding (softmax is shift-invariant), and its own
        # reference maximum, 1e-10, is rounding noise.
        with np.load(PARITY_REFERENCE) as z:
            ref = dict(z)
        loss, v, grads, _ = _seir_parity_case()
        assert loss == pytest.approx(float(ref["loss"]), rel=1e-5)
        np.testing.assert_allclose(v, ref["velocity"], rtol=0,
                                   atol=1e-5 * np.abs(ref["velocity"]).max())
        assert sorted(grads) == sorted(ref["names"].tolist())
        ref_max = dict(zip(ref["names"].tolist(), ref["maxabs"]))
        stops = np.cumsum(ref["counts"])
        for name, stop, count in zip(ref["names"].tolist(), stops, ref["counts"]):
            group = _packed_group(name)
            scale = max(ref_max[n] for n in group)
            idx = ref["index"][stop - count:stop]
            g = grads[name].reshape(-1)
            np.testing.assert_allclose(g[idx], ref["value"][stop - count:stop], rtol=0,
                                       atol=1e-5 * scale, err_msg=name)
            got_max = max(np.abs(grads[n]).max() for n in group)
            assert got_max == pytest.approx(scale, rel=1e-5), name
            if name.endswith(".attn.wk.b"):
                assert np.abs(g).max() < 1e-6 * scale, name

    def test_tape_records_per_loss(self):
        # one record per layer: the token embedding, the time embedding, the
        # fused attention and MLP sub-blocks of each of the 6 blocks, the head
        # and the loss
        assert _seir_parity_case()[3] == 16

    @pytest.mark.parametrize("B", [1, 10, 256])
    def test_shared_flow_time_matches_per_row_times(self, B):
        # a scalar t is embedded once and broadcast over the batch
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=3)
        rng = np.random.default_rng(B)
        e = np.sort(rng.uniform(1.0, 3.0, (B, 8)), axis=1)
        d = rng.uniform(0.0, 100.0, (B, 16))
        m_t = rng.normal(size=(B, task.dim_m))
        for t in (0.0, 0.37, 1.0):
            v = net.velocity(m_t, t, d, e)
            np.testing.assert_array_equal(v, net.velocity(m_t, np.full(B, t), d, e))


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
    """Digests recorded when the embeddings, the final norm and the head
    were still composed of generic linear, relu², rms_norm, concat and add
    records; their one-op-per-layer forms must not move a bit."""

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
        assert _digest(arrays) == "618630ef3c49df33"

    def test_seir_training_step_on_one_row(self):
        # one row: the (1, 1, E) time embedding sums over the tokens alone
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=4)
        rng = np.random.default_rng(32)
        batch = Batch(n_obs=6, m=task.prior_sample(rng, 1), e=np.sort(rng.uniform(1, 3, (1, 6))),
                      d=rng.uniform(0, 100, (1, 12)), index=np.arange(1))
        arrays = _loss_and_grads(net, batch, rng.uniform(0, 1, 1), task.prior_sample(rng, 1))
        T.adam_step(net.params, T.AdamState(net.params, lr=8e-4))
        arrays.update((f"{k}.stepped", p.data) for k, p in net.params.items())
        assert _digest(arrays) == "262b806279ecb139"

    def test_shared_flow_time_velocity(self):
        task = SeirTask()
        net = VelocityNet(task, _seir_paper_config(), seed=3)
        rng = np.random.default_rng(33)
        e = np.sort(rng.uniform(1.0, 3.0, (10, 8)), axis=1)
        d = rng.uniform(0.0, 100.0, (10, 16))
        v = net.velocity(rng.normal(size=(10, task.dim_m)), 0.37, d, e)
        assert _digest({"v": v}) == "b96aa2c7a846a742"


class TestConfigValidation:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            NetConfig(n_emb=30, n_head=4)

    def test_odd_head_dim_builds_and_runs(self):
        cfg = NetConfig(n_emb=6, n_head=2, n_layer=1)     # 3 features per head
        out = VelocityNet(get_task("nonlinear"), cfg, seed=0).velocity(
            np.full((2, 1), 0.5), 0.3, np.ones((2, 3)), np.full((2, 3), 0.4))
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
