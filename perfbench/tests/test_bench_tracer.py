import inspect
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import flowinverse
from flowinverse import cfm, data, metrics, tensor
from flowinverse.net import VelocityNet
from flowinverse.tasks import SeirTask

from perfbench.tracer import Tracer
from perfbench.workloads import seir_net_config


def _snapshot():
    """Every attribute of every flowinverse module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "flowinverse" or name.startswith("flowinverse.")):
            continue
        for attr, value in vars(mod).items():
            snap[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[f"{name}.{attr}", cattr] = cvalue
    snap["scipy.sparse.linalg", "cg"] = scipy.sparse.linalg.cg
    return snap


def test_uninstall_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer().install()
    try:
        assert tensor.add is not before["flowinverse.tensor", "add"]
        # a second reference, made by `from .cfm import sample_posterior`
        assert metrics.sample_posterior is cfm.sample_posterior
        assert cfm.sample_posterior is not before["flowinverse.cfm", "sample_posterior"]
        assert cfm.batch_iterator is data.batch_iterator
        assert SeirTask.prior_sample is not before["flowinverse.tasks.seir.SeirTask", "prior_sample"]
        assert scipy.sparse.linalg.cg is not before["scipy.sparse.linalg", "cg"]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _seir_batch(n_obs=8, size=256, seed=0):
    task = SeirTask()
    shard = data.generate_shard(task, n_obs, size, seed)
    batch = next(data.batch_iterator([shard], size, seed=seed))
    rng = np.random.default_rng(seed)
    return task, batch, rng.uniform(0, 1, size), task.prior_sample(rng, size)


def test_per_op_backward_times_sum_to_backward_time():
    # The per-op closures run inside backward(); what they leave out is the
    # sweep's own bookkeeping (gradient accumulation, leaf lookup), which at
    # the paper config stays well under the stated 15% tolerance.
    task, batch, t, m0 = _seir_batch()
    net = VelocityNet(task, seir_net_config(), seed=0)
    with Tracer() as tr:
        for _ in range(3):
            with tensor.Tape() as tape:
                loss = cfm.cfm_loss(net, batch, t, m0)
            net.zero_grad()
            tensor.backward(loss, tape)
    total = tr.seconds["tensor.backward"]
    per_op = sum(tr.bwd_seconds.values())
    assert tr.calls["tensor.backward"] == 3
    assert set(tr.bwd_seconds) >= {"matmul", "rope_apply", "rms_norm", "softmax_lastdim", "mean_all"}
    assert 0.85 * total <= per_op <= total


def test_tracing_leaves_results_unchanged():
    task, batch, t, m0 = _seir_batch(size=32)

    def grads():
        net = VelocityNet(task, seir_net_config(), seed=1)
        with tensor.Tape() as tape:
            loss = cfm.cfm_loss(net, batch, t, m0)
        tensor.backward(loss, tape)
        return loss.item(), [net.params[k].grad for k in sorted(net.params)]

    plain = grads()
    with Tracer() as tr:
        traced = grads()
    assert tr.calls["net.VelocityNet.forward"] == 1
    assert traced[0] == plain[0]
    assert all(np.array_equal(a, b) for a, b in zip(plain[1], traced[1]))


def test_counts_calls_within_scopes_and_cg_iterations():
    from flowinverse.tasks import darcy

    n = darcy.CONST.n_grid
    with Tracer() as tr:
        darcy.darcy_solve(np.ones((n, n)), 0.3, 0.7)     # looked up after install
        flowinverse.cfm.sample_posterior(
            VelocityNet(SeirTask(), seir_net_config(), seed=0),
            np.zeros(8), np.linspace(1, 3, 4), cfm.SamplerConfig(steps=5, ensemble=3))
    assert tr.calls["tasks.darcy.darcy_solve"] == 1
    assert tr.cg_iterations > 10
    assert tr.within["cfm.sample_posterior", "net.VelocityNet.velocity"] == 5
    assert tr.within["cfm.sample_posterior", "tasks.seir.SeirTask.prior_sample"] == 3
