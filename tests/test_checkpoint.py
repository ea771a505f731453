import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest

from flowinverse import artifact
from flowinverse.checkpoint import (FORMAT_VERSION, MAGIC, CheckpointFormatError,
                                    load_checkpoint, save_checkpoint)
from flowinverse.net import NetConfig, VelocityNet, init_params, param_count
from flowinverse.tasks import get_task


def make_params(seed=0):
    cfg = NetConfig(n_emb=8, n_head=2, n_layer=1, dim_m=6, obs_token_dim=3)
    return cfg, init_params(cfg, seed=seed)


class TestRoundTrip:
    def test_bitwise_parameters(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params, step=42,
                        rng_state={"seed": 5, "epoch": 3})
        ck = load_checkpoint(p)
        assert ck.task_name == "seir"
        assert ck.net_config == cfg
        assert ck.step == 42
        assert ck.rng_state == {"seed": 5, "epoch": 3}
        assert list(ck.params) == list(params)
        for k in params:
            np.testing.assert_array_equal(ck.params[k].data, params[k].data)

    def test_save_load_save_identical_bytes(self, tmp_path):
        cfg, params = make_params(3)
        p1 = tmp_path / "a.cfmt"
        p2 = tmp_path / "b.cfmt"
        save_checkpoint(p1, "seir", cfg, params, step=1)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.task_name, ck.net_config, ck.params, step=ck.step,
                        rng_state=ck.rng_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_inference_identical_after_reload(self, tmp_path):
        task = get_task("seir")
        cfg, params = make_params(1)
        net = VelocityNet(task, cfg, params)
        rng = np.random.default_rng(0)
        m_t = rng.uniform(0, 1, (2, 6))
        d = rng.uniform(0, 40, (2, 8))
        e = rng.uniform(1, 3, (2, 4))
        before = net.velocity(m_t, 0, net.condition(d, e, [0.5]))
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params)
        ck = load_checkpoint(p)
        loaded = VelocityNet(task, ck.net_config, ck.params)
        after = loaded.velocity(m_t, 0, loaded.condition(d, e, [0.5]))
        np.testing.assert_array_equal(before, after)

    def test_param_count_in_header(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params)
        raw = p.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len])
        assert header["param_count"] == param_count(params)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.cfmt"
        p.write_bytes(b"JUNK" + b"\0" * 64)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(p)

    def test_version_mismatch_reports_both(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params)
        raw = bytearray(p.read_bytes())
        raw[4] = 77
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match=f"77.*{FORMAT_VERSION}"):
            load_checkpoint(p)

    def test_version_2_file_rejected(self, tmp_path):
        # version 2 headers still held the fixed-size MLP keys of the net config
        cfg, params = make_params()
        net = {**asdict(cfg), "arch": "transformer", "mlp_hidden": 256, "mlp_n_obs": 4}
        p = tmp_path / "old.cfmt"
        artifact.write(p, MAGIC, 2, {"task": "seir", "net": net,
                                     "param_count": param_count(params), "step": 0,
                                     "rng_state": {}},
                       {name: t.data for name, t in params.items()})
        with pytest.raises(CheckpointFormatError, match="file has 2, reader supports 7"):
            load_checkpoint(p)

    @pytest.mark.parametrize("version", [3, 4])
    def test_version_3_or_4_file_rejected(self, tmp_path, version):
        # versions 3 and 4 hold weights trained with rotary position
        # embeddings, and version 3 headers still held the net config's rope_base
        cfg, params = make_params()
        net = {**asdict(cfg), "rope_base": 10000.0} if version == 3 else asdict(cfg)
        p = tmp_path / "old.cfmt"
        artifact.write(p, MAGIC, version, {"task": "seir", "net": net,
                                           "param_count": param_count(params), "step": 0,
                                           "rng_state": {}},
                       {name: t.data for name, t in params.items()})
        with pytest.raises(CheckpointFormatError,
                           match=f"file has {version}, reader supports 7"):
            load_checkpoint(p)

    def test_version_5_file_rejected(self, tmp_path):
        # version 5 holds separate q, k and v weights per block, not one
        # packed attn.wqkv
        cfg, params = make_params()
        arrays = {}
        for name, t in params.items():
            if ".attn.wqkv." in name:
                for part, piece in zip(("wq", "wk", "wv"), np.split(t.data, 3, axis=-1)):
                    arrays[name.replace("wqkv", part)] = piece
            else:
                arrays[name] = t.data
        p = tmp_path / "old.cfmt"
        artifact.write(p, MAGIC, 5, {"task": "seir", "net": asdict(cfg),
                                     "param_count": param_count(params), "step": 0,
                                     "rng_state": {}}, arrays)
        with pytest.raises(CheckpointFormatError, match="file has 5, reader supports 7"):
            load_checkpoint(p)

    def test_version_6_file_rejected(self, tmp_path):
        # version 6 holds weights trained with the time embedding on every
        # token and every token attending to the state: under the two-stream
        # net they would load and give other velocities
        cfg, params = make_params()
        p = tmp_path / "old.cfmt"
        artifact.write(p, MAGIC, 6, {"task": "seir", "net": asdict(cfg),
                                     "param_count": param_count(params), "step": 0,
                                     "rng_state": {}},
                       {name: t.data for name, t in params.items()})
        with pytest.raises(CheckpointFormatError, match="file has 6, reader supports 7"):
            load_checkpoint(p)

    def test_truncation(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params)
        p.write_bytes(p.read_bytes()[:-6])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(p)

    def test_duplicate_name_detected(self, tmp_path):
        # hand-build a file whose array table lists the same name twice
        cfg = NetConfig(n_emb=8, n_head=2, dim_m=1)
        blob = json.dumps({"task": "nonlinear", "net": asdict(cfg), "param_count": 2,
                           "step": 0, "rng_state": {}}).encode()
        body = (b"CFMT" + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob
                + struct.pack("<I", 2))
        arr = np.ones(1, dtype="<f4")
        entry = struct.pack("<H", 1) + b"w" + struct.pack("<B", 1) + struct.pack("<I", 1) + arr.tobytes()
        body += entry + entry
        p = tmp_path / "dup.cfmt"
        p.write_bytes(body)
        with pytest.raises(CheckpointFormatError, match="duplicate"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "seir", cfg, params)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(p)

    def test_unknown_task(self, tmp_path):
        cfg, params = make_params()
        p = tmp_path / "m.cfmt"
        save_checkpoint(p, "epidemic", cfg, params)
        with pytest.raises(CheckpointFormatError, match="unknown task 'epidemic'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("key", ["task", "net", "param_count", "step", "rng_state"])
    def test_header_lacking_a_key(self, tmp_path, key):
        cfg, params = make_params()
        header = {"task": "seir", "net": asdict(cfg), "param_count": param_count(params),
                  "step": 0, "rng_state": {}}
        del header[key]
        p = tmp_path / "m.cfmt"
        artifact.write(p, MAGIC, FORMAT_VERSION, header,
                       {k: v.data for k, v in params.items()})
        with pytest.raises(CheckpointFormatError, match="header"):
            load_checkpoint(p)

    def test_param_count_must_match_the_arrays(self, tmp_path):
        cfg, params = make_params()
        header = {"task": "seir", "net": asdict(cfg), "param_count": param_count(params) + 1,
                  "step": 0, "rng_state": {}}
        p = tmp_path / "m.cfmt"
        artifact.write(p, MAGIC, FORMAT_VERSION, header,
                       {k: v.data for k, v in params.items()})
        with pytest.raises(CheckpointFormatError, match="parameter count mismatch"):
            load_checkpoint(p)

    @pytest.mark.parametrize("fault, match", [
        ("renamed", "'block0.ln1.g' has shape None in the file and (8,)"),
        ("transposed", "'head.w' has shape (6, 8) in the file and (8, 6)"),
    ], ids=["renamed", "transposed"])
    def test_parameters_must_have_the_net_config_layout(self, tmp_path, fault, match):
        # either would load, then fail at the first sample
        cfg, params = make_params()
        arrays = {k: v.data for k, v in params.items()}
        if fault == "renamed":
            arrays = {("block0.ln1.gain" if k == "block0.ln1.g" else k): a for k, a in arrays.items()}
        else:
            arrays["head.w"] = arrays["head.w"].T
        p = tmp_path / "m.cfmt"
        artifact.write(p, MAGIC, FORMAT_VERSION,
                       {"task": "seir", "net": asdict(cfg), "param_count": param_count(params),
                        "step": 0, "rng_state": {}}, arrays)
        with pytest.raises(CheckpointFormatError, match=re.escape(match)):
            load_checkpoint(p)

    def test_bad_net_config(self, tmp_path):
        cfg, params = make_params()
        header = {"task": "seir", "net": {"n_emb": 8, "width": 3},
                  "param_count": param_count(params), "step": 0, "rng_state": {}}
        p = tmp_path / "m.cfmt"
        artifact.write(p, MAGIC, FORMAT_VERSION, header,
                       {k: v.data for k, v in params.items()})
        with pytest.raises(CheckpointFormatError, match="net config"):
            load_checkpoint(p)
