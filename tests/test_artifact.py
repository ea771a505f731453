import numpy as np
import pytest

from flowinverse import artifact

MAGIC = b"TEST"


def test_arrays_of_any_rank_round_trip(tmp_path):
    arrays = {"scalar": np.float32(2.5), "vec": np.arange(3.0),
              "cube": np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)}
    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 3, {"note": "x", "n": [1, 2]}, arrays)
    header, back = artifact.read(p, MAGIC, 3, keys=("note",))
    assert header == {"note": "x", "n": [1, 2]}
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        assert back[name].dtype == np.float32
        np.testing.assert_array_equal(back[name], np.asarray(a, dtype=np.float32))


def test_failed_write_keeps_the_earlier_file(tmp_path):
    class Exploding:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("disk full")

    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 1, {"generation": 1}, {"w": np.ones(4)})
    before = p.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        artifact.write(p, MAGIC, 1, {"generation": 2}, {"w": np.zeros(4), "v": Exploding()})
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["a.bin"]


def test_header_that_is_not_json(tmp_path):
    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 1, {"k": 1}, {})
    raw = bytearray(p.read_bytes())
    raw[12] = ord("[")                     # the header's opening brace
    p.write_bytes(bytes(raw))
    with pytest.raises(artifact.FormatError, match="not JSON"):
        artifact.read(p, MAGIC, 1)


def test_array_name_that_is_not_utf8(tmp_path):
    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 1, {}, {"w": np.ones(1)})
    p.write_bytes(p.read_bytes().replace(b"w", b"\xff"))
    with pytest.raises(artifact.FormatError, match="array name is not UTF-8"):
        artifact.read(p, MAGIC, 1)


def test_errors_use_the_given_class(tmp_path):
    class KindError(artifact.FormatError):
        pass

    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 1, {"k": 1}, {})
    with pytest.raises(KindError, match="version mismatch: file has 1, reader supports 2"):
        artifact.read(p, MAGIC, 2, KindError)
    with pytest.raises(KindError, match=r"with keys \[.k., .j.\]"):
        artifact.read(p, MAGIC, 1, KindError, keys=("k", "j"))


def test_truncated_header(tmp_path):
    p = tmp_path / "a.bin"
    artifact.write(p, MAGIC, 1, {"k": 1}, {})
    p.write_bytes(p.read_bytes()[:14])
    with pytest.raises(artifact.FormatError, match="truncated while reading header") as info:
        artifact.read(p, MAGIC, 1)
    assert "not JSON" not in str(info.value)
