import numpy as np
import pytest

from dualstyle import checkpoint
from dualstyle.checkpoint import load_checkpoint, load_model, save_checkpoint
from dualstyle.dualrl import TrainState, save_train_state
from dualstyle.seq2seq import Seq2Seq

from conftest import DiskFull


def test_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "big": rng.normal(0, 1, (7, 5)),
        "tiny": np.array([1e-300, -0.0, 1.0 + 2**-52]),
        "ints_like": np.arange(6, dtype=np.float64).reshape(2, 3),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays, {"kind": "test", "n": 3})
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "test", "n": 3}
    for k, v in arrays.items():
        assert loaded[k].dtype == v.dtype
        assert np.array_equal(loaded[k], v, equal_nan=True)
        # bit-level identity, not just value equality
        assert loaded[k].tobytes() == v.tobytes()


def test_writes_are_byte_deterministic(tmp_path):
    arrays = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
    save_checkpoint(tmp_path / "a.ckpt", arrays, {"v": 1})
    save_checkpoint(tmp_path / "b.ckpt", arrays, {"v": 1})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("delta", [-1, -8, 8])
def test_payload_length_must_match_header(tmp_path, delta):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(4.0), "b": np.ones((2, 3))}, {"v": 1})
    data = path.read_bytes()
    path.write_bytes(data[:delta] if delta < 0 else data + b"\0" * delta)
    with pytest.raises(ValueError, match="m.ckpt"):
        load_checkpoint(path)


def test_interrupted_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    # a model checkpoint and the run state, each interrupted mid-write
    run_dir = tmp_path / "run"
    cases = (
        (tmp_path / "m.ckpt", lambda v: save_checkpoint(
            tmp_path / "m.ckpt", {"w": np.full(3, float(v))}, {"v": v})),
        (run_dir / "checkpoints" / "state.json",
         lambda v: save_train_state(run_dir, TrainState(iteration=v, events_bytes=v))),
    )
    for path, write in cases:
        write(1)
        before = path.read_bytes()
        monkeypatch.setattr(checkpoint, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir() if p.is_file()] == [path.name]


def test_load_model_refuses_other_shapes_and_leaves_the_model_alone(small_vocab, tmp_path):
    path = tmp_path / "m.ckpt"
    Seq2Seq(small_vocab, embed_dim=6, hidden_dim=7, seed=1).save(path)
    other = Seq2Seq(small_vocab, embed_dim=6, hidden_dim=9, seed=2)
    before = {k: (p.value, p.value.copy()) for k, p in other.params.items()}
    with pytest.raises(ValueError, match="m.ckpt"):
        load_model(path, small_vocab, lambda _: other)
    for k, p in other.params.items():
        assert p.value is before[k][0] and np.array_equal(p.value, before[k][1])
