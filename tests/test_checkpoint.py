"""Binary checkpoint container round trips and error handling."""

import sys
import threading

import numpy as np
import pytest

from liftbank.checkpoint import MAGIC, atomic_write, load_checkpoint, save_checkpoint
from liftbank.numerics import Rng


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = Rng(0)
        arrays = {
            "lifting/stage1/conv0/weight": rng.normal((4, 4, 3)),
            "lifting/stage1/conv0/bias": rng.normal((4,)),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        back = load_checkpoint(path)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == np.float64

    def test_identical_state_identical_bytes(self, tmp_path):
        arrays = {"a": Rng(1).normal((8, 2)), "b": Rng(2).normal((3,))}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, {k: v.copy() for k, v in arrays.items()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"x": np.ones(2)})
        assert path.read_bytes()[:8] == MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT0" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.ones(100)})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.ones(4)})
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": Rng(3).normal((5,))})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="too long"):
            save_checkpoint(path, {"a": np.ones(3), "x" * 70000: np.ones(2)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_nested_writers_of_one_path(self, tmp_path):
        """Each writer has its own temporary file: both finish cleanly, the
        last to finish wins, and nothing is left behind."""
        path = tmp_path / "dump.csv"
        with atomic_write(path) as outer:
            outer.write("outer\n")
            with atomic_write(path) as inner:
                inner.write("inner\n")
            assert path.read_text() == "inner\n"
        assert path.read_text() == "outer\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.csv"]

    def test_concurrent_writers_of_one_path(self, tmp_path):
        """Threads writing one path (as ``eval`` exports can) never collide:
        none raises, the file holds one writer's whole text, no temp is left."""
        path = tmp_path / "dump.csv"
        texts = [f"{i}\n" * 2000 for i in range(8)]
        errors = []

        def write(text):
            try:
                for _ in range(20):
                    with atomic_write(path) as fh:
                        fh.write(text)
            except OSError as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(t,)) for t in texts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["dump.csv"]

    def test_atomic_write_keeps_plain_open_permissions(self, tmp_path):
        plain, atomic = tmp_path / "plain.csv", tmp_path / "atomic.csv"
        with open(plain, "w") as fh:
            fh.write("x\n")
        with atomic_write(atomic) as fh:
            fh.write("x\n")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_atomic_write_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "log.csv"
        with atomic_write(path) as fh:
            fh.write("epoch,loss\n1,0.5\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(path) as fh:
                fh.write("epoch,loss\n")
                raise RuntimeError("mid-write")
        assert path.read_text() == "epoch,loss\n1,0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
