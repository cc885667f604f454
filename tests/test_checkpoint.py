"""Binary checkpoint container round trips and error handling."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from liftbank.checkpoint import MAGIC, atomic_write, load_checkpoint, save_checkpoint
from liftbank.cli import build_pipeline, load_config
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

    def test_atomic_write_into_missing_directory_names_the_path(self, tmp_path):
        """A temporary file that cannot be opened raises naming the caller's
        path, not the temporary one."""
        path = tmp_path / "nodir" / "log.csv"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(path) as fh:
                fh.write("x\n")
        assert info.value.filename == str(path)
        assert f"'{path}'" in str(info.value) and ".tmp" not in str(info.value)
        assert list(tmp_path.iterdir()) == []

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


LIFTING_SN_NAMES = [
    "lifting/stage1/conv0/weight", "lifting/stage1/conv0/bias",
    "lifting/stage1/conv1/weight", "lifting/stage1/conv1/bias",
    "lifting/stage2/conv0/weight", "lifting/stage2/conv0/bias",
    "lifting/stage2/conv1/weight", "lifting/stage2/conv1/bias",
]
LIFTING_SN_STATE = [
    "lifting/stage1/conv0/sn_u", "lifting/stage1/conv1/sn_u",
    "lifting/stage2/conv0/sn_u", "lifting/stage2/conv1/sn_u",
]


class TestCheckpointFormat:
    """The pipeline's state_dict is the checkpoint's entry list: its names
    and their order are a file format, pinned here literally."""

    @staticmethod
    def _keys(norm):
        cfg = dict(load_config(), **{"lifting.stages": 2, "lifting.spectral_norm": True,
                                     "pipeline.mask": "estimator", "mask.depth": 2,
                                     "mask.norm": norm})
        return list(build_pipeline(cfg).state_dict())

    def test_entry_order_with_spectral_norm_estimator(self):
        assert self._keys("spectral") == LIFTING_SN_NAMES + [
            "mask/enc0/weight", "mask/enc0/bias", "mask/enc1/weight", "mask/enc1/bias",
            "mask/dec0/weight", "mask/dec0/bias", "mask/dec1/weight", "mask/dec1/bias",
            "mask/head/weight", "mask/head/bias",
        ] + LIFTING_SN_STATE + [
            "mask/enc0/sn_u", "mask/enc1/sn_u", "mask/dec0/sn_u", "mask/dec1/sn_u",
        ]

    def test_entry_order_with_unnormalised_estimator(self):
        """Without a norm each estimator conv owns a weight and a bias, and
        the estimator holds no state entries."""
        assert self._keys("none") == LIFTING_SN_NAMES + [
            "mask/enc0/weight", "mask/enc0/bias", "mask/enc1/weight", "mask/enc1/bias",
            "mask/dec0/weight", "mask/dec0/bias", "mask/dec1/weight", "mask/dec1/bias",
            "mask/head/weight", "mask/head/bias",
        ] + LIFTING_SN_STATE

    def test_default_pipeline_checkpoint_bytes(self, tmp_path):
        """The default pipeline's initial checkpoint, byte for byte. Its
        initialisation draws only uniform numbers from the integer SplitMix64
        generator, so the bytes do not depend on the platform."""
        path = tmp_path / "default.ckpt"
        save_checkpoint(path, build_pipeline(load_config()).state_dict())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0b1fad67c6050dddf6e2c87fad2231ddd46b579eeee474b76f097b2082d63486")
