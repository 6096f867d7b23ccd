import pickle

import numpy as np
import pytest

from gaslift_twin.artifacts import (
    jsonable,
    read_array,
    read_csv,
    read_json,
    write_array,
    write_text,
)
from gaslift_twin.errors import IoFailure, MissingArtifact

TRIPPED = []


def _trip():
    TRIPPED.append(True)
    return 0


class Tripwire:
    """Records in TRIPPED when a pickle of it is loaded."""

    def __reduce__(self):
        return (_trip, ())


def test_jsonable_keeps_bools():
    assert jsonable(True) is True
    assert jsonable(np.bool_(False)) is False
    out = jsonable({"flags": np.array([True, False]), "n": np.int64(3)})
    assert out == {"flags": [True, False], "n": 3}
    assert [type(v) for v in out["flags"]] == [bool, bool]
    assert type(out["n"]) is int


class TestArrays:
    @pytest.mark.parametrize("a", [
        np.array([0.1, np.nan, -np.inf, 5e-324]),
        np.arange(12).reshape(3, 4),
        np.array([True, False, True]),
        np.empty((0, 6)),
    ])
    def test_round_trip_is_exact_and_deterministic(self, tmp_path, a):
        path = write_array(tmp_path / "sub" / "a.npy", a)
        first = path.read_bytes()
        back = read_array(path)
        assert back.dtype == a.dtype and back.shape == a.shape
        assert back.tobytes() == a.tobytes()
        write_array(path, back)
        assert path.read_bytes() == first

    def test_truncated_file_is_io_failure(self, tmp_path):
        path = write_array(tmp_path / "a.npy", np.arange(10.0))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(IoFailure):
            read_array(path)

    def test_pickled_object_array_is_refused_unloaded(self, tmp_path):
        path = tmp_path / "obj.npy"
        np.save(path, np.array([Tripwire()], dtype=object), allow_pickle=True)
        TRIPPED.clear()
        with pytest.raises(IoFailure):
            read_array(path)
        assert TRIPPED == []
        pickle.loads(pickle.dumps(Tripwire()))     # the tripwire does trip
        assert TRIPPED == [True]

    def test_unwritable_path_is_io_failure(self, tmp_path):
        write_text(tmp_path / "file", "")
        with pytest.raises(IoFailure):
            write_array(tmp_path / "file" / "a.npy", np.zeros(3))


@pytest.mark.parametrize("read, malformed", [
    (read_array, b"\x93NUMPY"),
    (read_json, b'{"a": '),
    (read_csv, b"t,y\n1.0,oops\n"),
])
class TestReadErrors:
    def test_missing_file_is_missing_artifact(self, tmp_path, read, malformed):
        with pytest.raises(MissingArtifact):
            read(tmp_path / "absent")

    def test_malformed_file_is_io_failure(self, tmp_path, read, malformed):
        path = tmp_path / "bad"
        path.write_bytes(malformed)
        with pytest.raises(IoFailure):
            read(path)

    def test_directory_is_io_failure(self, tmp_path, read, malformed):
        with pytest.raises(IoFailure):
            read(tmp_path)


def test_empty_csv_is_io_failure(tmp_path):
    path = write_text(tmp_path / "series.csv", "")
    with pytest.raises(IoFailure):
        read_csv(path)
