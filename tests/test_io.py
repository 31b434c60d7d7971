import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jflow.io import (
    _write_atomic,
    read_field,
    write_history_csv,
    write_json,
    read_json,
    write_scalar,
)
from jflow.torus import Grid, ScalarField


def test_scalar_roundtrip(tmp_path):
    grid = Grid(8)
    rng = np.random.default_rng(0)
    field = ScalarField(grid, rng.normal(size=grid.shape))
    path = tmp_path / "phi.jflw"
    write_scalar(path, field)
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.values, field.values)


def test_rejects_four_component_file(tmp_path):
    # snapshots hold scalar fields; a (1,1)-form's four components are refused
    path = tmp_path / "chi.jflw"
    path.write_bytes(b"JFLW" + struct.pack("<HIH", 2, 4, 4) + b"\x00" * (32 + 4 * 8 * 4 ** 4))
    with pytest.raises(ValueError, match="unsupported component count 4"):
        read_field(path)


def test_header_layout(tmp_path):
    grid = Grid(4, (0.0, 0.125, 0.0, 0.0))
    path = tmp_path / "f.jflw"
    write_scalar(path, ScalarField.zeros(grid))
    raw = path.read_bytes()
    assert raw[:4] == b"JFLW"
    assert int.from_bytes(raw[4:6], "little") == 2  # version
    assert int.from_bytes(raw[6:10], "little") == 4  # N
    assert int.from_bytes(raw[10:12], "little") == 1  # components
    assert struct.unpack("<4d", raw[12:44]) == grid.offsets
    assert len(raw) == 44 + 8 * 4 ** 4


@st.composite
def offset_fields(draw):
    """A scalar field on a 4-D grid with N in {4, 6, 8} and offsets in
    [0, 1/N)."""
    n = draw(st.sampled_from((4, 6, 8)))
    offset = st.floats(0.0, 1.0 / n, exclude_max=True)
    grid = Grid(n, tuple(draw(offset) for _ in range(4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ScalarField(grid, rng.normal(size=grid.shape))


def _bits(field):
    return np.array(field.grid.offsets).tobytes(), field.grid.n, field.values.tobytes()


@settings(derandomize=True, deadline=None, max_examples=20, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=offset_fields())
def test_scalar_roundtrip_keeps_offsets(tmp_path, field):
    path = tmp_path / "phi.jflw"
    write_scalar(path, field)
    back = read_field(path)
    assert type(back) is ScalarField
    assert _bits(back) == _bits(field)


def test_refuses_version_1(tmp_path):
    # version 1 had no offsets; it was read onto the zero-offset grid
    path = tmp_path / "v1.jflw"
    path.write_bytes(b"JFLW" + struct.pack("<HIH", 1, 4, 1) + b"\x00" * (8 * 4 ** 4))
    with pytest.raises(ValueError, match="unsupported snapshot version 1"):
        read_field(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "v3.jflw"
    path.write_bytes(b"JFLW" + struct.pack("<HIH", 3, 4, 1) + b"\x00" * (32 + 8 * 4 ** 4))
    with pytest.raises(ValueError, match="unsupported snapshot version 3"):
        read_field(path)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jflw"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a JFLW"):
        read_field(path)


# cut inside the values, and inside the four offsets (12 header bytes, 16 of 32)
@pytest.mark.parametrize("keep", [-16, 28])
def test_truncated_file(tmp_path, keep):
    grid = Grid(4)
    path = tmp_path / "f.jflw"
    write_scalar(path, ScalarField.zeros(grid))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated snapshot"):
        read_field(path)


def test_header_n_beyond_the_file_is_truncated(tmp_path):
    # N = 65536 implies 8 N^4 bytes, more than one read can ask for: the
    # header's size is checked against the file's before any value is read
    path = tmp_path / "f.jflw"
    write_scalar(path, ScalarField.zeros(Grid(4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:6] + struct.pack("<I", 65536) + raw[10:])
    with pytest.raises(ValueError, match="truncated snapshot"):
        read_field(path)


def test_bytes_past_the_values_are_refused(tmp_path):
    # a 4^4 snapshot with 1,000 bytes appended is not read as Grid(n=4)
    path = tmp_path / "f.jflw"
    write_scalar(path, ScalarField.zeros(Grid(4)))
    path.write_bytes(path.read_bytes() + b"\x00" * 1000)
    with pytest.raises(ValueError, match="overlong snapshot: 3048 bytes of values, "
                                         "N=4 implies 2048"):
        read_field(path)


def test_factor_lattice_write_refused(tmp_path):
    # snapshots are 4-D: a factor-lattice field is refused with a message,
    # and nothing is written
    grid = Grid(8, (0.0, 0.0))
    path = tmp_path / "sub" / "f.jflw"
    with pytest.raises(ValueError, match="4-D lattice"):
        write_scalar(path, ScalarField(grid, np.zeros(grid.shape)))
    assert not (tmp_path / "sub").exists()


def test_history_csv(tmp_path):
    from jflow.flow import HistoryRow

    rows = [
        HistoryRow(t=0.0, sup_phi=0.1, j=-1.0, i=0.0, margin=1.0,
                   max_phidot=0.2, min_phidot=-0.15, j_rate=-0.01),
        HistoryRow(t=0.5, sup_phi=0.05, j=-1.5, i=0.0, margin=1.0,
                   max_phidot=0.05, min_phidot=-0.1, j_rate=-0.005),
    ]
    path = tmp_path / "series.csv"
    write_history_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,sup_phi,sup_phidot,J,I,margin,residual"
    assert len(lines) == 3
    # sup_phidot and residual are both sup |phi_dot| = max(max, -min)
    assert lines[1] == "0,0.10000000000000001,0.20000000000000001,-1,0,1,0.20000000000000001"
    assert lines[2].split(",")[2] == lines[2].split(",")[6] == "0.10000000000000001"


def test_failed_write_leaves_no_temp_file(tmp_path):
    def body(fh):
        fh.write(b"partial")
        raise RuntimeError("writer failed")

    path = tmp_path / "f.bin"
    with pytest.raises(RuntimeError, match="writer failed"):
        _write_atomic(path, body)
    assert os.listdir(tmp_path) == []


def test_json_roundtrip_atomic(tmp_path):
    path = tmp_path / "sub" / "r.json"
    payload = {"b": [1, 2.5], "a": {"x": None}}
    write_json(path, payload)
    assert read_json(path) == payload
    # no temp litter left behind
    assert [p.name for p in (tmp_path / "sub").iterdir()] == ["r.json"]
