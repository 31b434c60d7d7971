"""Binary field snapshots, history CSV, and atomic file writes.

Snapshot layout (version 2): magic bytes ``JFLW``, version u16, N u32,
component count u16, the four grid offsets as little-endian float64, then
little-endian float64 values row-major (x1, y1, x2, y2).  Snapshots hold
scalar fields, one component; a file with another component count is
refused, as is a file of another version.
"""

import json
import os
import struct
import tempfile

import numpy as np

from .torus import Grid, ScalarField

MAGIC = b"JFLW"
VERSION = 2
_HEAD = "<HIH"
_OFFSETS = "<4d"


def _write_atomic(path, write_fn, mode="wb"):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(fh, path):
    """(grid, component count) of a version 2 snapshot."""
    size = struct.calcsize(_HEAD)
    head = fh.read(4 + size)
    if len(head) < 4 + size or head[:4] != MAGIC:
        raise ValueError(f"{path}: not a JFLW snapshot")
    version, n, ncomp = struct.unpack(_HEAD, head[4:])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    raw = fh.read(struct.calcsize(_OFFSETS))
    if len(raw) != struct.calcsize(_OFFSETS):
        raise ValueError(f"{path}: truncated snapshot")
    return Grid(n, struct.unpack(_OFFSETS, raw)), ncomp


def write_scalar(path, field):
    grid = field.grid
    if len(grid.offsets) != 4:
        raise ValueError(f"{path}: JFLW snapshots hold fields on the 4-D lattice, "
                         f"got a factor lattice {grid}; assemble the field first")

    def body(fh):
        fh.write(MAGIC)
        fh.write(struct.pack(_HEAD, VERSION, grid.n, 1))
        fh.write(struct.pack(_OFFSETS, *grid.offsets))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())

    _write_atomic(path, body)


def read_field(path):
    """Read a scalar snapshot; returns a ScalarField on the grid it was
    written from.  A file shorter than its header's N implies is refused
    before any value is read."""
    with open(path, "rb") as fh:
        grid, ncomp = _read_header(fh, path)
        if ncomp != 1:
            raise ValueError(f"{path}: unsupported component count {ncomp}")
        size = 8 * grid.n ** 4
        if os.fstat(fh.fileno()).st_size - fh.tell() < size:
            raise ValueError(f"{path}: truncated snapshot")
        buf = fh.read(size)
    return ScalarField(grid, np.frombuffer(buf, dtype="<f8").reshape(grid.shape).copy())


HISTORY_COLUMNS = ("t", "sup_phi", "sup_phidot", "J", "I", "margin", "residual")


def write_history_csv(path, rows):
    """series.csv: one line of ``HISTORY_COLUMNS`` per history row; the
    residual of the flow equation is the row's sup|phi_dot|."""
    write_series_csv(path, HISTORY_COLUMNS, ((r.t, r.sup_phi, r.sup_phidot, r.j, r.i,
                                              r.margin, r.sup_phidot) for r in rows))


def write_series_csv(path, header, table):
    def body(fh):
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    _write_atomic(path, body, mode="w")


def write_json(path, payload):
    def body(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomic(path, body, mode="w")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
