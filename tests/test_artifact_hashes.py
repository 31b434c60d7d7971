"""The committed byte record: what ``tools/artifact_hashes.py`` fingerprints
(every file of its CLI configs, and both benchmark workloads' flow outputs)
must match ``artifact_hashes.json``.

A change that moves bits on purpose regenerates the record in the same
commit, with

    python3 tests/test_artifact_hashes.py

and its CHANGES.md entry names the configs that moved and why, so that
``git log`` shows every change of output bits.  The record also holds the
Python, numpy and BLAS builds and the CPU model it was made on: floating
point bits may follow them, and a mismatch says which of them differ here.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_hashes.py"
RECORD = Path(__file__).with_name("artifact_hashes.json")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """The builds and the CPU that floating point bits may depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without a dict-valued show_config
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": _cpu_model()}


def fingerprints():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _moved(name, old, new):
    """One line naming what moved under fingerprint ``name``."""
    if old is None or new is None:
        return f"{name}: {'added' if old is None else 'gone'}"
    if "artifacts" not in old:  # a benchmark workload's unit
        keys = sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))
        return f"{name}: {', '.join(keys)}"
    parts = [] if old["exit"] == new["exit"] else [f"exit {old['exit']} -> {new['exit']}"]
    files = old["artifacts"].keys() | new["artifacts"].keys()
    parts += sorted(f for f in files if old["artifacts"].get(f) != new["artifacts"].get(f))
    return f"{name}: {', '.join(parts)}"


def test_outputs_match_the_record():
    record = json.loads(RECORD.read_text())
    was, now = record["fingerprints"], fingerprints()
    moved = [_moved(name, was.get(name), now.get(name))
             for name in sorted(was.keys() | now.keys()) if was.get(name) != now.get(name)]
    here = environment()
    differ = [f"{key}: recorded {record['environment'].get(key)!r}, here {value!r}"
              for key, value in here.items() if record["environment"].get(key) != value]
    assert not moved, "\n".join(
        ["outputs moved from tests/artifact_hashes.json:"] + moved
        + (["environment differs from the record's:"] + differ if differ
           else ["environment matches the record's"]))


if __name__ == "__main__":
    RECORD.write_text(json.dumps({"environment": environment(), "fingerprints": fingerprints()},
                                 indent=1, sort_keys=True) + "\n")
