"""Fast self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selfcheck.py

Asserts that every metric ``BENCHMARK.json`` names is emitted, untraced and
traced, for every workload; that the JSON result keeps its contract; and that
a gate fails, and the failure is counted, when a workload is fed a
deliberately wrong oracle.  Takes about half a minute on one core.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "split_family": dict(n=4, ladder=(0.2, 0.1)),
    "full_flow": dict(n=4),
}


def check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float), (name, m)
    json.dumps(result, allow_nan=False)


def main():
    run.import_library()
    from workloads import WORKLOADS, closed_form_gap

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    tiny = {name: replace(WORKLOADS[name], **kw) for name, kw in TINY.items()}

    for name, wl in tiny.items():
        for trace, names in ((False, e2e), (True, layers)):
            _, result = run.run(wl, seed=1, seconds=0, trace=trace, setup_probes=1)
            check_result(result, names)
        print(f"ok  {name}: {len(e2e)} end-to-end and {len(layers)} per-layer metrics")

    # split_family passes its gates with the closed-form gap and fails them
    # all with a gap twice too large
    split = tiny["split_family"]
    _, good = run.run(split, seed=1, seconds=0, trace=False, setup_probes=1)
    assert good["failed"] == 0, good
    wrong = replace(split, gap_oracle=lambda eps: 2.0 * closed_form_gap(eps))
    lines, bad = run.run(wrong, seed=1, seconds=0, trace=False, setup_probes=1)
    assert bad["failed"] == bad["attempted"] == 1 and not bad["correct"], bad
    assert any(ln.startswith("fail_fraction = 1.0") for ln in lines), lines
    print("ok  split_family: a wrong closed-form gap fails the unit")

    # full_flow's Newton gate rejects an oracle solved at the wrong epsilon
    flow = tiny["full_flow"]
    wrong = replace(flow, oracle=lambda pb, eps: flow.oracle(pb, 2.0 * eps))
    lines, bad = run.run(wrong, seed=1, seconds=0, trace=False, setup_probes=1)
    assert bad["failed"] == 1 and any("flow vs Newton" in ln for ln in lines), lines
    lines, _ = run.run(flow, seed=1, seconds=0, trace=False, setup_probes=1)
    assert not any("flow vs Newton" in ln for ln in lines), lines
    print("ok  full_flow: a Newton oracle at the wrong epsilon fails the unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
