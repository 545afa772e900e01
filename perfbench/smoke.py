#!/usr/bin/env python3
"""Self-check of the benchmark, in a few seconds:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run is correct with no failed op, that the JSON line carries exactly
the metrics BENCHMARK.json declares with the declared units, that all six
end-to-end metrics print with their units, and that every output agrees with
its reference (max_err <= 1e-9, the open-chain spectrum included: dense eig
is accurate at this size).  Exits 1 on the first broken check.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SMALL_MAX_ERR = 1e-9


def _fail(message: str) -> int:
    print(f"smoke: FAIL {message}")
    return 1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        return _fail(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for w in spec["workloads"]:
        tol = WORKLOADS[w["name"]].tolerance
        if tol is not None and f"max_err<={tol:g}" not in w["why"]:
            return _fail(f"{w['name']}: why does not state max_err<={tol:g}")
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for name in WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "7", "--seconds",
                                 "0.3", "--trace", str(trace), "--smoke"])
            lines = out.getvalue().splitlines()
            label = f"{name} trace {trace}"
            if code != 0:
                return _fail(f"{label}: exit code {code}")
            result = json.loads(lines[-1])
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                return _fail(f"{label}: {result}\n" + "\n".join(lines[:-1]))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                return _fail(f"{label}: metrics {units} != {declared[trace]}")
            printed = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            for metric, unit in printed.items():
                if not any(l.split()[:1] == [metric] and l.split()[2:3] == [unit]
                           for l in lines):
                    return _fail(f"{label}: no line for {metric} [{unit}]")
            if trace and not result["metrics"]["max_err"]["value"] <= SMALL_MAX_ERR:
                return _fail(f"{label}: max_err {result['metrics']['max_err']}")
            print(f"smoke: ok {label}: {result['attempted']} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
