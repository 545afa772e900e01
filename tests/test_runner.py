import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nhbath.runner import _csv

ROOT = Path(__file__).resolve().parents[1]


class TestCsv:
    def test_matches_row_wise_repr(self):
        values = np.array([-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, -2.5, 3.0])
        index = np.arange(values.size)  # integers print as floats: 3 -> 3.0
        labels = [f"s{k}" for k in range(values.size)]
        got = _csv(("label", "i", "v"), (labels, index, values))
        want = "label,i,v\n" + "".join(
            f"{s},{repr(float(i))},{repr(float(v))}\n"
            for s, i, v in zip(labels, index, values))
        assert got == want
        assert got.splitlines()[4] == "s3,3.0,1e+16"
        assert got.splitlines()[1] == "s0,0.0,-0.0"


def _traced_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTS]
    # the tracer also swaps the sweep's pool class
    return names + [("nhbath.runner", "ThreadPoolExecutor")]


@pytest.mark.parametrize("module, name", _traced_names())
def test_benchmark_traced_name_resolves(module, name):
    # the benchmark's per-layer metrics wrap these module attributes; a name
    # that no longer resolves silently reads as zero time
    assert callable(getattr(importlib.import_module(module), name))
