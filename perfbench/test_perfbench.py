"""The benchmark's own tests: tiny runs emit every metric; checks reject bad outputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository
root.  The tiny sizes exercise every phase, counter and check in a second or
two; the pinned golden outputs themselves are compared by full-size runs on
the default seed (``python3 perfbench/run.py --workload <name> --seed 2``).
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS, golden_mismatches  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "office": {"floors": 2, "hosts_per_floor": 10, "duration": 0.1},
    "ring": {"lans": 4, "frames_per_pair": 20},
    "bridge-ttcp": {"transfers": ((32, 2_000), (1024, 20_000), (8192, 50_000))},
}


def tiny_run(name, trace):
    return harness.measure(name, seed=5, seconds=0, trace=trace, sizes=TINY[name], min_repetitions=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(name, trace):
    result = tiny_run(name, trace)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer" if trace else "end_to_end"]
    }
    emitted = {metric_name: metric["unit"] for metric_name, metric in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        for phase in ("setup", "warmup", "run"):
            total = sum(result["metrics"][f"{phase}.{layer}.share"]["value"] for layer in LAYERS)
            assert total == pytest.approx(1.0, abs=1e-9)
        assert result["metrics"]["profile.overhead_x"]["value"] > 0
    else:
        assert result["metrics"]["completed_share"]["value"] == 1.0


def _perturb(outputs):
    """Change the first numeric leaf of an outputs tree by one."""
    for key in sorted(outputs):
        value = outputs[key]
        if isinstance(value, dict):
            if _perturb(value):
                return True
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            outputs[key] = value + 1
            return True
    return False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_a_perturbed_golden_value(name):
    workload = WORKLOADS[name]
    honest = harness.Repetition(workload, 5, TINY[name]).outputs
    assert golden_mismatches(honest, copy.deepcopy(honest)) == []
    golden = copy.deepcopy(honest)
    assert _perturb(golden)
    assert golden_mismatches(honest, golden)
    rejected = harness.Repetition(workload, 5, TINY[name], golden=golden)
    assert rejected.problems
    assert rejected.failed == rejected.offered > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_golden_has_the_output_shape(name):
    honest = harness.Repetition(WORKLOADS[name], 5, TINY[name]).outputs
    pinned = harness.pinned_golden(name)
    assert set(pinned) == set(honest)
    assert WORKLOADS[name].problems(pinned) == []


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(harness.per_layer_units())
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    bounds = [metric["bound"] for metric in SPEC["end_to_end"]]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert SPEC["end_to_end"][0]["bound"] == max(bounds)
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(set(names)) == len(names)
