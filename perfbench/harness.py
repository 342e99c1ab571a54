"""The measuring loop: repetitions, phase spans, checks and metrics.

A repetition compiles a fresh scenario and takes it through the workload's
three phases, each timed from outside with ``time.perf_counter`` (host wall
time) and, in the traced repetition, profiled by its own ``cProfile``
profiler.  Public counters are read after each phase, so every count is a
per-phase delta.  :func:`measure` repeats untraced repetitions until the
time budget is spent and reports medians.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import statistics
import time
from pathlib import Path

from layers import LAYERS, LayerMap, calls, self_time, shares
from workloads import DEFAULT_SEED, WORKLOADS, counters, golden_mismatches

BENCH_DIR = Path(__file__).resolve().parent
PACKAGE_DIR = BENCH_DIR.parent / "src" / "repro"

#: Repetitions per run, whatever the time budget says (medians need three).
MIN_REPETITIONS = 3

#: Metric phase names for the workload methods, in execution order.
PHASES = {"setup": "setup", "warm_up": "warmup", "measure": "run"}

#: End-to-end metrics (untraced runs) and their units.  ``setup_s`` is the
#: time to a ready scenario (compile + warm-up): on ``office`` and
#: ``bridge-ttcp`` the warm-up alone lasts 2-40 ms, too short a span to read
#: steadily on a shared machine, so it is reported per layer (``warmup.span_s``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}

#: Per-layer counters (traced runs) and their units; the 45 phase shares
#: ``{setup,warmup,run}.<layer>.share`` come first, in unit ``share``.
#: ``<phase>.span_s`` are the untraced repetitions' median phase spans.
LAYER_COUNT_UNITS = {
    "setup.span_s": "s",
    "warmup.span_s": "s",
    "run.span_s": "s",
    "sim.events_per_frame": "events/frame",
    "sim.fabric.cross_pushes": "count",
    "sim.trace.records_per_frame": "records/frame",
    "warmup.lan.frames": "frames",
    "run.lan.frames": "frames",
    "lan.nic.deliveries_per_frame": "calls/frame",
    "lan.nic.accept_ratio": "ratio",
    "lan.nic.frames_dropped": "frames",
    "setup.lan.segment.express_refreshes": "calls",
    "ethernet.mac_compares_per_frame": "calls/frame",
    "ethernet.pool_hit_ratio": "ratio",
    "core.forwards": "frames",
    "netstack.tcp_segments": "segments",
    "profile.overhead_x": "x",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{phase}.{layer}.share": "share" for phase in PHASES.values() for layer in LAYERS
    }
    units.update(LAYER_COUNT_UNITS)
    return units


class Repetition:
    """One fresh scenario taken through its phases, timed and checked."""

    def __init__(self, workload_class, seed, sizes, golden=None, layer_map=None):
        case = workload_class(seed, sizes)
        self.seconds = {}
        self.marks = {}
        self.profiles = {}
        for method, phase in PHASES.items():
            profiler = cProfile.Profile() if layer_map is not None else None
            start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            getattr(case, method)()
            if profiler is not None:
                profiler.disable()
            self.seconds[phase] = time.perf_counter() - start
            if profiler is not None:
                profiler.create_stats()
                self.profiles[phase] = profiler.stats
            self.marks[phase] = counters(case.run)
            if method == "warm_up":
                case.checkpoint()
        self.total_s = sum(self.seconds.values())
        self.outputs = json.loads(json.dumps(case.outputs()))
        self.problems = case.problems(self.outputs)
        if golden is not None:
            self.problems += golden_mismatches(self.outputs, golden)
        self.offered, self.completed = case.operations(self.outputs)
        if layer_map is not None:
            self.layer_metrics = self._layer_metrics(case, layer_map)

    @property
    def failed(self):
        """Operations not completed; all of them when a check failed."""
        return self.offered if self.problems else self.offered - self.completed

    def delta(self, phase, key):
        """Change of a public counter over one phase (after setup or warm-up)."""
        before = {"warmup": "setup", "run": "warmup"}[phase]
        return self.marks[phase][key] - self.marks[before][key]

    def frames_per_s(self):
        return self.delta("run", "frames") / self.seconds["run"]

    def _layer_metrics(self, case, layer_map):
        metrics = {}
        for phase, stats in self.profiles.items():
            for layer, share in shares(self_time(stats, layer_map)).items():
                metrics[f"{phase}.{layer}.share"] = share
        run_stats = self.profiles["run"]
        frames = self.delta("run", "frames")
        deliveries = calls(run_stats, "lan/nic.py", ["deliver"])
        metrics.update(
            {
                "sim.events_per_frame": self.delta("run", "events") / frames,
                "sim.fabric.cross_pushes": self.marks["run"]["cross_pushes"]
                - self.marks["setup"]["cross_pushes"]
                + self.marks["warmup"]["mail_flushed"]
                + self.marks["run"]["mail_flushed"],
                "sim.trace.records_per_frame": self.delta("run", "records") / frames,
                "warmup.lan.frames": self.delta("warmup", "frames"),
                "run.lan.frames": frames,
                "lan.nic.deliveries_per_frame": deliveries / frames,
                "lan.nic.accept_ratio": (
                    self.delta("run", "nic_received") / deliveries if deliveries else 0.0
                ),
                "lan.nic.frames_dropped": self.delta("run", "nic_dropped"),
                "setup.lan.segment.express_refreshes": calls(
                    self.profiles["setup"], "lan/segment.py", ["_refresh_express"]
                ),
                "ethernet.mac_compares_per_frame": (
                    calls(run_stats, "ethernet/mac.py", ["__eq__", "__ne__"]) / frames
                ),
                "ethernet.pool_hit_ratio": case.pool_hit_ratio(),
                "core.forwards": self.delta("run", "forwards"),
                "netstack.tcp_segments": case.tcp_segments(),
            }
        )
        return metrics


def pinned_golden(workload_name):
    """The golden outputs of a workload at the default seed and full size."""
    return json.loads((BENCH_DIR / "golden.json").read_text())[workload_name]


def measure(workload_name, seed, seconds, trace, sizes=None, min_repetitions=MIN_REPETITIONS):
    """One benchmark run in this process.

    ``sizes`` replaces the workload's full sizes (the tests run tiny ones);
    the golden outputs are compared only at full size on the default seed.
    Returns the result fields plus ``problems`` and the ``repetitions``.
    """
    workload_class = WORKLOADS[workload_name]
    golden = None
    if sizes is None:
        sizes = workload_class.SIZES
        if seed == DEFAULT_SEED:
            golden = pinned_golden(workload_name)
    repetitions = []
    deadline = time.perf_counter() + seconds
    while True:
        repetitions.append(Repetition(workload_class, seed, sizes, golden))
        gc.collect()
        typical = statistics.median(r.total_s for r in repetitions)
        if len(repetitions) >= min_repetitions and time.perf_counter() + typical > deadline:
            break
    untraced = list(repetitions)
    untraced_total = statistics.median(r.total_s for r in untraced)
    if trace:
        repetitions.append(
            Repetition(workload_class, seed, sizes, golden, layer_map=LayerMap(PACKAGE_DIR))
        )
    for r in repetitions[1:]:
        if r.outputs != repetitions[0].outputs:
            r.problems.append("outputs differ between repetitions of one seed")
    attempted = sum(r.offered for r in repetitions)
    failed = sum(r.failed for r in repetitions)
    if trace:
        traced = repetitions[-1]
        values = dict(traced.layer_metrics)
        for phase in PHASES.values():
            values[f"{phase}.span_s"] = statistics.median(r.seconds[phase] for r in untraced)
        values["profile.overhead_x"] = traced.total_s / untraced_total
        units = per_layer_units()
    else:
        values = {
            "setup_s": statistics.median(
                r.seconds["setup"] + r.seconds["warmup"] for r in untraced
            ),
            "frames_per_s": statistics.median(r.frames_per_s() for r in untraced),
            "total_s": untraced_total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "completed_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    problems = sorted({problem for r in repetitions for problem in r.problems})
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
        "repetitions": repetitions,
    }


def report_lines(workload_name, result):
    """Human-readable lines: each repetition's phase spans and any check failure."""
    lines = [f"{workload_name}: {len(result['repetitions'])} repetitions"]
    for index, r in enumerate(result["repetitions"]):
        label = "traced" if r.profiles else f"rep {index}"
        phases = "  ".join(f"{phase} {seconds:.4f}s" for phase, seconds in r.seconds.items())
        lines.append(f"  {label}: {phases}  frames {r.delta('run', 'frames')}")
    lines += [f"  CHECK FAILED: {problem}" for problem in result["problems"]]
    return lines
