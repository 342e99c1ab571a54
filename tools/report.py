"""Render a :class:`repro.telemetry.RunReport` for humans and scrapers.

Two input paths:

* a RunReport JSON file produced by ``ScenarioRun.report()`` (what the
  benchmark ``--report`` flags and the fuzz smoke write), or
* ``--scenario NAME`` to compile a catalog scenario with telemetry
  enabled, run it, and report on the fresh run.

Two output modes:

* the default console table — engine configuration, event counters, the
  wall-clock phase breakdown, per-segment statistics, express hit rates
  and the latency percentile summary;
* ``--prometheus`` — the metrics section in Prometheus text exposition
  format (``# HELP``/``# TYPE`` headers from
  :data:`repro.telemetry.METRIC_FAMILIES`), suitable for a textfile
  collector.

Usage::

    PYTHONPATH=src python tools/report.py population_smoke_report.json
    PYTHONPATH=src python tools/report.py --scenario ring --shards 4 --sync relaxed
    PYTHONPATH=src python tools/report.py run.json --prometheus --out metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.report import RunReport  # noqa: E402


def load_report(path: Path) -> RunReport:
    """Reconstruct a :class:`RunReport` from its JSON document."""
    data = json.loads(path.read_text())
    known = {f for f in RunReport.__dataclass_fields__}
    return RunReport(**{k: v for k, v in data.items() if k in known})


def run_scenario_report(args: argparse.Namespace) -> RunReport:
    """Compile and run a catalog scenario with telemetry on, then report."""
    from repro.scenario import run_scenario

    params = json.loads(args.params) if args.params else None
    run = run_scenario(
        args.scenario,
        params=params,
        seed=args.seed,
        shards=args.shards,
        sync=args.sync,
        backend=args.backend,
        telemetry=True,
    )
    if run.backend == "process":
        run.warm_up()
    run.sim.run_until(args.run_for)
    return run.report()


# ----------------------------------------------------------------------
# Console rendering
# ----------------------------------------------------------------------


def _rows(title: str, rows: list) -> str:
    """A two-column aligned block with a section title."""
    if not rows:
        return ""
    width = max(len(str(k)) for k, _ in rows)
    body = "\n".join(f"  {str(k):<{width}}  {v}" for k, v in rows)
    return f"{title}\n{body}\n"


def _fmt_seconds(value: float) -> str:
    return f"{value * 1e3:.3f} ms"


def render_console(report: RunReport) -> str:
    """The console table for one report."""
    parts = []
    engine = report.engine or {}
    parts.append(
        _rows(
            f"run: {report.scenario} (seed={report.seed})",
            [
                ("engine", engine.get("mode", "?")),
                ("shards", engine.get("shards", 1)),
                ("sync", engine.get("sync", "")),
                ("backend", engine.get("backend", "")),
                ("sim time", f"{report.sim_time_s:.6f} s"),
                ("telemetry", "on" if report.telemetry_enabled else "off"),
            ],
        )
    )

    event_rows = sorted((report.events or {}).items())
    parts.append(_rows("events", event_rows))

    if report.fabric:
        parts.append(_rows("fabric", sorted(report.fabric.items())))

    if report.wall:
        wall = report.wall
        rows = [
            (phase, _fmt_seconds(wall.get(f"{phase}_s", 0.0)))
            for phase in ("compute", "barrier", "pipe", "plan")
        ]
        rows.append(("total", _fmt_seconds(wall.get("total_s", 0.0))))
        rows.append(("attributed", _fmt_seconds(wall.get("attributed_s", 0.0))))
        rows.append(("windows", wall.get("windows", 0)))
        parts.append(_rows("wall breakdown", rows))

    if report.segments:
        header = (
            "segment",
            "frames",
            "bytes",
            "lost",
            "corrupt",
            "util",
            "express",
        )
        table = [header]
        for name, stats in report.segments.items():
            table.append(
                (
                    name,
                    stats.get("frames_carried", 0),
                    stats.get("bytes_carried", 0),
                    stats.get("frames_lost", 0),
                    stats.get("frames_corrupted", 0),
                    f"{stats.get('utilization', 0.0):.4f}",
                    stats.get("express_mode", "off"),
                )
            )
        widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
        lines = [
            "  " + "  ".join(f"{str(cell):<{widths[i]}}" for i, cell in enumerate(row))
            for row in table
        ]
        parts.append("segments\n" + "\n".join(lines) + "\n")

    express = report.express or {}
    if express.get("frames_total"):
        rows = [("frames total", express["frames_total"])]
        for mode, count in sorted(express.get("frames_by_mode", {}).items()):
            rate = express.get("hit_rates", {}).get(mode)
            suffix = f"  ({rate:.1%})" if rate is not None else ""
            rows.append((f"mode {mode}", f"{count}{suffix}"))
        parts.append(_rows("express", rows))

    if report.drops:
        parts.append(_rows("drops", sorted(report.drops.items())))

    if report.latency_ns:
        lat = report.latency_ns
        rows = [("samples", int(lat.get("count", 0)))]
        for key in ("min", "p50", "p95", "p99", "max", "mean"):
            if key in lat:
                rows.append((key, f"{lat[key] / 1e6:.3f} ms"))
        parts.append(_rows("latency (rtt)", rows))

    metrics = report.metrics or {}
    n_samples = sum(len(metrics.get(kind) or {}) for kind in ("counters", "gauges", "histograms"))
    if n_samples:
        parts.append(f"metrics: {n_samples} samples (use --prometheus to export)\n")

    return "\n".join(p for p in parts if p)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        nargs="?",
        type=Path,
        help="RunReport JSON file (omit when using --scenario)",
    )
    parser.add_argument("--scenario", help="run this catalog scenario live instead")
    parser.add_argument("--params", help="scenario params as a JSON object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--sync", default="relaxed", choices=("strict", "relaxed"))
    parser.add_argument("--backend", default="thread", choices=("thread", "process"))
    parser.add_argument(
        "--run-for", type=float, default=2.0, help="simulated seconds to run (live mode)"
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead of the table",
    )
    parser.add_argument("--out", type=Path, help="write output here instead of stdout")
    args = parser.parse_args(argv)

    if (args.report is None) == (args.scenario is None):
        parser.error("provide exactly one of: a report JSON path, or --scenario")

    if args.scenario:
        report = run_scenario_report(args)
    else:
        report = load_report(args.report)

    text = report.to_prometheus() if args.prometheus else render_console(report)
    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
