"""Figure 9 — ping latencies.

Reproduces the paper's latency figure: ICMP echo round-trip time versus
packet size for the three configurations of Figures 7/8 — direct connection,
C buffered repeater, and the active bridge — and checks the qualitative
shape: the active bridge is the slowest, the direct connection the fastest,
and latency grows with packet size.  The paper additionally attributes
~0.34 ms per frame to the Caml code; the cost model's interpreter component
is reported alongside for comparison.

Fidelity deviation: the hosts' minimal IP layer does not fragment, so an
echo carries at most one frame.  The paper's 2048- and 4096-byte points are
therefore *clamped* to a 1,400-byte echo (``PingRunner`` clamps again,
to ``MAX_ICMP_PAYLOAD``, 1,472 bytes), and both rows print the 1,400-byte
RTT.  The rendered figure labels those rows as clamped.
"""

from __future__ import annotations

from _harness import emit, run_once

from repro.analysis.figures import render_series
from repro.costs.model import CostModel
from repro.measurement.ping import ping_sweep
from repro.scenario import run_scenario

#: The packet sizes on the paper's x-axis (Figure 9).
PACKET_SIZES = [32, 512, 1024, 2048, 4096]

#: Echoes per size (the paper uses ping's default of many; a handful is
#: enough for a deterministic simulator).
COUNT = 10


#: Largest echo the sweep sends: ICMP payloads above the single-frame
#: maximum cannot be carried by the minimal (non-fragmenting) IP layer.
CLAMP_BYTES = 1400


def _clamp(size: int) -> int:
    # The paper's larger points are represented by the largest single-frame
    # echo instead.
    return min(size, CLAMP_BYTES)


def _size_label(size: int):
    """The figure's x value: the paper's size, marked when it was clamped."""
    if size > CLAMP_BYTES:
        return f"{size} (clamped to {CLAMP_BYTES})"
    return size


def measure_all():
    """Run the three-configuration ping sweep; returns {label: {size: mean ms}}."""
    results = {}
    for label, scenario in (
        ("direct connection", "pair/direct"),
        ("C buffered repeater", "pair/repeater"),
        ("active bridge", "pair/active-bridge"),
    ):
        setup = run_scenario(scenario, seed=1).as_pair()
        sweep = ping_sweep(
            setup.network.sim,
            setup.left,
            setup.right.ip,
            [_clamp(size) for size in PACKET_SIZES],
            start_time=setup.ready_time,
            count=COUNT,
            interval=0.05,
        )
        results[label] = {
            size: sweep[_clamp(size)].mean_rtt_ms() for size in PACKET_SIZES
        }
    return results


def test_fig09_ping_latency(benchmark):
    results = run_once(benchmark, measure_all)

    series = {label: [results[label][size] for size in PACKET_SIZES] for label in results}
    emit(
        "Figure 9 -- Ping latencies (mean RTT, milliseconds)",
        render_series(
            "packet size (bytes)",
            [_size_label(size) for size in PACKET_SIZES],
            series,
            y_format="{:.3f}",
        ),
    )
    model = CostModel()
    emit(
        "Per-frame cost attribution",
        "interpreted switchlet cost at 1024 B: "
        f"{model.switchlet_frame_cost(1024) * 1000:.3f} ms per frame "
        "(paper: ~0.34 ms added per frame by the Caml code)",
    )

    # Shape checks (the paper's qualitative result).
    for size in PACKET_SIZES:
        assert (
            results["active bridge"][size]
            > results["C buffered repeater"][size]
            > results["direct connection"][size]
        )
    for label in results:
        assert results[label][PACKET_SIZES[-1]] > results[label][PACKET_SIZES[0]]
    # The bridge's added latency over the direct path is dominated by the
    # per-frame software cost (sub-millisecond per direction, not tens of ms).
    added = results["active bridge"][1024] - results["direct connection"][1024]
    assert 0.5 < added < 5.0
