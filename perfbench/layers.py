"""Per-layer attribution of host time from a ``cProfile`` pass.

Layers are the repository's modules.  A Python function belongs to the
layer of the file it is defined in; a builtin's self time is charged to the
layers of the Python functions that called it, in proportion to the time
each caller spent in it.  Everything outside ``src/repro`` (the standard
library, the benchmark's own code) and the unlisted packages (``faults``,
``telemetry``, ``analysis``, ``baselines``) is ``python``.

Switchlets are compiled from source by the loader under the file name
``<switchlet NAME>``; their code is the ``switchlets`` layer.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

LAYERS = (
    "scenario",
    "population",
    "sim.engine",
    "sim.fabric",
    "sim.trace",
    "lan.segment",
    "lan.nic",
    "lan.host",
    "ethernet",
    "core",
    "switchlets",
    "costs",
    "netstack",
    "measurement",
    "python",
)

#: Packages that are one layer each.
_PACKAGE_LAYERS = {
    "scenario",
    "population",
    "ethernet",
    "core",
    "switchlets",
    "costs",
    "netstack",
    "measurement",
}

#: Modules of ``sim`` and ``lan`` with a layer of their own; the rest of
#: ``sim`` is the engine and the rest of ``lan`` is host-side assembly.
_MODULE_LAYERS = {
    "sim/shard.py": "sim.fabric",
    "sim/fabric.py": "sim.fabric",
    "sim/relaxed.py": "sim.fabric",
    "sim/procpool.py": "sim.fabric",
    "sim/trace.py": "sim.trace",
    "lan/segment.py": "lan.segment",
    "lan/nic.py": "lan.nic",
}
_PACKAGE_DEFAULTS = {"sim": "sim.engine", "lan": "lan.host"}


class LayerMap:
    """Maps a code object's file name to its layer."""

    def __init__(self, package_root) -> None:
        self._prefix = os.path.join(os.path.abspath(package_root), "")

    def layer_of(self, filename: str) -> str:
        if filename.startswith("<switchlet "):
            return "switchlets"
        path = os.path.abspath(filename)
        if not path.startswith(self._prefix):
            return "python"
        relative = path[len(self._prefix):].replace(os.sep, "/")
        package = relative.partition("/")[0]
        if package in _PACKAGE_LAYERS:
            return package
        if relative in _MODULE_LAYERS:
            return _MODULE_LAYERS[relative]
        return _PACKAGE_DEFAULTS.get(package, "python")


def self_time(stats, layer_map: LayerMap) -> Dict[str, float]:
    """Self seconds per layer from ``cProfile.Profile.stats`` (after ``create_stats``)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            totals[layer_map.layer_of(filename)] += tt
            continue
        # A builtin: callers map (file, line, name) -> (nc, cc, tt, ct).
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for (caller_file, _line, _name), entry in callers.items():
            by_layer[layer_map.layer_of(caller_file)] += entry[2]
        spent = sum(by_layer.values())
        if spent <= 0.0:
            totals["python"] += tt
            continue
        for layer, caller_tt in by_layer.items():
            totals[layer] += tt * caller_tt / spent
    return totals


def shares(seconds: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the phase; the shares sum to 1."""
    total = sum(seconds.values())
    result = {layer: (value / total if total > 0 else 0.0) for layer, value in seconds.items()}
    if total > 0 and abs(sum(result.values()) - 1.0) > 1e-9:
        raise ArithmeticError("layer shares do not sum to 1")
    return result


def calls(stats, module: str, names: Iterable[str]) -> int:
    """Calls of the named functions defined in ``module`` (``"lan/nic.py"``)."""
    suffix = os.sep + module.replace("/", os.sep)
    wanted = set(names)
    return sum(
        entry[1]
        for (filename, _line, name), entry in stats.items()
        if name in wanted and filename.endswith(suffix)
    )
