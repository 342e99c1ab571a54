"""Discrete-event simulation kernel.

Everything in the reproduction runs on top of this small kernel: a
monotonically increasing simulated clock, a priority queue of events, timers,
and a few conveniences (cooperative processes, deterministic randomness, and
an event trace used by the measurement tools).

The kernel is deliberately simple — the paper's node is an event-driven
user-space program, and this kernel gives us exactly the "wake up, handle a
frame, go back to sleep" structure of that program with reproducible timing.
"""

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue
from repro.sim.engine import Simulator
from repro.sim.fabric import FabricTrace, ShardedSimulator
from repro.sim.shard import EngineShard, ShardTraceRecorder
from repro.sim.timers import Timer, PeriodicTimer
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.trace import (
    CountingSink,
    ListSink,
    NullSink,
    RingBufferSink,
    TraceRecord,
    TraceRecorder,
    TraceSink,
)

__all__ = [
    "Clock",
    "EngineShard",
    "Event",
    "EventQueue",
    "FabricTrace",
    "ShardTraceRecorder",
    "ShardedSimulator",
    "Simulator",
    "Timer",
    "PeriodicTimer",
    "Process",
    "RandomSource",
    "TraceRecorder",
    "TraceRecord",
    "TraceSink",
    "ListSink",
    "RingBufferSink",
    "CountingSink",
    "NullSink",
]
