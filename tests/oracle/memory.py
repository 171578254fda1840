"""Memory-system models: shared DRAM channel and on-chip scratchpads.

The paper's platforms share one off-chip feature memory (Table IV). We
model it as a bandwidth server: each burst occupies the channel for
``bytes / bytes_per_cycle`` cycles after a fixed access latency, and
concurrent requesters (the engines' independent memory controllers)
arbitrate FIFO. Per-requester byte counters feed the evaluation reports.

Scratchpads are capacity bookkeepers: allocation beyond capacity is a
simulation error (the compiler's residency planning must have sized shard
working sets to fit — tests rely on this tripwire).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.config.accelerator import DramConfig

from .kernel import Environment, Event, SimulationError
from .queues import Resource

if TYPE_CHECKING:
    from repro.obs.hwtel import HwProbe


@dataclass
class TrafficCounter:
    """Bytes and transactions by direction for one requester."""

    read_bytes: int = 0
    write_bytes: int = 0
    read_transactions: int = 0
    write_transactions: int = 0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def record(self, direction: str, num_bytes: int) -> None:
        if direction == "read":
            self.read_bytes += num_bytes
            self.read_transactions += 1
        elif direction == "write":
            self.write_bytes += num_bytes
            self.write_transactions += 1
        else:
            raise SimulationError(f"unknown direction {direction!r}")


class DramChannel:
    """Shared off-chip memory channel with FIFO arbitration.

    ``transfer`` is a process helper: ``yield from channel.transfer(...)``
    suspends the caller for the queueing + service time of the burst.
    """

    def __init__(self, env: Environment, config: DramConfig,
                 probe: HwProbe | None = None) -> None:
        self.env = env
        self.config = config
        self._port = Resource(env, capacity=1)
        self.counters: dict[str, TrafficCounter] = {}
        self.busy_cycles = 0
        #: Optional :class:`repro.obs.hwtel.HwProbe`: records the
        #: requester and queue depth at each request's arrival and the
        #: burst (grant cycle, occupancy, bytes) — appends only, never
        #: read here, so a probed run is cycle-identical to an
        #: unprobed one.
        self.probe = probe

    def counter(self, requester: str) -> TrafficCounter:
        if requester not in self.counters:
            self.counters[requester] = TrafficCounter()
        return self.counters[requester]

    def transfer(self, requester: str, direction: str,
                 num_bytes: int) -> Generator[Event, Any, None]:
        """Generator: arbitrate, occupy the channel for the burst's
        bandwidth time, then pay the access latency off-channel.

        Holding the port only for the occupancy (not the latency) lets
        independent requesters pipeline their bursts, as a real memory
        controller does.
        """
        if num_bytes < 0:
            raise SimulationError("negative transfer size")
        self.counter(requester).record(direction, num_bytes)
        if num_bytes == 0:
            return
        occupancy = max(
            int(round(num_bytes / self.config.bytes_per_cycle)), 1)
        probe = self.probe
        if probe is not None:
            probe.queue.append(
                (requester, self.env.now,
                 self._port.in_use + self._port.queue_length))
        yield self._port.request()
        if probe is not None:
            probe.dram.append((requester, direction, self.env.now,
                               occupancy, num_bytes))
        self.busy_cycles += occupancy
        try:
            yield self.env.timeout(occupancy)
        finally:
            self._port.release()
        if self.config.burst_latency_cycles:
            yield self.env.timeout(self.config.burst_latency_cycles)

    @property
    def total_bytes(self) -> int:
        return sum(c.total_bytes for c in self.counters.values())

    @property
    def total_read_bytes(self) -> int:
        return sum(c.read_bytes for c in self.counters.values())

    @property
    def total_write_bytes(self) -> int:
        return sum(c.write_bytes for c in self.counters.values())

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of elapsed time the channel was moving data."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(self.busy_cycles / elapsed_cycles, 1.0)


@dataclass
class Scratchpad:
    """Capacity-checked on-chip buffer with named allocations."""

    name: str
    capacity_bytes: int
    allocations: dict[str, int] = field(default_factory=dict)
    peak_bytes: int = 0

    def allocate(self, key: str, num_bytes: int) -> None:
        if num_bytes < 0:
            raise SimulationError("negative allocation")
        current = self.allocations.get(key, 0)
        new_total = self.used_bytes - current + num_bytes
        if new_total > self.capacity_bytes:
            raise SimulationError(
                f"scratchpad {self.name!r} overflow: {new_total} bytes "
                f"requested, capacity {self.capacity_bytes} "
                f"(allocating {key!r})")
        self.allocations[key] = num_bytes
        self.peak_bytes = max(self.peak_bytes, new_total)

    def free(self, key: str) -> None:
        self.allocations.pop(key, None)

    @property
    def used_bytes(self) -> int:
        return sum(self.allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes


class BusyTracker:
    """Accumulates busy cycles for a unit, for utilisation reports."""

    def __init__(self) -> None:
        self.busy_cycles = 0
        self.operations = 0

    def record(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError("negative busy time")
        self.busy_cycles += cycles
        self.operations += 1

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(self.busy_cycles / elapsed_cycles, 1.0)
