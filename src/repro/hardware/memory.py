"""Simulated GPU device memory.

Tracks allocations against the profile's capacity so the optimizer's
working-set test (Section 4.2.3) has real consequences: exceeding capacity
raises :class:`DeviceMemoryError`, which forces the blocked MSplitGEMM
path exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DeviceMemoryError


@dataclass
class Allocation:
    """A live region of simulated device memory."""

    nbytes: int
    label: str
    freed: bool = False


@dataclass
class DeviceMemory:
    """Bump-accounting allocator over a fixed capacity."""

    capacity: int
    _used: int = 0
    _peak: int = 0
    _live: list[Allocation] = field(default_factory=list)

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.capacity - self._used

    @property
    def peak(self) -> int:
        """High-water mark of usage since creation (or last reset)."""
        return self._peak

    def allocate(self, nbytes: int, label: str = "") -> Allocation:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if nbytes > self.available:
            raise DeviceMemoryError(nbytes, self.available, self.capacity)
        allocation = Allocation(nbytes=nbytes, label=label)
        self._live.append(allocation)
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return allocation

    def free(self, allocation: Allocation) -> None:
        if allocation.freed:
            raise ValueError(f"double free of allocation {allocation.label!r}")
        allocation.freed = True
        self._live.remove(allocation)
        self._used -= allocation.nbytes

    def fits(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would currently succeed."""
        return int(nbytes) <= self.available

    def reset(self) -> None:
        """Free everything (end of query) and clear the high-water mark."""
        self._live.clear()
        self._used = 0
        self._peak = 0
