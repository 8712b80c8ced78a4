"""Simulated disk.

The paper's storage engine (section 4.3.3) is append-only with periodic
compaction, and its durability story (section 2.3.2) distinguishes data
that reached memory from data that reached disk.  To test both -- and to
simulate crashes that lose unsynced writes -- we back the storage engine
with an in-memory "disk" whose files track a **synced prefix**: bytes
appended but not yet fsynced are discarded by :meth:`SimulatedDisk.crash`.

The disk also keeps I/O accounting (bytes written, fsync count): write
amplification and durability waits are measured and asserted on it.
"""

from __future__ import annotations

from ..common.errors import DiskFullError, InvalidArgumentError


class SimulatedFile:
    """An append-only byte file with explicit sync semantics."""

    def __init__(self, name: str, disk: "SimulatedDisk"):
        self.name = name
        self._disk = disk
        self._data = bytearray()
        self._synced_size = 0

    # -- write path ---------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Append ``data``; return the offset it was written at."""
        if self._disk.capacity is not None:
            if self._disk.used_bytes() + len(data) > self._disk.capacity:
                raise DiskFullError(
                    f"disk full writing {len(data)} bytes to {self.name!r}"
                )
        offset = len(self._data)
        self._data += data
        self._disk.stats.bytes_written += len(data)
        self._disk.stats.writes += 1
        return offset

    def sync(self) -> None:
        """Durably persist everything appended so far."""
        self._synced_size = len(self._data)
        self._disk.stats.syncs += 1

    def truncate(self, size: int) -> None:
        """Discard bytes past ``size`` (used by recovery to drop a torn
        trailing record)."""
        del self._data[size:]
        self._synced_size = min(self._synced_size, size)

    # -- read path ------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > len(self._data):
            raise InvalidArgumentError(
                f"read past EOF in {self.name!r}: "
                f"offset={offset} length={length} size={len(self._data)}"
            )
        self._disk.stats.bytes_read += length
        self._disk.stats.reads += 1
        return bytes(self._data[offset:offset + length])

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def synced_size(self) -> int:
        return self._synced_size

    def _lose_unsynced(self) -> None:
        del self._data[self._synced_size:]


class DiskStats:
    """I/O accounting for one simulated disk."""

    def __init__(self):
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes = 0
        self.reads = 0
        self.syncs = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class SimulatedDisk:
    """A namespace of :class:`SimulatedFile` objects with crash semantics."""

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self._files: dict[str, SimulatedFile] = {}
        self.stats = DiskStats()

    def open(self, name: str) -> SimulatedFile:
        """Open (creating if absent) the named file."""
        if name not in self._files:
            self._files[name] = SimulatedFile(name, self)
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def rename(self, old: str, new: str) -> None:
        """Atomic rename -- the compactor swaps the compacted file in with
        this, exactly as couchstore does."""
        if old not in self._files:
            raise FileNotFoundError(old)
        file = self._files.pop(old)
        file.name = new
        self._files[new] = file

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def used_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    def crash(self) -> None:
        """Simulate power loss: every file loses its unsynced suffix."""
        for file in self._files.values():
            file._lose_unsynced()
