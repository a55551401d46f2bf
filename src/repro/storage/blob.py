"""Append-only blobs and the BlobGroup container (baseline LogStore SDK).

Paper Section III: the storage SDK appends REDO logs through *BlobGroups* -
logical containers of (by default) four append-only blobs.  Incoming append
requests against the same BlobGroup are merged into one longer request,
split into fixed-size physical I/Os (8 KB by default), and the pieces are
assigned round-robin across the blobs for parallel execution.

This is the structure AStore's SegmentRing replaces; the ablation benchmark
compares the two directly.
"""

from __future__ import annotations

from typing import List

from ..common import GB, KB, CapacityError
from ..sim.core import Environment, FanOut
from ..sim.devices import SsdDevice

__all__ = ["Blob", "BlobGroup", "DEFAULT_IO_SIZE"]

#: Fixed physical I/O size (paper: "executed physically in a fixed size,
#: 8 KB by default").
DEFAULT_IO_SIZE = 8 * KB


class Blob:
    """A single append-only blob on an SSD device."""

    def __init__(self, env: Environment, device: SsdDevice, capacity: int = 10 * GB):
        self.env = env
        self.device = device
        self.capacity = capacity
        self.length = 0
        self.appends = 0

    @property
    def free_space(self) -> int:
        return self.capacity - self.length

    def append(self, nbytes: int):
        """Generator: one physical append I/O.  Returns the write offset."""
        if nbytes > self.free_space:
            raise CapacityError("blob full")
        offset = self.length
        self.length += nbytes
        yield from self.device.write(nbytes)
        self.appends += 1
        return offset


class BlobGroup:
    """Four-blob logical container with fixed-size striped I/O.

    ``append`` splits the (already merged) logical write into
    ``io_size``-sized requests, assigns them round-robin over the blobs,
    and runs them in parallel - completing when the slowest stripe lands.
    """

    def __init__(
        self,
        env: Environment,
        devices: List[SsdDevice],
        blobs_per_group: int = 4,
        blob_capacity: int = 10 * GB,
        io_size: int = DEFAULT_IO_SIZE,
    ):
        if blobs_per_group < 1:
            raise ValueError("need at least one blob")
        if io_size < 1:
            raise ValueError("io_size must be positive")
        self.env = env
        self.io_size = io_size
        self.blobs = [
            Blob(env, devices[index % len(devices)], blob_capacity)
            for index in range(blobs_per_group)
        ]
        self._next_blob = 0
        self.logical_appends = 0
        self.physical_ios = 0

    @property
    def capacity(self) -> int:
        return sum(blob.capacity for blob in self.blobs)

    @property
    def length(self) -> int:
        return sum(blob.length for blob in self.blobs)

    def split_sizes(self, nbytes: int) -> List[int]:
        """The fixed-size pieces a logical append becomes."""
        if nbytes <= 0:
            raise ValueError("append of %d bytes" % nbytes)
        full, rest = divmod(nbytes, self.io_size)
        sizes = [self.io_size] * full
        if rest:
            sizes.append(rest)
        return sizes

    def append(self, nbytes: int):
        """Generator: striped parallel append.  Returns stripe count."""
        sizes = self.split_sizes(nbytes)
        stripes = []
        for size in sizes:
            blob = self.blobs[self._next_blob]
            self._next_blob = (self._next_blob + 1) % len(self.blobs)
            stripes.append(blob.append(size))
        yield FanOut(self.env, stripes)
        self.logical_appends += 1
        self.physical_ios += len(sizes)
        return len(sizes)
