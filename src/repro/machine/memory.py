"""Byte-addressable memory with AltiVec-style truncating vector access.

The paper's target machines "support only loads and stores of
register-length aligned memory": a vector load at address ``p`` ignores
the low ``log2(V)`` address bits (AltiVec ``vec_ld``), and likewise for
stores.  :class:`Memory` implements exactly that contract.

The backing store is allocated through
:func:`repro.machine.alignedbuf.aligned_view`, so byte 0 of every
memory image sits on a 64-byte boundary.  Simulation never notices
(addresses here are offsets), but the native tier's vector-extension
kernels receive ``raw()`` zero-copy and promise the compiler that all
V-truncated addresses are genuinely V-aligned — a promise that is only
true if the base is.  Clones and unpickled memories get the same
alignment from :func:`~repro.machine.alignedbuf.aligned_empty`.
"""

from __future__ import annotations

from repro.errors import MachineError
from repro.machine.alignedbuf import aligned_empty, aligned_view


def _restore(size: int, data: bytes) -> "Memory":
    """Pickle constructor: rebuild an aligned memory from its bytes."""
    return Memory._of(size, data)


class Memory:
    """A flat little-endian byte-addressable memory."""

    def __init__(self, size: int, fill: int = 0xCD):
        if size <= 0:
            raise MachineError("memory size must be positive")
        self._data = aligned_view(size, fill=fill)
        self.size = size

    # -- raw byte access ------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` raw bytes (no alignment truncation)."""
        self._check(addr, nbytes)
        return bytes(self._data[addr:addr + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes (no alignment truncation)."""
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data

    # -- vector access with hardware truncation --------------------------

    def vload(self, addr: int, V: int) -> bytes:
        """Load ``V`` contiguous bytes from ``addr`` truncated down to a
        multiple of ``V`` — the paper's alignment-constrained load."""
        base = addr - (addr % V)
        return self.read(base, V)

    def vstore(self, addr: int, data: bytes, V: int) -> None:
        """Store a full vector at ``addr`` truncated down to a multiple of
        ``V`` — the paper's alignment-constrained store."""
        if len(data) != V:
            raise MachineError(f"vstore of {len(data)} bytes on a {V}-byte machine")
        base = addr - (addr % V)
        self.write(base, data)

    # -- helpers ---------------------------------------------------------

    def raw(self) -> memoryview:
        """The live backing store, shared (not copied).

        Execution backends that wrap the memory in typed array views
        (e.g. a NumPy ``uint8`` view, or the native tier's ctypes
        pointer) use this to mutate the same bytes the byte-level
        accessors see, so both access paths stay coherent within one
        run.  The view's base address is 64-byte aligned (see module
        docstring); it is fixed-size, so whole-image restores go
        through slice assignment (``raw()[:] = snapshot``).
        """
        return self._data

    def snapshot(self) -> bytes:
        """An immutable copy of the whole memory, for equivalence checks."""
        return bytes(self._data)

    def clone(self) -> "Memory":
        """An independent, equally aligned copy of this memory.

        One pass over the bytes: the copy lands in uninitialised
        aligned storage (:func:`~repro.machine.alignedbuf.aligned_empty`)
        instead of a zero-filled buffer that is then overwritten.
        """
        return Memory._of(self.size, self._data)

    @classmethod
    def _of(cls, size: int, data) -> "Memory":
        mem = cls.__new__(cls)
        mem._data = aligned_empty(size)
        mem._data[:] = data
        mem.size = size
        return mem

    def __reduce__(self):
        # memoryviews don't pickle; rebuild the aligned backing on load
        # (sweep workers ship memories across process boundaries).
        return (_restore, (self.size, bytes(self._data)))

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MachineError(
                f"access [{addr}, {addr + nbytes}) outside memory of size {self.size}"
            )
