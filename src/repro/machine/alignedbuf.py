"""V-aligned byte buffers for the native tier's zero-copy marshalling.

The paper's premise is that the hardware only has *aligned* vector
loads and stores; the native tier's vector-extension emitter takes the
compiler at its word and promises (`__builtin_assume_aligned`) that
every steady-loop window base, vregs slot, cvec block, and batch-row
segment is V-aligned.  That promise is only safe if it is *true*: the
Python side already truncates all window/section base addresses to
multiples of V relative to the buffer start, so the one missing piece
is the buffer start itself — CPython's ``bytearray`` payload carries
no alignment guarantee beyond the allocator's (8 or 16 bytes,
platform-dependent), and lying to ``__builtin_assume_aligned`` is
undefined behaviour that manifests as ``movaps`` faults.

:func:`aligned_view` closes the gap without copying: over-allocate a
``bytearray`` by one alignment quantum, locate the payload address via
``ctypes``, and expose the aligned interior as a writable
``memoryview``.  The view pins the backing (a ``BufferError`` greets
any resize attempt while it is live), so a ctypes array created over
the view — :func:`as_ctypes_u8` — stays valid for the duration of a
kernel call.  :func:`aligned_empty` gives the same kind of view over
uninitialised storage, for copies that overwrite every byte anyway.

``ALIGNMENT`` is 64: a multiple of every supported vector width V
(16 here, headroom through AVX-512) *and* the common cache-line size,
so aligned buffers also never split a vector across lines.
"""

from __future__ import annotations

import ctypes

#: Buffer base alignment in bytes.  Must be a power of two and an
#: upper bound on every vector width the emitter promises alignment
#: for (the emitter falls back to unaligned accesses when V exceeds
#: this, which no current configuration does).
ALIGNMENT = 64


def address_of(buf) -> int:
    """The memory address of ``buf``'s first payload byte.

    ``buf`` is any writable buffer (bytearray, memoryview).  Creating
    the one-byte ctypes view is cheap and releases its export before
    returning.
    """
    view = (ctypes.c_char * 1).from_buffer(buf)
    try:
        return ctypes.addressof(view)
    finally:
        del view


def aligned_view(size: int, align: int = ALIGNMENT,
                 fill: int | None = None) -> memoryview:
    """A writable ``size``-byte memoryview starting at an address that
    is a multiple of ``align``.

    The view owns the over-allocated backing ``bytearray`` (the
    memoryview keeps it alive), so callers hold only the view.  While
    any ctypes export of the view exists the backing cannot resize —
    which it never needs to: these buffers are fixed-size by
    construction.  ``fill`` optionally initializes every payload byte;
    the default leaves the backing zeroed (the native tier's shadow
    buffers rely on that).  Either way the backing is written in one
    pass: a filled one is built by byte repetition (a ``memset``), not
    zeroed first and then overwritten.
    """
    _check_request(size, align)
    if fill is None:
        backing = bytearray(size + align)
    else:
        backing = bytearray((fill,)) * (size + align)
    return _aligned_slice(backing, size, align)


def aligned_empty(size: int, align: int = ALIGNMENT) -> memoryview:
    """Like :func:`aligned_view`, but the content is unspecified.

    For callers that overwrite every byte straight away (memory-image
    clones and unpickling): with NumPy importable the backing is an
    uninitialised ``numpy.empty`` array, so the copy that follows is
    the only pass over the bytes; without it this is the zeroed
    :func:`aligned_view`.  The result is the same kind of view either
    way — writable, fixed-size, format ``'B'``, accepted by ctypes
    ``from_buffer`` — and the view keeps its backing alive.
    """
    _check_request(size, align)
    try:
        import numpy
    except ImportError:
        return aligned_view(size, align)
    return _aligned_slice(numpy.empty(size + align, dtype=numpy.uint8),
                          size, align)


def _check_request(size: int, align: int) -> None:
    if align <= 0 or align & (align - 1):
        raise ValueError(f"alignment {align} is not a positive power of two")
    if size < 0:
        raise ValueError(f"negative buffer size {size}")


def _aligned_slice(backing, size: int, align: int) -> memoryview:
    """The ``size``-byte window of ``backing`` that starts on ``align``."""
    offset = (-address_of(backing)) % align
    return memoryview(backing)[offset:offset + size]


def is_aligned(buf, align: int = ALIGNMENT) -> bool:
    """True when ``buf``'s first payload byte sits on an ``align``
    boundary (degenerate zero-length buffers count as aligned)."""
    if len(buf) == 0:
        return True
    return address_of(buf) % align == 0


def as_ctypes_u8(view):
    """A ``ctypes`` ``c_uint8`` array sharing ``view``'s memory.

    Zero-copy: the array's address is the view's address, so an
    aligned view yields an aligned C pointer.  Empty views get a
    detached one-byte array (the C side never dereferences a
    zero-length table, but ctypes cannot type a zero-length one).
    """
    if len(view) == 0:
        return (ctypes.c_uint8 * 1)()
    return (ctypes.c_uint8 * len(view)).from_buffer(view)
