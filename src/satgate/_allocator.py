"""The glibc allocator policy for repeated model calls."""

from __future__ import annotations

import ctypes
import functools

# glibc mallopt parameters and the values ``keep_working_memory_mapped`` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


@functools.cache
def keep_working_memory_mapped() -> None:
    """Keep the working memory of repeated model calls mapped between calls.

    By default glibc serves each large activation array with its own mmap and
    returns freed heap tops to the kernel, so every training step or gate
    decision page-faults its working memory back in. Raising the mmap
    threshold to 32 MiB and the trim threshold to 256 MiB keeps that memory
    in the heap for the next call. The setting lasts for the rest of the
    process, so only the first call does anything. Where the C library has
    no ``mallopt`` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
