"""Host heap memory accessed by the CGRA through DMA (Section III).

"The heap memory stores arrays and object fields and is part of the
AMIDAR processor.  The CGRA can load required values via direct memory
access."  Arrays are identified by integer handles; elements are 32-bit
wrapped integers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.arch.operations import wrap32

__all__ = ["Heap", "HeapError"]


class HeapError(Exception):
    """Out-of-range or unknown-handle heap access."""


class Heap:
    def __init__(self) -> None:
        self._arrays: Dict[int, List[int]] = {}

    def allocate(self, handle: int, data: Sequence[int]) -> None:
        if handle in self._arrays:
            raise HeapError(f"handle {handle} already allocated")
        self._arrays[handle] = [wrap32(int(v)) for v in data]

    def load(self, handle: int, index: int) -> int:
        arr = self._get(handle)
        if not 0 <= index < len(arr):
            raise HeapError(
                f"load index {index} out of range for handle {handle} "
                f"(length {len(arr)})"
            )
        return arr[index]

    def store(self, handle: int, index: int, value: int) -> None:
        arr = self._get(handle)
        if not 0 <= index < len(arr):
            raise HeapError(
                f"store index {index} out of range for handle {handle} "
                f"(length {len(arr)})"
            )
        arr[index] = wrap32(int(value))

    def array(self, handle: int) -> List[int]:
        """The current contents of an array (a direct reference)."""
        return self._get(handle)

    def get(self, handle: int) -> Sequence[int]:
        """The array of ``handle`` (a direct reference), or ``()`` when
        none is allocated: an empty range every index falls outside."""
        return self._arrays.get(handle, ())

    def items(self) -> Iterable:
        """``(handle, contents)`` pairs (direct references)."""
        return self._arrays.items()

    def _get(self, handle: int) -> List[int]:
        try:
            return self._arrays[handle]
        except KeyError:
            raise HeapError(f"unknown heap handle {handle}") from None

    def __contains__(self, handle: int) -> bool:
        return handle in self._arrays
