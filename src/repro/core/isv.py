"""ISV bitmap pages: the OS-side backing store of ISVs (Figure 6.1a).

Each kernel code page has a companion ISV page at a fixed VA offset holding
one bit per instruction slot.  Pages are populated *on demand*: the first
ISV-cache miss touching a code page fills that page from the context's
function-granularity view, one range of slots per function on the page.
This keeps setup cost proportional to the code actually executed, not the
kernel size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import OP_SIZE
from repro.core.views import InstructionSpeculationView
from repro.kernel.layout import ISV_PAGE_OFFSET, PAGE_SIZE


@dataclass
class ISVPageStats:
    populated_pages: int = 0
    bit_queries: int = 0


class ISVPageTable:
    """Demand-populated ISV bitmap pages for one context's ISV."""

    def __init__(self, isv: InstructionSpeculationView) -> None:
        self.isv = isv
        self._pages: dict[int, list[bool]] = {}  # code page no -> bits
        self.stats = ISVPageStats()

    @staticmethod
    def isv_page_va(code_va: int) -> int:
        """VA of the ISV page shadowing the code page of ``code_va``."""
        return (code_va & ~(PAGE_SIZE - 1)) + ISV_PAGE_OFFSET

    def _populate(self, code_page: int) -> list[bool]:
        """Fill one code page's bits by function range.

        Each view function with slots on the page sets one slice, as
        resolved by ``isv.layout`` -- the layout ``isv.contains_va``
        uses, so every bit equals ``contains_va`` of its slot.
        """
        base_va = code_page * PAGE_SIZE
        bits = [False] * (PAGE_SIZE // OP_SIZE)
        functions = self.isv.functions
        for func, first, end in self.isv.layout.function_slots(
                base_va, base_va + PAGE_SIZE):
            if func.name in functions:
                bits[first:end] = [True] * (end - first)
        self._pages[code_page] = bits
        self.stats.populated_pages += 1
        return bits

    def bit_for(self, inst_va: int) -> bool:
        """The ISV bit for one instruction (populating its page if new)."""
        self.stats.bit_queries += 1
        code_page = inst_va // PAGE_SIZE
        bits = self._pages.get(code_page)
        if bits is None:
            bits = self._populate(code_page)
        return bits[(inst_va % PAGE_SIZE) // OP_SIZE]

    def is_populated(self, inst_va: int) -> bool:
        return inst_va // PAGE_SIZE in self._pages

    def populated_pages(self) -> int:
        return len(self._pages)

    def invalidate(self) -> None:
        """Drop all populated pages (after the ISV is reconfigured)."""
        self._pages.clear()
