"""macroforge: macro-compacting assembler, byte-string compactor, and VM
for the MCRL interpretive bytecode."""

from .greedy import (
    CompactionResult,
    Macro,
    exact_select,
    expand_macros,
    greedy_select,
)
from .optimal import (
    BudgetError,
    CostEstimate,
    Occurrence,
    estimate_cost,
    mwis,
)
from .asm import AsmError, LayoutError, assemble
from .disasm import DisasmError, render_listing, render_source
from .macros import compact_source, compact_stream
from .objfile import MacroEntry, ObjectError, ObjectImage
from .vm import LoadError, RunOutcome, VmFault, load, run
from .isa import MAX_MACROS

__version__ = "0.1.0"
