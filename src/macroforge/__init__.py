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
from .disasm import DisasmError, disassemble, render_listing, render_source
from .macros import compact_source, compact_stream
from .objfile import MacroEntry, ObjectError, ObjectImage
from .vm import LoadError, RunOutcome, VmFault, load, run
from .isa import MACRO_OPCODE_BASE as MACRO_CODE_LO, MAX_MACROS

MACRO_CODE_HI = 0xFF  # macro opcodes are MACRO_CODE_LO..MACRO_CODE_HI
__version__ = "0.1.0"
