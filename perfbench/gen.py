"""Seeded inputs for the benchmark: MCRL programs, kernels and byte blobs.

The benchmark keeps its own generator so that changes to
``macroforge.corpus`` never change what it measures.  Programs follow the
same register discipline as the corpus generator (WA/WB data, WC loop
counter, XL/XR address bases, XS balanced), so compaction must preserve
their traces exactly.

Unlike ``corpus.py``, the 2-byte data block is placed after the assembled
code, not at a fixed address, so it never overlaps the program whatever
its size.  A program too large to leave room for the block below 0x8000
(the highest address an operand can name) is refused.
"""

from __future__ import annotations

import random
import re

from macroforge import asm, isa

DATA_REGS = ("WA", "WB")
ADDR_REGS = ("XL", "XR")
DATA_WORDS = 0x2C                 # words in the 2-byte data block
OUTER_COUNTER = 0xF0              # work-area word of the vm-hot outer loop
KERNEL_COUNTER = 0xF2             # work-area word of the kernels' loops
TABLE_BASE = 0x60                 # work-area table of the memory kernel

_DATA_REF = re.compile(r"<D([0-9A-F]{2})>")


class ProgramGen:
    """Builds one program from templates drawn out of small operand pools.

    ``pool`` scales every pool: 1 gives highly repetitive code, larger
    values spread the same instruction count over more distinct
    encodings.  Data addresses in the 2-byte block are written as
    ``<Dxx>`` offsets and bound by :meth:`text`.
    """

    TEMPLATES = (
        ("t_arith", 5), ("t_mov", 6), ("t_out", 2), ("t_stack", 3),
        ("t_indexed", 2), ("t_indirect", 2), ("t_lcw", 1), ("t_loop", 3),
        ("t_skip", 2), ("t_brn", 1), ("t_bri", 1),
    )

    def __init__(self, rng: random.Random, pool: int) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.count = 0
        self.label_n = 0
        self.lits = ([rng.randrange(0x80) for _ in range(pool)]
                     + [rng.randrange(0x80, 0x8000) for _ in range(pool)])
        self.mem1 = [rng.randrange(0x10, 0x2C) * 2 for _ in range(pool + 1)]
        self.mem2 = [rng.randrange(DATA_WORDS) * 2 for _ in range(pool)]
        self.bases = [rng.randrange(0x10, 0x28) * 2 for _ in range(pool)]
        self.offs = [0] + [rng.choice((2, 4, 6, 8)) for _ in range(pool)]
        self._names = [n for n, w in self.TEMPLATES for _ in range(w)]

    def pick(self, pool):
        return self.rng.choice(pool)

    def label(self) -> str:
        self.label_n += 1
        if self.label_n > 9999:
            raise ValueError("label space exhausted")
        return f"L{self.label_n:04d}"

    def emit(self, text: str, label: str = "") -> None:
        self.lines.append(f"{label:<7}{text}".rstrip())
        self.count += 1

    def data(self) -> str:
        return f"@<D{self.pick(self.mem2):02X}>"

    # single instructions

    def t_arith(self) -> None:
        r = self.pick(DATA_REGS)
        kind = self.rng.randrange(5)
        if kind == 0:
            self.emit(f"ADD ={self.pick(self.lits):X}, {r}")
        elif kind == 1:
            self.emit(f"SUB ={self.pick(self.lits):X}, {r}")
        elif kind == 2:
            self.emit(f"ADD {self.pick(DATA_REGS)}, {r}")
        elif kind == 3:
            self.emit(f"ICV {r}")
        else:
            self.emit(f"DCV {r}")

    def t_mov(self) -> None:
        r = self.pick(DATA_REGS)
        kind = self.rng.randrange(6)
        if kind == 0:
            self.emit(f"MOV ={self.pick(self.lits):X}, {r}")
        elif kind == 1:
            self.emit(f"MOV {r}, {self.pick(DATA_REGS)}")
        elif kind == 2:
            self.emit(f"MOV {r}, @{self.pick(self.mem1):02X}")
        elif kind == 3:
            self.emit(f"MOV @{self.pick(self.mem1):02X}, {r}")
        elif kind == 4:
            self.emit(f"MOV {r}, {self.data()}")
        else:
            self.emit(f"MOV {self.data()}, {r}")

    def t_out(self) -> None:
        kind = self.rng.randrange(3)
        if kind == 0:
            self.emit(f"OUT {self.pick(DATA_REGS)}")
        elif kind == 1:
            self.emit(f"OUT @{self.pick(self.mem1):02X}")
        else:
            self.emit(f"OUT ={self.pick(self.lits):X}")

    def filler(self) -> None:
        self.pick((self.t_arith, self.t_mov, self.t_out))()

    # instruction groups

    def t_stack(self) -> None:
        self.emit(f"MOV {self.pick(DATA_REGS)}, -(XS)")
        for _ in range(self.rng.randrange(3)):
            self.filler()
        self.emit(f"MOV (XS)+, {self.pick(DATA_REGS)}")

    def t_indexed(self) -> None:
        xr = self.pick(ADDR_REGS)
        self.emit(f"MOV ={self.pick(self.bases):X}, {xr}")
        off = self.pick(self.offs)
        if self.rng.random() < 0.5:
            self.emit(f"MOV {self.pick(DATA_REGS)}, {off:X}({xr})")
        else:
            self.emit(f"MOV {off:X}({xr}), {self.pick(DATA_REGS)}")

    def t_indirect(self) -> None:
        xr = self.pick(ADDR_REGS)
        self.emit(f"MOV ={self.pick(self.bases):X}, {xr}")
        if self.rng.random() < 0.5:
            self.emit(f"MOV {self.pick(DATA_REGS)}, ({xr})")
        else:
            self.emit(f"MOV ({xr}), {self.pick(DATA_REGS)}")

    def t_lcw(self) -> None:
        self.emit(f"MOV ={self.pick(self.bases):X}, XL")
        self.emit(f"LCW {self.pick(DATA_REGS)}")

    def t_loop(self) -> None:
        top = self.label()
        self.emit("ZER WC")
        self.emit("ICV WC", label=top)
        for _ in range(self.rng.randrange(1, 4)):
            self.filler()
        back = top if self.rng.random() < 0.3 else f"-{top}"
        self.emit(f"BLT WC, ={self.rng.randint(2, 5):X}, {back}")

    def t_skip(self) -> None:
        dest = self.label()
        cond = self.pick(("BEQ", "BNE", "BLT"))
        wide = self.rng.random() < 0.25
        mark = dest if self.rng.random() < 0.3 else f"+{dest}"
        self.emit(f"{cond} {self.pick(DATA_REGS)}, {self.pick(DATA_REGS)}, "
                  f"{mark}")
        for _ in range(self.rng.randrange(18, 25) if wide
                       else self.rng.randrange(1, 4)):
            self.filler()
        self.emit(f"OUT {self.pick(DATA_REGS)}", label=dest)

    def t_brn(self) -> None:
        dest = self.label()
        self.emit(f"BRN {dest if self.rng.random() < 0.3 else '+' + dest}")
        for _ in range(self.rng.randrange(1, 4)):
            self.filler()
        self.emit("NOP", label=dest)

    def t_bri(self) -> None:
        # WA holds a code address only until the landing point reloads it;
        # code addresses move under compaction, data values must not
        dest = self.label()
        self.emit(f"MOV ={dest}, WA")
        self.emit("BRI WA")
        self.emit(f"MOV ={self.pick(self.lits):X}, WA", label=dest)

    def body(self, instructions: int) -> None:
        while self.count < instructions:
            getattr(self, self.rng.choice(self._names))()

    def trailer(self) -> list[str]:
        tail = [f"       OUT {r}" for r in ("WA", "WB", "WC")]
        tail += [f"       OUT @{a:02X}" for a in self.mem1]
        tail += [f"       OUT @<D{a:02X}>" for a in self.mem2]
        tail.append("       HLT")
        return tail

    def text(self, outer_loops: int = 0) -> str:
        """Final source; with outer_loops the body repeats that many times,
        counted in a work-area word the body never touches."""
        lines = self.lines
        if outer_loops:
            lines = ([f"       ZER @{OUTER_COUNTER:02X}", "OUTER  NOP"]
                     + lines
                     + [f"       ICV @{OUTER_COUNTER:02X}",
                        f"       BLT @{OUTER_COUNTER:02X}, ={outer_loops:X}, "
                        "OUTER"])
        return bind_data("\n".join(lines + self.trailer()) + "\n")


def bind_data(text: str) -> str:
    """Place the 2-byte data block just past the assembled code."""
    probe = _DATA_REF.sub(lambda m: f"{0x4000 + int(m.group(1), 16):04X}",
                          text)
    size = len(asm.assemble(probe).code)
    base = (isa.DEFAULT_ORIGIN + size + 3) & ~1
    if base + 2 * DATA_WORDS > 0x8000:
        raise ValueError(f"program of {size} bytes leaves no room for its "
                         "data block below 0x8000")
    return _DATA_REF.sub(lambda m: f"{base + int(m.group(1), 16):04X}", text)


def program(rng: random.Random, instructions: int, pool: int,
            outer_loops: int = 0) -> str:
    gen = ProgramGen(rng, pool)
    gen.body(instructions)
    return gen.text(outer_loops)


# ---------------------------------------------------------------------------
# Hand-written kernels.  Each returns (source, expected trace); the trace is
# computed here in Python from what the kernel means, not by running it.

M16 = 0xFFFF


def kernel_fib(rng: random.Random, n: int) -> tuple[str, list[int]]:
    a, b = rng.randrange(0x8000), rng.randrange(0x8000)
    src = f"""\
       MOV ={a:X}, WA
       MOV ={b:X}, WB
       ZER @{KERNEL_COUNTER:02X}
FLOOP  ADD WA, WB
       OUT WB
       ADD WB, WA
       OUT WA
       ADD WA, WB
       OUT WB
       ADD WB, WA
       OUT WA
       ICV @{KERNEL_COUNTER:02X}
       BLT @{KERNEL_COUNTER:02X}, ={n:X}, -FLOOP
       HLT
"""
    trace = []
    for _ in range(2 * n):
        b = (a + b) & M16
        a = (a + b) & M16
        trace += [b, a]
    return src, trace


def kernel_stack(rng: random.Random, n: int) -> tuple[str, list[int]]:
    s, c1, c2 = (rng.randrange(0x8000), rng.randrange(1, 0x80),
                 rng.randrange(0x80, 0x8000))
    src = f"""\
       MOV ={s:X}, WA
       ZER WB
       ZER @{KERNEL_COUNTER:02X}
SLOOP  MOV WA, -(XS)
       ADD ={c1:X}, WA
       MOV WA, -(XS)
       ADD ={c2:X}, WA
       MOV (XS)+, WC
       ADD WC, WB
       MOV (XS)+, WC
       ADD WC, WB
       OUT WB
       ICV @{KERNEL_COUNTER:02X}
       BLT @{KERNEL_COUNTER:02X}, ={n:X}, -SLOOP
       HLT
"""
    trace = []
    wa, wb = s, 0
    for _ in range(n):
        first = wa
        wa = (wa + c1) & M16
        second = wa
        wa = (wa + c2) & M16
        wb = (wb + second + first) & M16
        trace.append(wb)
    return src, trace


def kernel_table(rng: random.Random, n: int) -> tuple[str, list[int]]:
    v, k = rng.randrange(0x8000), rng.randrange(1, 0x80)
    src = f"""\
       MOV ={v:X}, WA
       ZER @{KERNEL_COUNTER:02X}
TLOOP  MOV ={TABLE_BASE:X}, XL
       MOV WA, (XL)
       ADD ={k:X}, WA
       MOV WA, 2(XL)
       ADD ={k:X}, WA
       MOV WA, 4(XL)
       ZER WB
       LCW WC
       ADD WC, WB
       LCW WC
       ADD WC, WB
       LCW WC
       ADD WC, WB
       OUT WB
       ICV @{KERNEL_COUNTER:02X}
       BLT @{KERNEL_COUNTER:02X}, ={n:X}, -TLOOP
       HLT
"""
    trace = []
    wa = v
    for _ in range(n):
        row = [wa, (wa + k) & M16, (wa + 2 * k) & M16]
        wa = row[2]
        trace.append(sum(row) & M16)
    return src, trace


KERNELS = (kernel_fib, kernel_stack, kernel_table)
