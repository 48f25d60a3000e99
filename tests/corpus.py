"""Seeded generator of synthetic assembly programs.

The generator exists because the compaction pipeline needs realistic,
repetitive input: programs drawn from small per-program pools of
registers, literals, and addresses, so the same encoded instructions
and short instruction sequences recur the way they do in real code.

Register discipline keeps every generated program safe to compact:

  WA, WB   data values only
  WC       loop counter only
  XL, XR   address bases only, re-pointed into scratch before each use
  XS       stack, always balanced push/pop pairs

Data lives in the zero-page scratch area (below 0x100) and in a block
at 0x7000, above the code: generate_corpus refuses a size that would
reach the block, so a program never reads or writes its own instruction
bytes.  That property is what makes traces identical before and after
macro substitution.  Loops count up to at most 5 with a dedicated
register, so every program halts well inside the default fuel.
"""

from __future__ import annotations

import random

from macroforge import asm, isa

DATA_REGS = ("WA", "WB")
ADDR_REGS = ("XL", "XR")
DATA_BLOCK = 0x7000
MAX_CODE_BYTES = DATA_BLOCK - isa.DEFAULT_ORIGIN  # code ends below the block


class _Gen:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list = []
        self.count = 0
        self.label_n = 0
        # Small pools drive repetition; every draw comes from these.
        small = [rng.randrange(0x80) for _ in range(2)]
        large = [rng.randrange(0x80, 0x8000) for _ in range(2)]
        self.lits = small + large
        self.mem1 = [rng.randrange(0x10, 0x2C) * 2 for _ in range(3)]
        self.mem2 = [DATA_BLOCK + rng.randrange(0, 0x2C) * 2 for _ in range(2)]
        self.bases = [rng.randrange(0x10, 0x28) * 2 for _ in range(2)]
        self.offs = [0, rng.choice((2, 4, 6, 8))]

    # -- plumbing --

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

    # -- single-instruction templates --

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
            self.emit(f"MOV {r}, @{self.pick(self.mem2):04X}")
        else:
            self.emit(f"MOV @{self.pick(self.mem2):04X}, {r}")

    def t_out(self) -> None:
        kind = self.rng.randrange(3)
        if kind == 0:
            self.emit(f"OUT {self.pick(DATA_REGS)}")
        elif kind == 1:
            self.emit(f"OUT @{self.pick(self.mem1):02X}")
        else:
            self.emit(f"OUT ={self.pick(self.lits):X}")

    def _filler(self) -> None:
        self.pick((self.t_arith, self.t_mov, self.t_out))()

    # -- multi-instruction templates --

    def t_stack(self) -> None:
        self.emit(f"MOV {self.pick(DATA_REGS)}, -(XS)")
        for _ in range(self.rng.randrange(3)):
            self._filler()
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
        n = self.rng.randint(2, 5)
        self.emit("ZER WC")
        self.emit("ICV WC", label=top)
        for _ in range(self.rng.randrange(1, 4)):
            self._filler()
        back = top if self.rng.random() < 0.3 else f"-{top}"
        self.emit(f"BLT WC, ={n:X}, {back}")

    def t_skip(self) -> None:
        dest = self.label()
        cond = self.pick(("BEQ", "BNE", "BLT"))
        a, b = self.pick(DATA_REGS), self.pick(DATA_REGS)
        wide = self.rng.random() < 0.25
        mark = dest if self.rng.random() < 0.3 else f"+{dest}"
        self.emit(f"{cond} {a}, {b}, {mark}")
        for _ in range(self.rng.randrange(18, 25) if wide
                       else self.rng.randrange(1, 4)):
            self._filler()
        self.emit(f"OUT {self.pick(DATA_REGS)}", label=dest)

    def t_brn(self) -> None:
        dest = self.label()
        mark = dest if self.rng.random() < 0.3 else f"+{dest}"
        self.emit(f"BRN {mark}")
        for _ in range(self.rng.randrange(1, 4)):
            self._filler()
        self.emit("NOP", label=dest)

    def t_bri(self) -> None:
        dest = self.label()
        self.emit(f"MOV ={dest}, WA")
        self.emit("BRI WA")
        # WA held a code address; reload it at the landing point, before
        # anything downstream can OUT it (code addresses shift when the
        # program is compacted, data values do not)
        self.emit(f"MOV ={self.pick(self.lits):X}, WA", label=dest)

    # -- program assembly --

    TEMPLATES = (
        ("t_arith", 5), ("t_mov", 6), ("t_out", 2), ("t_stack", 3),
        ("t_indexed", 2), ("t_indirect", 2), ("t_lcw", 1), ("t_loop", 3),
        ("t_skip", 2), ("t_brn", 1), ("t_bri", 1),
    )

    def step(self) -> None:
        names = [n for n, w in self.TEMPLATES for _ in range(w)]
        getattr(self, self.rng.choice(names))()

    def trailer(self) -> list:
        tail = [f"      OUT {r}" for r in ("WA", "WB", "WC")]
        tail += [f"      OUT @{a:02X}" for a in self.mem1]
        tail += [f"      OUT @{a:04X}" for a in self.mem2]
        tail.append("      HLT")
        return tail

    def text(self) -> str:
        return "\n".join(self.lines + self.trailer()) + "\n"


def generate_program(seed: int, min_instructions: int = 50,
                     max_instructions: int = 300) -> str:
    """One self-contained program, deterministic in the seed."""
    rng = random.Random(seed)
    gen = _Gen(rng)
    target = rng.randint(min_instructions, max_instructions)
    while gen.count < target:
        gen.step()
    return gen.text()


def generate_corpus(seed: int, min_bytes: int = 8000) -> str:
    """One large program whose assembled size reaches min_bytes.

    Raises ValueError when the code would reach the data block, which
    leaves MAX_CODE_BYTES for code at the default origin.
    """
    if min_bytes >= MAX_CODE_BYTES:
        raise ValueError(f"min_bytes {min_bytes} reaches the data block; "
                         f"code must stay under {MAX_CODE_BYTES} bytes")
    rng = random.Random(seed)
    gen = _Gen(rng)
    # Every label and short-branch ref stays inside one template, so the
    # sizes of separately assembled pieces add up: each chunk of 60 steps
    # is assembled once, on its own.
    size = len(asm.assemble("\n".join(gen.trailer()) + "\n").code)
    while True:
        done = len(gen.lines)
        for _ in range(60):
            gen.step()
        size += len(asm.assemble("\n".join(gen.lines[done:]) + "\n").code)
        if size >= MAX_CODE_BYTES:
            raise ValueError(f"seed {seed}: {size} bytes of code reach "
                             f"the data block at {DATA_BLOCK:#06x}")
        if size >= min_bytes:
            return gen.text()
