"""Seeded source fuzz of compact_source.

Character and line mutations of generated programs go through greedy
and freq compaction with varied limits.  A mutant may be refused only
with AsmError (LayoutError is one); every mutant that compacts must
come back unchanged from its serialized container.
"""

import random

import corpus
from macroforge import objfile
from macroforge.asm import AsmError
from macroforge.macros import compact_source

# characters MCRL source is made of, plus a few it never uses
ALPHABET = "ABCDEFXZ0123456789=+-@(),$;* \t\n#?"


def mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        j = rng.randrange(len(line) + 1)
        op = rng.randrange(6)
        if op == 0:
            lines[i] = line[:j] + rng.choice(ALPHABET) + line[j + 1:]
        elif op == 1:
            lines[i] = line[:j] + rng.choice(ALPHABET) + line[j:]
        elif op == 2:
            lines[i] = line[:j] + line[j + 1:]
        elif op == 3:
            del lines[i]
        elif op == 4:
            lines.insert(i, rng.choice(lines))
        else:
            k = rng.randrange(len(lines))
            lines[i], lines[k] = lines[k], lines[i]
        if not lines:
            lines = ["       HLT"]
    return "\n".join(lines) + "\n"


def test_mutated_sources_fail_cleanly_or_round_trip():
    rng = random.Random(707)
    sources = [corpus.generate_program(seed, min_instructions=6,
                                       max_instructions=40)
               for seed in range(10)]
    refused = compacted = 0
    for _ in range(600):
        text = mutate(rng, rng.choice(sources))
        mode = rng.choice(("greedy", "freq"))
        max_macros = rng.choice((1, 2, 8, 64, 176))
        max_len = rng.choice((2, 3, 4, 8, 20, 255))
        try:
            image, info = compact_source(text, mode=mode,
                                         max_macros=max_macros,
                                         max_len=max_len)
        except AsmError:  # LayoutError included
            refused += 1
            continue
        assert objfile.parse(image.serialize()) == image, text
        assert info["macro_count"] <= max_macros
        compacted += 1
    # both paths are exercised, or the fuzz shows nothing
    assert refused > 100 and compacted > 100, (refused, compacted)
