"""The interpreter against the step-at-a-time reference interpreter in
oracles.py, and vm.run one step at a time, and vm.step, against one
vm.run of as many steps."""

import dataclasses
import random

import corpus
from macroforge import asm, macros, vm
from macroforge.objfile import MacroEntry, ObjectError
from oracles import reference_run


def same_as_reference(image, fuel: int) -> vm.RunOutcome:
    got = vm.run(vm.load(image), fuel)
    want = reference_run(vm.load(image), fuel)
    assert (got.status, got.steps, got.trace, got.fault_reason) == want
    return got


def corpus_images(seeds, budgets=(8, 64, 176)):
    for seed in seeds:
        text = corpus.generate_program(seed=seed)
        yield asm.assemble(text)
        for mode in ("greedy", "freq"):
            for budget in budgets:
                yield macros.compact_source(text, mode=mode,
                                            max_macros=budget)[0]


def test_corpus_images_match_reference():
    statuses = set()
    for image in corpus_images(range(20)):
        statuses.add(same_as_reference(image, 100_000).status)
    assert statuses == {"halted"}


def test_byte_mutations_match_reference():
    image = macros.compact_source(corpus.generate_program(seed=5),
                                  mode="greedy", max_macros=64)[0]
    rng = random.Random(2024)
    statuses = []
    for _ in range(2000):
        code = bytearray(image.code)
        bodies = [bytearray(m.body) for m in image.macros]
        at = rng.randrange(len(code) + sum(map(len, bodies)))
        for buf in [code, *bodies]:
            if at < len(buf):
                buf[at] = rng.randrange(256)
                break
            at -= len(buf)
        mutant = dataclasses.replace(
            image, code=bytes(code),
            macros=[MacroEntry(m.code, bytes(b))
                    for m, b in zip(image.macros, bodies)])
        try:
            vm.load(mutant)
        except (ObjectError, vm.LoadError):
            continue
        statuses.append(same_as_reference(mutant, 1_000).status)
    assert len(statuses) > 1500
    assert {"halted", "fault", "out-of-fuel"} <= set(statuses)


def test_steps_match_run_at_every_prefix():
    text = corpus.generate_program(seed=7)
    for image in (asm.assemble(text),
                  macros.compact_source(text, max_macros=176)[0]):
        total = vm.run(vm.load(image), 100_000).steps
        stepped, evented = vm.load(image), vm.load(image)
        in_body = 0
        for n in range(1, total + 1):
            before = len(stepped.out_trace)
            one = vm.run(stepped, 1)
            event = vm.step(evented)
            ran = vm.load(image)
            outcome = vm.run(ran, n)
            for state in (stepped, evented):
                assert (state.pc, state.cursor, state.regs,
                        state.out_trace) == (ran.pc, ran.cursor, ran.regs,
                                             ran.out_trace)
            assert one.steps == 1 and one.trace == stepped.out_trace
            grew = len(one.trace) - before
            assert grew in (0, 1)
            assert (one.status != "out-of-fuel") == stepped.halted
            assert (outcome.status, outcome.fault_reason) == (
                ("out-of-fuel", None) if n < total
                else (one.status, one.fault_reason))
            assert event.kind == (one.status if stepped.halted
                                  else "output" if grew else "executed")
            in_body += stepped.cursor is not None
        assert stepped.halted
        if image.macros:
            assert in_body
