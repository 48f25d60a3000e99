import pytest

from macroforge import asm, macros, vm
from threaded import PLAIN_BYTES, PROGRAM, STEPS, TRACE

NEXT = bytes.fromhex("2a040b04")  # LCW XR / BRI XR


def run_image(image):
    return vm.run(vm.load(image), fuel=10_000)


def compact(mode, budget, max_len):
    image, info = macros.compact_source(PROGRAM, mode, budget, max_len)
    return image, info["objective"], run_image(image)


def test_plain_run_prints_the_word_list_sums():
    image = asm.assemble(PROGRAM)
    assert len(image.code) == PLAIN_BYTES
    out = run_image(image)
    assert (out.status, out.steps, out.trace) == ("halted", STEPS, TRACE)


@pytest.mark.parametrize("mode", ["greedy", "freq"])
def test_compacted_runs_trace_as_the_plain_run(mode):
    for max_len in (4, 20):
        for budget in (1, 2, 8, 176):
            _, _, out = compact(mode, budget, max_len)
            assert (out.status, out.steps, out.trace) == (
                "halted", STEPS, TRACE), (mode, max_len, budget)


def test_greedy_adopts_next_first():
    for max_len in (4, 20):
        for budget, objective in ((1, 89), (2, 84), (8, 77), (176, 77)):
            image, got, _ = compact("greedy", budget, max_len)
            assert image.macros[0].body == NEXT, (max_len, budget)
            assert got == objective, (max_len, budget)


def test_exact_reaches_greedy_at_one_macro():
    for max_len in (4, 20):
        _, objective, out = compact("exact", 1, max_len)
        assert objective == 89
        assert (out.steps, out.trace) == (STEPS, TRACE)


def test_freq_counts_inside_one_instruction_and_misses_next():
    # NEXT spans two instructions, a run freq never counts
    for max_len in (4, 20):
        for budget in (1, 2, 8, 176):
            image, objective, _ = compact("freq", budget, max_len)
            assert all(m.body != NEXT for m in image.macros)
            if budget >= 8:
                assert objective == 82
