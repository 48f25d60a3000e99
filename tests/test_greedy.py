import random
import tracemalloc

import pytest

from macroforge.asm import LiteralByte, Stream
from macroforge.greedy import (
    CompactionResult,
    Macro,
    count_occurrences,
    expand_macros,
    greedy_select,
    length_function,
    pick_free_code,
    single_macro_objective,
    substitute,
)
from macroforge.macros import profitable_keys

from oracles import naive_count, naive_freq, naive_greedy, naive_objective

# Worked-example string used throughout: 28 bytes, engineered so that the
# best single macro is not part of any optimal pair.
WORKED = b"jabcdefmrhabcdegkcdefnshabcp"


def rand_bytes(rng, n, alphabet):
    return bytes(rng.choice(alphabet) for _ in range(n))


def byte_nets(data, max_len):
    """The shared counter over data as pack lowers it, keyed by bytes."""
    stream = Stream([LiteralByte(b, op_start=True) for b in data])
    nets, key_of = profitable_keys(stream, max_len, "free")
    return {bytes(key_of[c][1] for c in s): net for s, net in nets.items()}


def paying(freq):
    """Entries of a naive frequency table whose net saving is positive."""
    return {s: (f * (len(s) - 1) - len(s), len(s)) for s, f in freq.items()
            if f * (len(s) - 1) - len(s) > 0}


def test_count_basic():
    assert count_occurrences(b"ababab", b"ab") == 3
    assert count_occurrences(b"aaaa", b"aa") == 2  # non-overlapping
    assert count_occurrences(b"aaaaa", b"aa") == 2
    assert count_occurrences(b"abc", b"xyz") == 0
    assert count_occurrences(b"abc", b"abcd") == 0
    assert count_occurrences(b"abc", b"c") == 1


def test_count_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_occurrences(b"abc", b"")


def test_byte_api_rejects_values_above_255():
    with pytest.raises(ValueError):
        count_occurrences([1, 256, 1, 256], [1, 256])
    with pytest.raises(ValueError):
        substitute([1, 256, 1, 256], [1, 256], 0x50)


def test_count_matches_naive_scan():
    rng = random.Random(401)
    for _ in range(300):
        n = rng.randrange(0, 40)
        data = rand_bytes(rng, n, b"ab" if rng.random() < 0.5 else b"abcd")
        k = rng.randrange(1, 6)
        pat = rand_bytes(rng, k, b"ab")
        assert count_occurrences(data, pat) == naive_count(data, pat)


def test_freq_table_small():
    # "ab" x3 saves 3*1 - 2 = 1; "ba" x2 saves nothing and is left out
    assert byte_nets(b"ababab", 2) == {b"ab": (1, 2)}


def test_freq_table_matches_naive():
    rng = random.Random(402)
    for _ in range(60):
        data = rand_bytes(rng, rng.randrange(2, 30), b"abc")
        max_len = rng.randrange(2, 5)
        assert byte_nets(data, max_len) == paying(naive_freq(data, max_len))


def test_freq_table_rejects_short_max_len():
    with pytest.raises(ValueError):
        byte_nets(b"abab", 1)


def test_single_macro_objective_worked_example():
    assert single_macro_objective(WORKED, b"abcde") == 25
    assert single_macro_objective(WORKED, b"cdef") == 26
    assert single_macro_objective(WORKED, b"zzzz") == len(WORKED)


def test_single_macro_objective_matches_substitution():
    rng = random.Random(403)
    for _ in range(200):
        data = rand_bytes(rng, rng.randrange(4, 40), b"abc")
        k = rng.randrange(2, 5)
        body = rand_bytes(rng, k, b"abc")
        assert single_macro_objective(data, body) == naive_objective(data, body)


def test_best_single_macro_worked_example():
    # "cde" ties at 25; the longer body wins.
    res = greedy_select(WORKED, 1, 5)
    assert [m.body for m in res.macros] == [b"abcde"]
    assert res.objective == 25


def test_best_single_macro_tie_prefers_longest():
    # "aa" (3 occurrences) and "aaa" (2) both score 5.
    res = greedy_select(b"aaaaaa", 1, 3)
    assert [m.body for m in res.macros] == [b"aaa"]
    assert res.objective == 5


def test_best_single_macro_none_when_nothing_repeats():
    res = greedy_select(b"abcdef", 1, 3)
    assert res.macros == []
    assert res.residual == b"abcdef"


def test_best_single_macro_honors_exclusions():
    # the first opcode 0x50 is excluded from later bodies unless embedding
    data = b"abcabcxabcabcyabcabcx"
    plain = greedy_select(data, 2, 3)
    assert [(m.body, m.code) for m in plain.macros] == [(b"abc", 0x50)]
    nested = greedy_select(data, 2, 3, allow_embed=True)
    assert [(m.body, m.code) for m in nested.macros] == [
        (b"abc", 0x50), (b"\x50\x50x", 0x51)]


def test_substitute_basic():
    assert substitute(b"ababab", b"ab", 0x50) == b"\x50\x50\x50"
    assert substitute(b"xabyab", b"ab", 0x7F) == b"x\x7fy\x7f"
    assert substitute(b"abc", b"zz", 0x50) == b"abc"


def test_substitute_validates_arguments():
    with pytest.raises(ValueError):
        substitute(b"abab", b"a", 0x50)
    with pytest.raises(ValueError):
        substitute(b"abab", b"ab", 0x4F)
    with pytest.raises(ValueError):
        substitute(b"abab", b"ab", 0x100)


def test_substitute_length_identity():
    rng = random.Random(404)
    for _ in range(300):
        data = rand_bytes(rng, rng.randrange(2, 50), b"abcd")
        body = rand_bytes(rng, rng.randrange(2, 5), b"abcd")
        f = count_occurrences(data, body)
        out = substitute(data, body, 0x50)
        assert len(out) == len(data) - f * (len(body) - 1)


def test_substitute_then_expand_recovers_input():
    rng = random.Random(405)
    for _ in range(200):
        data = rand_bytes(rng, rng.randrange(2, 50), b"abcd")
        body = rand_bytes(rng, rng.randrange(2, 5), b"abcd")
        out = substitute(data, body, 0x50)
        assert expand_macros(out, [Macro(body, 0x50)]) == data


def test_objective_equals_substitution_length_plus_body():
    rng = random.Random(406)
    for _ in range(200):
        data = rand_bytes(rng, rng.randrange(4, 40), b"ab")
        body = rand_bytes(rng, rng.randrange(2, 4), b"ab")
        if count_occurrences(data, body) == 0:
            continue
        assert (single_macro_objective(data, body)
                == len(substitute(data, body, 0x50)) + len(body))


def test_length_function_worked_example():
    assert length_function(WORKED, [b"cdef", b"habc"]) == 24
    assert length_function(WORKED, []) == len(WORKED)


def test_length_function_order_sensitivity_is_deterministic():
    # Overlapping bodies: the body listed first claims the shared bytes.
    # [abc, bc]: residual (M0, M1) + 5 table; [bc, abc]: (a, M0, M0) + 5.
    assert length_function(b"abcbc", [b"abc", b"bc"]) == 7
    assert length_function(b"abcbc", [b"bc", b"abc"]) == 8


def test_greedy_worked_example_stops_after_one_macro():
    res = greedy_select(WORKED, 2, 5)
    assert [m.body for m in res.macros] == [b"abcde"]
    assert res.objective == 25
    assert res.objective == len(res.residual) + res.table_size()


def test_greedy_prefix_monotone():
    rng = random.Random(407)
    for _ in range(40):
        data = rand_bytes(rng, rng.randrange(8, 60), b"abc")
        prev = len(data)
        for v in (1, 2, 3, 4):
            obj = greedy_select(data, v, 4).objective
            assert obj <= prev
            prev = obj


def test_greedy_objective_never_worse_than_input():
    rng = random.Random(408)
    for _ in range(100):
        data = rand_bytes(rng, rng.randrange(1, 60), b"abcdef")
        res = greedy_select(data, 4, 4)
        assert res.objective <= len(data)
        assert res.objective == len(res.residual) + res.table_size()


def test_greedy_roundtrips_through_expansion():
    rng = random.Random(409)
    for _ in range(100):
        data = rand_bytes(rng, rng.randrange(1, 80), b"ab")
        for allow in (False, True):
            res = greedy_select(data, 6, 4, allow_embed=allow)
            assert expand_macros(res.residual, res.macros) == data


def test_greedy_is_deterministic():
    rng = random.Random(410)
    data = rand_bytes(rng, 64, b"abcd")
    a = greedy_select(data, 8, 5)
    b = greedy_select(data, 8, 5)
    assert a == b


def test_greedy_avoids_opcode_collisions_with_data():
    # Data already containing 0x50 must not get 0x50 as a macro opcode.
    data = b"\x50xyxy\x50xyxy"
    res = greedy_select(data, 2, 4)
    assert all(m.code != 0x50 for m in res.macros)
    assert expand_macros(res.residual, res.macros) == data


def test_greedy_no_embedding_by_default():
    res = greedy_select(b"xyxyxyxyzxyxyzz" * 3, 8, 6)
    codes = {m.code for m in res.macros}
    for m in res.macros:
        assert not any(b in codes for b in m.body)


def test_greedy_embedding_when_allowed():
    rng = random.Random(411)
    for _ in range(50):
        data = rand_bytes(rng, 60, b"ab")
        res = greedy_select(data, 8, 4, allow_embed=True)
        assert expand_macros(res.residual, res.macros) == data


def test_greedy_matches_naive_oracle():
    rng = random.Random(412)
    for _ in range(200):
        alphabet = (b"ab", b"abc", b"abcd", b"\x50\x51ab")[rng.randrange(4)]
        data = rand_bytes(rng, rng.randrange(0, 41), alphabet)
        v = rng.randrange(1, 6)
        l = rng.randrange(2, 7)
        for allow in (False, True):
            res = greedy_select(data, v, l, allow_embed=allow)
            table, residual = naive_greedy(data, v, l, allow_embed=allow)
            assert [(m.body, m.code) for m in res.macros] == table, (data, v, l)
            assert res.residual == residual


def test_greedy_validates_arguments():
    with pytest.raises(ValueError):
        greedy_select(b"abab", 0, 4)
    with pytest.raises(ValueError):
        greedy_select(b"abab", 177, 4)
    with pytest.raises(ValueError):
        greedy_select(b"abab", 1, 1)
    with pytest.raises(ValueError):
        greedy_select(b"abab", 1, 256)


def test_pick_free_code_skips_data_bytes():
    assert pick_free_code(b"\x50\x51", ()) == 0x52
    assert pick_free_code(b"", {0x50}) == 0x51
    assert pick_free_code(bytes(range(0x50, 0x100)), ()) is None


def test_compaction_result_helpers():
    res = CompactionResult(macros=[], residual=b"abc", objective=3)
    assert res.table_size() == 0
    assert res.savings(3) == 0


def test_expand_refuses_a_nested_bomb_before_allocating():
    # 255**3 bytes per residual byte; refused from the lengths alone
    table = [Macro(b"x" * 255, 0x50), Macro(bytes([0x50]) * 255, 0x51),
             Macro(bytes([0x51]) * 255, 0x52)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the limit"):
            expand_macros(bytes([0x52]) * 4, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # an unused bomb costs nothing; the exact count decides at the edge
    assert expand_macros(b"ab", table) == b"ab"
    assert expand_macros(b"a\x51", table, limit=1 + 255 ** 2) == \
        b"a" + b"x" * 255 ** 2
    with pytest.raises(ValueError, match="exceeds the limit"):
        expand_macros(b"a\x51", table, limit=255 ** 2)
