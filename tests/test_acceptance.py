"""Acceptance gate: one test per shipping criterion, one printed verdict
line each.  The verdict fixture lifts output capture while the line is
printed so the verdicts are visible in any pytest run; the asserts behind
them carry the same condition.
"""

import json
import random
import time

import pytest

import corpus
from macroforge import asm, decode, disasm, greedy, optimal
from macroforge.cli import main as cli_main
from oracles import (
    brute_force_select,
    count_occurrences,
    decode_literal,
    exhaustive_mwis_weight,
    length_function,
    naive_count,
    single_macro_objective,
    substitute,
)

B_STAR = b"jabcdefmrhabcdegkcdefnshabcp"


@pytest.fixture
def verdict(capfd):
    def emit(num: int, ok: bool, detail: str) -> bool:
        word = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {num}] {word}: {detail}", flush=True)
        return ok
    return emit


# -- 1: frozen worked example ------------------------------------------------

def test_01_worked_example_regression(verdict):
    t0 = time.perf_counter()
    got = (
        single_macro_objective(B_STAR, b"abcde"),
        single_macro_objective(B_STAR, b"cdef"),
        length_function(B_STAR, [b"cdef", b"habc"]),
        greedy.exact_select(B_STAR, 2, 5).objective,
        greedy.greedy_select(B_STAR, 2, 5).objective,
    )
    dt = time.perf_counter() - t0
    want = (25, 26, 24, 24, 25)
    ok = got == want and dt < 1.0
    assert verdict(1, ok, f"objectives {got} vs {want}, {dt:.3f}s")


# -- 2: exact selector against the brute oracle -------------------------------

def test_02_exact_equals_brute_force(verdict):
    t0 = time.perf_counter()
    checked = 0
    for i in range(200):
        rng = random.Random(1000 + i)
        eta = rng.randint(4, 24)
        alpha = rng.randint(2, 6)
        data = bytes(rng.randrange(alpha) for _ in range(eta))
        max_len = rng.randint(2, 4)
        max_macros = rng.randint(1, 2)
        a = greedy.exact_select(data, max_macros, max_len).objective
        _, b = brute_force_select(data, max_macros, max_len)
        assert a == b, (i, data.hex(), max_macros, max_len, a, b)
        checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 200 and dt < 60.0
    assert verdict(2, ok, f"{checked} random strings agree, {dt:.1f}s")


# -- 3: interval scheduling against exhaustive subsets -------------------------

def test_03_mwis_equals_exhaustive(verdict):
    t0 = time.perf_counter()
    for i in range(500):
        rng = random.Random(3000 + i)
        n = rng.randint(0, 16)
        triples = []
        occs = []
        for j in range(n):
            start = rng.randint(0, 30)
            end = start + rng.randint(0, 7)
            weight = rng.randint(1, 9)
            triples.append((start, end, weight))
            occs.append(optimal.Occurrence(content=bytes([j]), start=start,
                                           end=end, weight=weight))
        _, total = optimal.mwis(occs)
        assert total == exhaustive_mwis_weight(triples), (i, triples)
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    assert verdict(3, ok, f"500 interval sets agree, {dt:.1f}s")


# -- 4: substitution length identity and occurrence counting -------------------

def test_04_substitution_identities(verdict):
    for i in range(1000):
        rng = random.Random(4000 + i)
        eta = rng.randint(0, 60)
        data = bytes(rng.randrange(8) for _ in range(eta))
        if data and rng.random() < 0.7:
            at = rng.randrange(len(data))
            body = data[at:at + rng.randint(2, 5)]
            if len(body) < 2:
                body = data[max(0, at - 2):at + 2]
        else:
            body = bytes(rng.randrange(8) for _ in range(rng.randint(2, 5)))
        if len(body) < 2:
            continue
        f = count_occurrences(data, body)
        assert f == naive_count(data, body), (i, data.hex(), body.hex())
        out = substitute(data, body, 0x50)
        assert len(out) == len(data) - f * (len(body) - 1), (i, data.hex())
    assert verdict(4, True, "1000 (string, body) pairs hold both identities")


# -- 5: compaction never changes observable behavior ---------------------------

def test_05_semantic_preservation(verdict, tmp_path):
    t0 = time.perf_counter()
    runs = 0
    for seed in range(50):
        src = tmp_path / f"p{seed}.mcrl"
        src.write_text(corpus.generate_program(seed=seed))
        for v in (8, 64, 176):
            rc = cli_main(["verify", str(src), "--max-macros", str(v),
                           "--fuel", "100000"])
            assert rc == 0, (seed, v)
            runs += 1
    dt = time.perf_counter() - t0
    ok = runs == 150
    assert verdict(5, ok, f"50 programs x v in (8, 64, 176) verified, {dt:.1f}s")


# -- 6: encoding round trips ---------------------------------------------------

def test_06_encoding_round_trips(verdict):
    image = asm.assemble(corpus.generate_corpus(seed=2024))
    again = asm.assemble(disasm.render_source(image))
    assert again.code == image.code
    for value in range(0x8000):
        enc = asm.encode_literal(value)
        assert decode_literal(enc, 0) == (value, len(enc))
    lhs = 0x1000
    for delta in range(-0x3F, 0x41):
        byte = asm.encode_short_branch(lhs + delta, lhs)
        assert byte is not None and 0x80 <= byte <= 0xFF
        assert decode.decode_short_branch(byte, lhs) == lhs + delta
    assert asm.encode_short_branch(lhs + 0x41, lhs) is None
    assert asm.encode_short_branch(lhs - 0x40, lhs) is None
    with pytest.raises(asm.LayoutError):
        asm.assemble("BIG    HLT\n", origin=0x8000)
    assert verdict(6, True,
                   "corpus source round trip, short-branch range, literal "
                   "range, and address bound all hold")


# -- 7: compression on the repetitive corpus ------------------------------------

def test_07_corpus_compression(verdict, tmp_path):
    src = tmp_path / "corpus.mcrl"
    src.write_text(corpus.generate_corpus(seed=2024))
    assert len(asm.assemble(src.read_text()).code) >= 8000
    results = {}
    for mode in ("freq", "greedy"):
        report_path = tmp_path / f"criterion7_{mode}.json"
        rc = cli_main(["compact", str(src), "--mode", mode,
                       "--out", str(tmp_path / f"c_{mode}.mco"),
                       "--report", str(report_path)])
        assert rc == 0
        results[mode] = json.loads(report_path.read_text())
    freq, grd = results["freq"], results["greedy"]
    ok = (freq["savingsPercent"] >= 15.0
          and grd["savingsBytes"] >= freq["savingsBytes"])
    assert verdict(7, ok,
                   f"frequency mode saves {freq['savingsPercent']:.2f}% "
                   f"({freq['savingsBytes']} bytes), greedy "
                   f"{grd['savingsPercent']:.2f}% ({grd['savingsBytes']} "
                   f"bytes) on {freq['inputBytes']} input bytes")


# -- 8: exact-search budget guard ------------------------------------------------

def test_08_budget_guard(verdict):
    refused = not optimal.estimate_cost(23_000, 20, 176).approved
    approved = optimal.estimate_cost(28, 5, 2).approved
    ok = refused and approved
    assert verdict(8, ok, "refuses (23000, 20, 176), approves (28, 5, 2)")


# -- 9: historical throughput figures --------------------------------------------

def test_09_historical_figures_out_of_scope(verdict):
    # Decades-old machine rates (statements/second, memory maps) have no
    # modern harness to run against; they are documented, not asserted.
    assert verdict(9, True, "no runtime check by design")
