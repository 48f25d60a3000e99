import random

import pytest

from macroforge.greedy import (
    exact_select,
    expand_macros,
    greedy_select,
)
from macroforge.optimal import (
    BudgetError,
    Occurrence,
    estimate_cost,
    mwis,
)

from oracles import brute_force_select, exhaustive_mwis_weight, length_function

WORKED = b"jabcdefmrhabcdegkcdefnshabcp"


def rand_bytes(rng, n, alphabet):
    return bytes(rng.choice(alphabet) for _ in range(n))


def rand_intervals(rng, n):
    out = []
    for _ in range(n):
        start = rng.randrange(0, 30)
        end = start + rng.randrange(0, 6)
        out.append((start, end, rng.randrange(1, 10)))
    return out


def test_mwis_two_overlapping_vertices():
    a = Occurrence(b"xx", 0, 3, 4)
    b = Occurrence(b"yy", 2, 5, 3)
    chosen, total = mwis([a, b])
    assert total == 4
    assert chosen == [a]


def test_mwis_worked_example_all_four_disjoint():
    occs = [Occurrence(body, i, i + 3, 3)
            for body in (b"cdef", b"habc")
            for i in range(len(WORKED)) if WORKED.startswith(body, i)]
    assert len(occs) == 4
    chosen, total = mwis(occs)
    assert total == 12
    assert len(chosen) == 4


def test_mwis_empty():
    assert mwis([]) == ([], 0)


def test_mwis_matches_exhaustive_enumeration():
    rng = random.Random(430)
    for _ in range(200):
        raw = rand_intervals(rng, rng.randrange(0, 13))
        occs = [Occurrence(bytes([i]) * 2, s, e, w)
                for i, (s, e, w) in enumerate(raw)]
        _, total = mwis(occs)
        assert total == exhaustive_mwis_weight(raw)


def test_mwis_chosen_set_is_independent_and_adds_up():
    rng = random.Random(431)
    for _ in range(100):
        raw = rand_intervals(rng, rng.randrange(0, 16))
        occs = [Occurrence(bytes([i]) * 2, s, e, w)
                for i, (s, e, w) in enumerate(raw)]
        chosen, total = mwis(occs)
        assert sum(o.weight for o in chosen) == total
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert a.end < b.start or b.end < a.start


def test_exact_worked_example_beats_greedy():
    # The optimal pair is not unique: {cdef, habc} and {ab, cde} both reach
    # 24.  The objective is what matters; the set follows the tie-break
    # (fewest macros, then smallest sorted body list).
    res = exact_select(WORKED, 2, 5)
    assert res.objective == 24
    assert sorted(m.body for m in res.macros) == [b"ab", b"cde"]
    assert length_function(WORKED, [b"cdef", b"habc"]) == 24
    assert greedy_select(WORKED, 2, 5).objective == 25
    assert res.objective == len(res.residual) + res.table_size()


def test_exact_single_macro_worked_example():
    assert exact_select(WORKED, 1, 5).objective == 25


def test_exact_declines_unprofitable_macro():
    res = exact_select(b"abab", 1, 2)
    assert res.macros == []
    assert res.objective == 4


def test_exact_residual_expands_back():
    rng = random.Random(432)
    for _ in range(60):
        data = rand_bytes(rng, rng.randrange(1, 22), b"abc")
        res = exact_select(data, 2, 4)
        assert expand_macros(res.residual, res.macros) == data
        assert res.objective == len(res.residual) + res.table_size()


def test_exact_objective_matches_length_function_on_disjoint_sets():
    # For the worked example the optimal occurrences are exactly the
    # leftmost-greedy ones, so the set objective agrees with L.
    res = exact_select(WORKED, 2, 5)
    assert length_function(WORKED, [m.body for m in res.macros]) == res.objective


def test_exact_matches_brute_force():
    rng = random.Random(433)
    for _ in range(120):
        n = rng.randrange(2, 20)
        alphabet = (b"ab", b"abc", b"abcd")[rng.randrange(3)]
        data = rand_bytes(rng, n, alphabet)
        v = rng.randrange(1, 3)
        l = rng.randrange(2, 5)
        bodies, obj = brute_force_select(data, v, l)
        res = exact_select(data, v, l)
        assert res.objective == obj, (data, v, l)
        assert sorted(m.body for m in res.macros) == bodies, (data, v, l)


def test_exact_dominates_greedy():
    rng = random.Random(434)
    for _ in range(80):
        data = rand_bytes(rng, rng.randrange(2, 26), b"abc")
        v = rng.randrange(1, 3)
        l = rng.randrange(2, 5)
        assert (exact_select(data, v, l).objective
                <= greedy_select(data, v, l, allow_embed=False).objective)


def test_brute_force_caps():
    with pytest.raises(ValueError):
        brute_force_select(b"a" * 33, 2, 5)
    with pytest.raises(ValueError):
        brute_force_select(b"abab", 3, 5)
    with pytest.raises(ValueError):
        brute_force_select(b"abab", 2, 6)


def test_brute_force_worked_example():
    bodies, obj = brute_force_select(WORKED, 2, 5)
    assert obj == 24
    # Same tie-break as exact_select; the two routes must agree exactly.
    assert bodies == [b"ab", b"cde"]


def test_brute_force_heavy_overlap():
    # All-same input: occurrences cascade; still exact.
    bodies, obj = brute_force_select(b"a" * 12, 2, 5)
    assert obj == exact_select(b"a" * 12, 2, 5).objective
    assert obj <= 12


def test_estimate_cost_fixed_points():
    assert estimate_cost(23000, 20, 176).approved is False
    assert estimate_cost(28, 5, 2).approved is True
    assert estimate_cost(0, 2, 1).approved is True
    assert estimate_cost(0, 2, 1).steps == 0


@pytest.mark.parametrize("args, steps", [
    ((28, 5, 2), 19_847_744),
    ((90, 4, 2), 1_185_386_400),
    ((90, 4, 3), 239_164_925_400),
    ((200, 20, 1), 152_040_000),
    ((23000, 20, 176), 10 ** 18),   # capped
])
def test_estimate_cost_steps(args, steps):
    assert estimate_cost(*args).steps == steps


def test_estimate_cost_monotone():
    rng = random.Random(435)
    for _ in range(200):
        eta = rng.randrange(0, 2000)
        l = rng.randrange(2, 21)
        v = rng.randrange(1, 177)
        base = estimate_cost(eta, l, v).steps
        assert estimate_cost(eta + 1, l, v).steps >= base
        assert estimate_cost(eta, l + 1, v).steps >= base
        assert estimate_cost(eta, l, v + 1).steps >= base


def test_estimate_cost_env_override(monkeypatch):
    refused = estimate_cost(23000, 20, 176)
    assert not refused.approved
    monkeypatch.setenv("MACROFORGE_BUDGET", str(10 ** 30))
    assert estimate_cost(23000, 20, 176).approved is True


def test_exact_select_refuses_over_budget():
    with pytest.raises(BudgetError) as exc:
        exact_select(bytes(2000), 176, 20)
    assert exc.value.estimate.steps > exc.value.estimate.budget


def test_exact_select_budget_from_environment(monkeypatch):
    monkeypatch.setenv("MACROFORGE_BUDGET", "1")
    with pytest.raises(BudgetError):
        exact_select(b"ababab", 2, 3)


def test_exact_adopts_only_macros_that_pay():
    # each body's opcode count in the residual is what it really saves
    rng = random.Random(436)
    adopted = 0
    for _ in range(1500):
        data = rand_bytes(rng, rng.randrange(2, 24),
                          (b"ab", b"abc", b"abcd")[rng.randrange(3)])
        res = exact_select(data, rng.randrange(1, 3), rng.randrange(2, 6))
        for m in res.macros:
            b = len(m.body)
            assert res.residual.count(m.code) * (b - 1) - b > 0, (data, m)
        adopted += len(res.macros)
    assert adopted > 500
