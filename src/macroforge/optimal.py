"""Exact macro selection over the occurrence graph.

Every occurrence of every candidate body is a vertex weighted by
len(body)-1 (the bytes saved by replacing it); two vertices conflict when
their intervals intersect.  For a fixed set of bodies the best
replacement schedule is a maximum-weight independent set, which on
intervals is solvable exactly by dynamic programming.  The exact selector
enumerates body combinations and takes the best schedule of each.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence


DEFAULT_BUDGET = 10 ** 8
BUDGET_ENV = "MACROFORGE_BUDGET"
_SATURATED = 10 ** 18


class BudgetError(Exception):
    """Raised when exact selection would exceed the step budget."""

    def __init__(self, estimate: "CostEstimate"):
        self.estimate = estimate
        super().__init__(
            f"estimated {estimate.steps} steps exceeds budget {estimate.budget}"
            f" (set {BUDGET_ENV} to raise it)")


@dataclass(frozen=True)
class Occurrence:
    content: str | bytes  # any hashable, sortable body
    start: int
    end: int  # inclusive
    weight: int


@dataclass(frozen=True)
class CostEstimate:
    approved: bool
    steps: int
    budget: int


def mwis(occurrences: Sequence[Occurrence]) -> tuple[list[Occurrence], int]:
    """Maximum-weight independent set of interval vertices.

    Classic weighted interval scheduling: sort by right endpoint, binary
    search the rightmost compatible predecessor, then
    best[j+1] = max(best[j], w_j + best[p_j]).  Returns the chosen
    occurrences sorted by start and the total weight; deterministic for a
    fixed input (ties resolved toward not taking the later interval).
    """
    order = sorted(range(len(occurrences)),
                   key=lambda i: (occurrences[i].end, occurrences[i].start,
                                  occurrences[i].content, i))
    ends = [occurrences[i].end for i in order]
    n = len(order)
    best = [0] * (n + 1)
    pred = [0] * n
    take = [False] * n
    for j in range(n):
        o = occurrences[order[j]]
        p = bisect_left(ends, o.start, 0, j)  # ends[:p] < start, closed intervals
        pred[j] = p
        with_j = o.weight + best[p]
        if with_j > best[j]:
            best[j + 1] = with_j
            take[j] = True
        else:
            best[j + 1] = best[j]
    chosen = []
    j = n
    while j > 0:
        if take[j - 1]:
            chosen.append(occurrences[order[j - 1]])
            j = pred[j - 1]
        else:
            j -= 1
    chosen.sort(key=lambda o: o.start)
    return chosen, best[n]


def estimate_cost(eta: int, max_len: int, max_macros: int) -> CostEstimate:
    """Predict the exact selector's work and compare against the budget.

    Refusal is a value, not an exception: callers decide what to do.  The
    candidate-content pool is bounded by eta*(max_len-1) and each
    combination is charged one interval-DP pass at (max_macros*eta)^2
    steps.  steps is capped at 10**18.  The budget is BUDGET_ENV if set,
    else DEFAULT_BUDGET; a value that is not a whole number raises
    ValueError.
    """
    given = os.environ.get(BUDGET_ENV, DEFAULT_BUDGET)
    try:
        budget = int(given)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be a whole number of steps, "
                         f"not {given!r}") from None
    pool = max(eta, 0) * max(max_len - 1, 0)
    combos = sum(math.comb(pool, k) for k in range(min(pool, max_macros) + 1))
    steps = min(combos * (max_macros * max(eta, 0)) ** 2, _SATURATED)
    return CostEstimate(approved=steps <= budget, steps=steps, budget=budget)


def exact_over_occurrences(total_len: int,
                           by_content: dict[object, list[Occurrence]],
                           max_macros: int) -> tuple[list, list[Occurrence], int]:
    """Optimal body combination over prepared occurrence lists.

    by_content maps each candidate body to its occurrences.  Every
    combination of up to max_macros bodies is scored as total_len - (best
    schedule weight) + (table bytes), a body's table cost being the width
    of its occurrences (weight + 1).  Returns (sorted bodies, chosen
    occurrences, objective).  Ties prefer fewer bodies, then the
    lexicographically smallest sorted body list.  Bodies are opaque as
    long as they are hashable and sortable.

    Callers pass only bodies that pay on their own (f*(b-1) - b > 0 for f
    non-overlapping occurrences of width b).  A schedule uses at most f
    occurrences of any body, so dropping one that does not pay changes
    the objective by at most f*(b-1) - b <= 0 and leaves one body fewer:
    no optimum holds it, and leaving it out only shrinks the enumeration.
    """
    universe = sorted(by_content)
    best: tuple | None = None
    for r in range(0, max_macros + 1):
        for combo in itertools.combinations(universe, r):
            verts = [o for c in combo for o in by_content[c]]
            chosen, weight = mwis(verts)
            obj = (total_len - weight
                   + sum(by_content[c][0].weight + 1 for c in combo))
            key = (obj, r, combo)
            if best is None or key < best[:3]:
                best = (obj, r, combo, chosen)
    assert best is not None  # r = 0 always present
    obj, _, combo, chosen = best
    return list(combo), chosen, obj
