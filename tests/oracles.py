"""Independent reference implementations used to pin expected values.

Deliberately dumb and quadratic-or-worse; nothing here shares code with
the package under test.
"""

from __future__ import annotations


def naive_count(haystack: bytes, needle: bytes) -> int:
    """Leftmost-greedy non-overlapping occurrence count by direct scan."""
    assert len(needle) >= 1
    count = 0
    i = 0
    while i + len(needle) <= len(haystack):
        if haystack[i:i + len(needle)] == needle:
            count += 1
            i += len(needle)
        else:
            i += 1
    return count


def naive_freq(data: bytes, max_len: int) -> dict[bytes, int]:
    distinct = {data[i:i + k]
                for k in range(2, max_len + 1)
                for i in range(len(data) - k + 1)}
    return {s: naive_count(data, s) for s in distinct}


def naive_objective(data: bytes, body: bytes) -> int:
    """len(residual) + len(body) computed by literally substituting."""
    f = naive_count(data, body)
    if f == 0:
        return len(data)
    out = []
    i = 0
    while i < len(data):
        if data[i:i + len(body)] == body:
            out.append(None)  # marker
            i += len(body)
        else:
            out.append(data[i])
            i += 1
    return len(out) + len(body)


def exhaustive_mwis_weight(intervals: list[tuple[int, int, int]]) -> int:
    """Max total weight over every independent subset of closed intervals
    (start, end, weight), by take/skip recursion with explicit pairwise
    overlap checks against everything taken so far."""
    def overlaps(a, b):
        return a[0] <= b[1] and b[0] <= a[1]

    def rec(i, taken):
        if i == len(intervals):
            return 0
        best = rec(i + 1, taken)
        cand = intervals[i]
        if all(not overlaps(cand, t) for t in taken):
            taken.append(cand)
            best = max(best, cand[2] + rec(i + 1, taken))
            taken.pop()
        return best

    return rec(0, [])


def naive_greedy(data: bytes, max_macros: int, max_len: int,
                 allow_embed: bool = False) -> tuple[list, bytes]:
    """Iterated best-single-macro adoption by direct enumeration.

    Each round scores every substring of 2..max_len bytes of the residual
    by its net saving f*(len-1) - len, f from naive_count, and adopts the
    best positive one: larger saving, then the longer body, then the
    smaller body.  Without allow_embed, substrings holding an assigned
    opcode are skipped.  The opcode is the smallest of 0x50..0xFF neither
    assigned nor in the residual.  Returns ([(body, code)], residual).
    """
    residual = bytes(data)
    table: list[tuple[bytes, int]] = []
    while len(table) < max_macros:
        assigned = {code for _, code in table}
        best = None
        for k in range(2, max_len + 1):
            for i in range(len(residual) - k + 1):
                body = residual[i:i + k]
                if not allow_embed and any(b in assigned for b in body):
                    continue
                net = naive_count(residual, body) * (k - 1) - k
                rank = (-net, -k, body)
                if net > 0 and (best is None or rank < best):
                    best = rank
        if best is None:
            break
        free = [c for c in range(0x50, 0x100)
                if c not in assigned and c not in residual]
        if not free:
            break
        body, code = best[2], free[0]
        out = bytearray()
        i = 0
        while i < len(residual):
            if residual[i:i + len(body)] == body:
                out.append(code)
                i += len(body)
            else:
                out.append(residual[i])
                i += 1
        residual = bytes(out)
        table.append((body, code))
    return table, residual
