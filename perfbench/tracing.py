"""Outside-in tracing: spans around the public functions of each layer.

Nothing under ``src/`` is changed.  :class:`Tracer` replaces module (and
``ObjectImage`` method) attributes with wrappers that record a span per
call: name, start, end, parent and an optional work count taken from the
arguments or result.  Calls made inside a module through its own globals
see the wrappers too, because module globals are the module attributes.

Per-item helpers (``asm.item_width``, ``asm.translate_mnemonic``, the
literal and branch codecs, ``macros.key_width``, ``vm.step``) stay
unwrapped: they run millions of times and their cost belongs to the
caller's self time.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from macroforge import asm, disasm, greedy, isa, macros, objfile, vm

ROOT = "bench.round"


def _len_result(args, kwargs, result):
    return len(result)


def _translate_items(args, kwargs, result):
    return len(result.items)


def _adopted(args, kwargs, result):
    return len(result[1])


def _apply_counts(args, kwargs, result):
    bodies = args[1] if len(args) > 1 else kwargs["bodies"]
    return (len(result[1]), len(bodies))


def _steps(args, kwargs, result):
    return result.steps


# (module, attribute, work count taken from the call or None)
WRAPPED = (
    (asm, "parse_source", None),
    (asm, "translate_program", _translate_items),
    (asm, "layout_and_resolve", None),
    (asm, "resolve_stream", None),
    (asm, "bake_body", None),
    (asm, "assemble_stream", None),
    (asm, "resolve_entry", None),
    (asm, "assemble", None),
    (macros, "extract_candidates", _len_result),
    (macros, "substitute_stream", None),
    (macros, "select_greedy", _adopted),
    (macros, "select_by_instruction_frequency", None),
    (macros, "apply_macro_set", _apply_counts),
    (macros, "compact_stream", None),
    (macros, "compact_source", None),
    (greedy, "build_freq_table", _len_result),
    (greedy, "best_single_macro", None),
    (greedy, "substitute", None),
    (greedy, "pick_free_code", None),
    (greedy, "greedy_select", None),
    (greedy, "expand_macros", None),
    (objfile, "parse", None),
    (objfile.ObjectImage, "serialize", None),
    (objfile.ObjectImage, "validate", None),
    (vm, "load", None),
    (vm, "run", _steps),
    (disasm, "decode_image", None),
    (disasm, "render_listing", None),
    (disasm, "render_source", None),
)

LAYERS = ("asm", "macros", "greedy", "objfile", "vm", "disasm")


def _span_name(owner, attr: str) -> str:
    if owner is objfile.ObjectImage:
        return f"objfile.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans as [name, start, end, parent index, work count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, count in WRAPPED:
            fn = owner.__dict__.get(attr)
            if fn is None:      # renamed or removed: its metrics read 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(_span_name(owner, attr), fn, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def round(self, body):
        """Run body() under a root span; returns (result, first span index)."""
        first = len(self.spans)
        return self._wrap(ROOT, body, None)(), first

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


def round_profile(spans: list[list], first: int) -> dict:
    """Self time, calls and work per span name for the round rooted at
    spans[first]; self time is duration minus the children's durations."""
    covered = [0.0] * (len(spans) - first)
    for i in range(first + 1, len(spans)):
        _, start, end, parent, _ = spans[i]
        covered[parent - first] += end - start
    prof: dict = {}
    greedy_extracts = 0
    for i in range(first, len(spans)):
        name, start, end, parent, work = spans[i]
        entry = prof.setdefault(name, {"self": 0.0, "calls": 0, "work": None})
        entry["self"] += (end - start) - covered[i - first]
        entry["calls"] += 1
        if work is not None:
            if isinstance(work, tuple):
                old = entry["work"] or (0,) * len(work)
                entry["work"] = tuple(a + b for a, b in zip(old, work))
            else:
                entry["work"] = (entry["work"] or 0) + work
        if name == "macros.extract_candidates":
            p = parent
            while p >= first and spans[p][0] != "macros.select_greedy":
                p = spans[p][3]
            greedy_extracts += p >= first
    root = spans[first]
    prof["_wall"] = root[2] - root[1]
    prof["_greedy_extracts"] = greedy_extracts
    return prof


def _self(prof, *names) -> float:
    return sum(prof[n]["self"] for n in names if n in prof)


def _calls(prof, name) -> int:
    return prof[name]["calls"] if name in prof else 0


def _work(prof, name, default=0):
    entry = prof.get(name)
    return default if entry is None or entry["work"] is None else entry["work"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(prof: dict, activations: int) -> dict:
    """Per-layer figures for one traced round."""
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, entry in prof.items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += entry["self"]
    wall = prof["_wall"]
    bench_self = prof[ROOT]["self"]
    unattributed = wall - bench_self - sum(by_layer.values())
    if abs(unattributed) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"trace does not add up: {unattributed:.9f} s of "
                           f"{wall:.6f} s unattributed")
    greedy_adopted = _work(prof, "macros.select_greedy")
    kept, tried = _work(prof, "macros.apply_macro_set", (0, 0))
    run_s = _self(prof, "vm.run")
    steps = _work(prof, "vm.run")
    m = {
        "asm.parse_s": _self(prof, "asm.parse_source"),
        "asm.translate_s": _self(prof, "asm.translate_program"),
        "asm.layout_s": _self(prof, "asm.layout_and_resolve"),
        "asm.resolve_s": _self(prof, "asm.resolve_stream", "asm.bake_body"),
        "asm.items": _work(prof, "asm.translate_program"),
        "asm.layout_calls": _calls(prof, "asm.layout_and_resolve"),
        "macros.extract_s": _self(prof, "macros.extract_candidates"),
        "macros.extract_calls": _calls(prof, "macros.extract_candidates"),
        "macros.candidate_keys": _work(prof, "macros.extract_candidates"),
        "macros.substitute_s": _self(prof, "macros.substitute_stream"),
        "macros.substitute_calls": _calls(prof, "macros.substitute_stream"),
        "macros.score_s": _self(prof, "macros.select_greedy",
                                "macros.select_by_instruction_frequency",
                                "macros.apply_macro_set"),
        "macros.adopted": greedy_adopted + kept,
        "macros.extract_per_adopted": _ratio(prof["_greedy_extracts"],
                                             greedy_adopted),
        "macros.apply_kept_ratio": _ratio(kept, tried),
        "greedy.freq_table_s": _self(prof, "greedy.build_freq_table"),
        "greedy.freq_table_entries": _work(prof, "greedy.build_freq_table"),
        "greedy.best_s": _self(prof, "greedy.best_single_macro"),
        "greedy.substitute_s": _self(prof, "greedy.substitute"),
        "greedy.rounds": _calls(prof, "greedy.best_single_macro"),
        "greedy.expand_s": _self(prof, "greedy.expand_macros"),
        "objfile.serialize_s": _self(prof, "objfile.serialize"),
        "objfile.parse_s": _self(prof, "objfile.parse"),
        "vm.load_s": _self(prof, "vm.load"),
        "vm.run_s": run_s,
        "vm.steps": steps,
        "vm.step_ns": _ratio(run_s * 1e9, steps),
        "vm.macro_activations": activations,
        "disasm.listing_s": _self(prof, "disasm.render_listing"),
        "disasm.source_s": _self(prof, "disasm.render_source"),
        "disasm.decode_s": _self(prof, "disasm.decode_image"),
        "bench.self_s": bench_self,
        "trace.wall_s": wall,
    }
    for layer, seconds in by_layer.items():
        m[f"{layer}.self_s"] = seconds
    return m


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "asm.parse_s": ("s", "lower"),
    "asm.translate_s": ("s", "lower"),
    "asm.layout_s": ("s", "lower"),
    "asm.resolve_s": ("s", "lower"),
    "asm.items": ("count", "lower"),
    "asm.layout_calls": ("count", "lower"),
    "asm.self_s": ("s", "lower"),
    "macros.extract_s": ("s", "lower"),
    "macros.extract_calls": ("count", "lower"),
    "macros.candidate_keys": ("count", "lower"),
    "macros.substitute_s": ("s", "lower"),
    "macros.substitute_calls": ("count", "lower"),
    "macros.score_s": ("s", "lower"),
    "macros.adopted": ("count", "higher"),
    "macros.extract_per_adopted": ("ratio", "lower"),
    "macros.apply_kept_ratio": ("ratio", "higher"),
    "macros.self_s": ("s", "lower"),
    "greedy.freq_table_s": ("s", "lower"),
    "greedy.freq_table_entries": ("count", "lower"),
    "greedy.best_s": ("s", "lower"),
    "greedy.substitute_s": ("s", "lower"),
    "greedy.rounds": ("count", "lower"),
    "greedy.expand_s": ("s", "lower"),
    "greedy.self_s": ("s", "lower"),
    "objfile.serialize_s": ("s", "lower"),
    "objfile.parse_s": ("s", "lower"),
    "objfile.self_s": ("s", "lower"),
    "vm.load_s": ("s", "lower"),
    "vm.run_s": ("s", "lower"),
    "vm.steps": ("count", "lower"),
    "vm.step_ns": ("ns", "lower"),
    "vm.macro_activations": ("count", "lower"),
    "vm.self_s": ("s", "lower"),
    "disasm.listing_s": ("s", "lower"),
    "disasm.source_s": ("s", "lower"),
    "disasm.decode_s": ("s", "lower"),
    "disasm.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def median_metrics(rounds: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in rounds)
            for name in rounds[0]}


def count_activations(image, fuel: int) -> int:
    """Steps whose opcode byte comes from main memory at 0x50 or above,
    found by driving vm.step and looking at pc and cursor before each."""
    state = vm.load(image)
    memory = state.memory
    base = isa.MACRO_OPCODE_BASE
    hits = 0
    for _ in range(fuel):
        if state.cursor is None and memory[state.pc & 0xFFFF] >= base:
            hits += 1
        if vm.step(state).kind in ("halted", "fault"):
            break
    return hits
