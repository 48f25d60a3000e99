"""macroforge benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload compact-large --seed 1 --seconds 25 --trace 0

Set-up builds the workload's inputs from --seed (five times; the median is
setup_s).  Then whole rounds run until --seconds have passed.  A round
takes every program of the workload through assemble, listing, source
round trip, plain run, compaction in both modes at each budget,
serialize/parse and compacted run, and every blob through pack and
unpack.  Every operation is checked; a failed check counts one failed
operation and the run goes on.  Each operation's time is its median over
the rounds, in units of a reference pass timed next to it (see Timings).

With --trace 1 untraced and traced rounds alternate; the result holds the
per-layer metrics (see tracing.py), medians over the traced rounds, and
the spans go to --trace-out.  The last line of stdout is the JSON result.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import macroforge from this checkout's src/ and nowhere else."""
    if not (SRC / "macroforge" / "__init__.py").is_file():
        sys.exit(f"error: no macroforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macroforge
    if Path(macroforge.__file__).resolve().parent != SRC / "macroforge":
        sys.exit(f"error: imported macroforge from {macroforge.__file__}, "
                 f"not from {SRC}")


_import_program()

from macroforge import asm, disasm, greedy, isa, macros, objfile, vm  # noqa: E402

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracing  # noqa: E402

MODES = ("greedy", "freq")
MAX_LEN = 20
SETUP_REPEATS = 5
REFERENCE_S = 0.00084     # one reference pass, median on the tuning host
REUSE_S = 0.002           # a pass this recent still stands for "now"
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Program:
    name: str
    text: str
    fuel: int
    expected: list | None = None      # trace known independently


@dataclass
class Inputs:
    programs: list
    blobs: list
    budgets: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object                     # (rng, smoke) -> Inputs


def _slices(rng, data: bytes, count: int, size: int) -> list[bytes]:
    if len(data) < size:
        raise ValueError(f"cannot cut {size} bytes from {len(data)}")
    starts = (rng.randrange(len(data) - size + 1) for _ in range(count))
    return [data[at:at + size] for at in starts]


def _blobs(rng, texts: list, image_slices: tuple, source_slices: tuple):
    """Byte strings for pack, (count, size) slices from each text: of its
    assembled image (high bytes, few free opcodes) and of the source
    itself (ASCII, many free opcodes)."""
    blobs = []
    for text in texts:
        blobs += _slices(rng, asm.assemble(text).code, *image_slices)
        blobs += _slices(rng, text.encode(), *source_slices)
    return blobs


def build_compact_large(rng, smoke):
    text = gen.program(rng, 300 if smoke else 2900, pool=1)
    cut = (1, 64) if smoke else (12, 128)
    return Inputs([Program("large", text, 1_000_000)],
                  _blobs(rng, [text], cut, cut), (isa.MAX_MACROS,))


def build_compact_varied(rng, smoke):
    count = 4 if smoke else 24
    programs = []
    for i in range(count):
        size = 50 + 250 * i // (count - 1)
        pool = 1 + i % 6
        programs.append(Program(f"p{i:02d}i{size}v{pool}",
                                gen.program(rng, size, pool), 1_000_000))
    hosts = [p.text for p in programs[-6:]]
    cut = (1, 64) if smoke else (1, 128)
    return Inputs(programs, _blobs(rng, hosts, cut, cut),
                  (8, 64, isa.MAX_MACROS))


def build_vm_hot(rng, smoke):
    loops = 3 if smoke else 50
    n = 20 if smoke else 2500
    programs = [Program(f"body{i}", gen.program(rng, 200, 2, outer_loops=loops),
                        10_000_000) for i in range(4)]
    for kernel in gen.KERNELS:
        text, expected = kernel(rng, n)
        programs.append(Program(kernel.__name__, text, 10_000_000, expected))
    cut = (1, 64) if smoke else (2, 128)
    return Inputs(programs, _blobs(rng, [p.text for p in programs[:4]], cut, cut),
                  (isa.MAX_MACROS,))


def build_pack_roundtrip(rng, smoke):
    host = gen.program(rng, 300 if smoke else 1400, pool=2)
    programs = [Program(f"small{i}", gen.program(rng, 60 + 5 * i, 2),
                        1_000_000) for i in range(12)]
    image, source = ((1, 128), (1, 256)) if smoke else ((4, 512), (4, 1024))
    return Inputs(programs, _blobs(rng, [host], image, source),
                  (isa.MAX_MACROS,))


WORKLOADS = {w.name: w for w in (
    Workload("compact-large",
             "one ~8 KB repetitive program; greedy re-extraction in macros "
             "is nearly all the time", build_compact_large),
    Workload("compact-varied",
             "24 small programs of uneven repetition at budgets 8/64/176; "
             "per-program asm, listing and selection quality",
             build_compact_varied),
    Workload("vm-hot",
             "looped generated bodies and closed-form kernels; fetch, decode "
             "and macro expansion in the VM dominate", build_vm_hot),
    Workload("pack-roundtrip",
             "byte-level greedy pack of 512 B image slices and 1 KB source "
             "slices, then unpack", build_pack_roundtrip),
)}


def setup(workload: Workload, seed: int, smoke: bool) -> Inputs:
    """Generate the inputs and assemble each program once, so that a
    program that does not assemble stops the run before any timing."""
    inputs = workload.build(random.Random(f"{workload.name}/{seed}"), smoke)
    for prog in inputs.programs:
        asm.assemble(prog.text)
    return inputs


# ---------------------------------------------------------------------------
# One round

@dataclass
class _Cell:
    value: int
    tag: bool = False


def reference_pass() -> int:
    """Fixed interpreter work, independent of macroforge: objects, type
    tests, tuple-keyed dicts, list appends and byte indexing, the mix the
    toolchain itself runs on."""
    cells = [_Cell(i & 0xFF, i % 3 == 0) for i in range(1200)]
    seen: dict = {}
    total = 0
    for i, c in enumerate(cells):
        key = (c.value >> 2, c.tag) if isinstance(c, _Cell) else None
        seen.setdefault(key, []).append(i)
        total += len(seen[key])
    data = bytes(c.value for c in cells)
    return total + sum(data[j] for j in range(0, len(data), 3))


class Timings:
    """Operation times in units of a reference pass timed next to them.

    This host's speed flips between states about 1.6x apart, for spans
    from under a second to minutes, so raw times of one operation spread
    by 25-50 % between runs.  Dividing each time by the mean of a
    reference pass just before and just after it cancels the state; the
    quotient is reported as seconds at REFERENCE_S per reference pass.
    Each operation counts with its median over the rounds of a run.
    """

    def __init__(self) -> None:
        self.samples: dict = defaultdict(lambda: defaultdict(list))
        self._last = (-1.0, 0.0)              # (end time, duration) of a pass

    def _reference(self) -> float:
        end, duration = self._last
        if clock() - end > REUSE_S:
            t0 = clock()
            reference_pass()
            end = clock()
            duration = end - t0
            self._last = (end, duration)
        return duration

    @contextmanager
    def timed(self, metric: str, key):
        """Time the block; it must set box["amount"] to the work done."""
        before = self._reference()
        box: dict = {}
        t0 = clock()
        yield box
        seconds = clock() - t0
        self._last = (-1.0, 0.0)
        after = self._reference()
        self.samples[metric][key].append(
            (box["amount"], seconds * 2 * REFERENCE_S / (before + after)))

    def seconds(self, metric: str, key) -> float:
        return statistics.median(s for _, s in self.samples[metric][key])

    def rate(self, metric: str) -> float:
        ops = self.samples[metric]
        return (sum(runs[0][0] for runs in ops.values())
                / sum(self.seconds(metric, key) for key in ops))


@dataclass
class Round:
    timings: Timings
    sizes: dict = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    runs: list = field(default_factory=list)    # (key, image, fuel) run

    def op(self, what: str, check) -> None:
        """One checked operation; any failure counts and the round goes on."""
        self.attempted += 1
        try:
            problem = check()
        except Exception:  # a crash in the program is a failed operation
            problem = "raised\n" + traceback.format_exc()
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


_MACRO_LINE = re.compile(r"^[0-9A-F]{4}  ([0-9A-F]{2})[ 0-9A-F]*  \*\*\*  ",
                         re.M)


def macro_uses(listing: str) -> Counter:
    """Activations per macro opcode, read from a listing's *** lines."""
    return Counter(int(code, 16) for code in _MACRO_LINE.findall(listing))


def check_compacted(image, info: dict, blob: bytes, listing: str) -> str | None:
    residual, table = len(image.code), image.table_bytes()
    if not (info["objective"] == residual + table
            == info["residual_bytes"] + info["table_bytes"]):
        return f"objective {info['objective']} != residual + table"
    if info["objective"] > info["input_bytes"]:
        return "compacted output larger than its input"
    if objfile.parse(blob) != image:
        return "parse(serialize(image)) differs from image"
    uses = macro_uses(listing)
    for m in image.macros:
        f, b = uses[m.code], len(m.body)
        if f * (b - 1) <= b:
            return f"macro {m.code:#04x} used {f}x with a {b}-byte body"
    return None


def same_run(plain, got) -> str | None:
    if (got.status, got.steps) != (plain.status, plain.steps):
        return (f"status/steps {got.status}/{got.steps} vs plain "
                f"{plain.status}/{plain.steps}")
    if got.trace != plain.trace:
        return "trace differs from the plain run"
    return None


def run_image(rnd: Round, metric: str, key, image, fuel: int):
    with rnd.timings.timed(metric, key) as box:
        outcome = vm.run(vm.load(image), fuel)
        box["amount"] = outcome.steps
    rnd.runs.append((key, image, fuel))
    return outcome


def program_ops(rnd: Round, prog: Program, budgets: tuple) -> None:
    state: dict = {}

    def assemble():
        with rnd.timings.timed("asm", prog.name) as box:
            image = asm.assemble(prog.text)
            box["amount"] = len(image.code)
        with rnd.timings.timed("disasm", prog.name) as box:
            listing = disasm.render_listing(image)
            box["amount"] = len(image.code)
        state["image"] = image
        if not listing.startswith(f"origin {image.origin:04X}"):
            return "listing has no header"
        if asm.assemble(disasm.render_source(image)).code != image.code:
            return "render_source does not reassemble to the same bytes"
        return None
    rnd.op(f"{prog.name} assemble", assemble)

    def run_plain():
        out = run_image(rnd, "vm_plain", prog.name, state["image"], prog.fuel)
        state["plain"] = out
        if out.status != "halted":
            return f"plain run ended {out.status}: {out.fault_reason}"
        if prog.expected is not None and out.trace != prog.expected:
            return "trace differs from the kernel's computed trace"
        return None
    rnd.op(f"{prog.name} run plain", run_plain)

    for mode in MODES:
        for budget in budgets:
            key = (prog.name, mode, budget)
            compacted: dict = {}

            def compact():
                with rnd.timings.timed(f"compact_{mode}", key) as box:
                    image, info = macros.compact_source(
                        prog.text, mode=mode, max_macros=budget,
                        max_len=MAX_LEN)
                    blob = image.serialize()
                    box["amount"] = info["input_bytes"]
                rnd.sizes[f"{mode}_output"] += info["objective"]
                with rnd.timings.timed("disasm", key) as box:
                    listing = disasm.render_listing(image)
                    box["amount"] = len(image.code)
                compacted["image"] = image
                return check_compacted(image, info, blob, listing)
            rnd.op(f"{key} compact", compact)

            def run_compacted():
                out = run_image(rnd, "vm_compacted", key, compacted["image"],
                                prog.fuel)
                return same_run(state["plain"], out)
            rnd.op(f"{key} run compacted", run_compacted)


def blob_ops(rnd: Round, index: int, data: bytes) -> None:
    packed: dict = {}

    def pack():
        with rnd.timings.timed("pack", index) as box:
            result = greedy.greedy_select(data, isa.MAX_MACROS, MAX_LEN)
            image = objfile.ObjectImage(
                code=result.residual, flags=objfile.FLAG_RAW,
                macros=[objfile.MacroEntry(m.code, m.body)
                        for m in result.macros])
            blob = image.serialize()
            box["amount"] = len(data)
        rnd.sizes["pack_output"] += result.objective
        packed["blob"] = blob
        if result.objective != len(result.residual) + result.table_size():
            return "objective != residual + table"
        if objfile.parse(blob) != image:
            return "parse(serialize(container)) differs from container"
        return None
    rnd.op(f"blob{index} pack", pack)

    def unpack():
        with rnd.timings.timed("unpack", index) as box:
            image = objfile.parse(packed["blob"])
            out = greedy.expand_macros(
                image.code, [greedy.Macro(m.body, m.code) for m in image.macros])
            box["amount"] = len(out)
        return None if out == data else "unpack(pack(x)) != x"
    rnd.op(f"blob{index} unpack", unpack)


@contextmanager
def collected_before():
    """Run the cyclic collector before the block and not inside it, as
    timeit does: its pauses scale with whatever the benchmark itself
    holds, not with the work being timed."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_round(inputs: Inputs, timings: Timings) -> Round:
    rnd = Round(timings)
    with collected_before():
        for prog in inputs.programs:
            program_ops(rnd, prog, inputs.budgets)
        for i, data in enumerate(inputs.blobs):
            blob_ops(rnd, i, data)
    return rnd


# ---------------------------------------------------------------------------
# Metrics

# name -> (unit, better, bound, source); BENCHMARK.json lists them in this
# order.  A source in Timings is a rate; one in Round.sizes is a byte count.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, None),
    "compact_greedy_bytes_per_s": ("B/s", "higher", 0.25, "compact_greedy"),
    "compact_freq_bytes_per_s": ("B/s", "higher", 0.25, "compact_freq"),
    "greedy_output_bytes": ("B", "lower", 0.15, "greedy_output"),
    "freq_output_bytes": ("B", "lower", 0.15, "freq_output"),
    "asm_bytes_per_s": ("B/s", "higher", 0.25, "asm"),
    "disasm_bytes_per_s": ("B/s", "higher", 0.25, "disasm"),
    "vm_plain_steps_per_s": ("steps/s", "higher", 0.25, "vm_plain"),
    "vm_compacted_steps_per_s": ("steps/s", "higher", 0.25, "vm_compacted"),
    "pack_bytes_per_s": ("B/s", "higher", 0.25, "pack"),
    "unpack_bytes_per_s": ("B/s", "higher", 0.25, "unpack"),
    "pack_output_bytes": ("B", "lower", 0.2, "pack_output"),
    "peak_rss_mib": ("MiB", "lower", 0.1, None),
}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(timings: Timings, last: Round) -> dict:
    metrics = {}
    for name, (unit, _, _, source) in END_TO_END.items():
        if name == "setup_s":
            value = timings.seconds("setup", 0)
        elif name == "peak_rss_mib":
            value = peak_rss_mib()
        elif source in timings.samples:
            value = timings.rate(source)
        else:
            value = last.sizes[source]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_rounds(inputs: Inputs, seconds: float, trace_out: Path | None
                  ) -> tuple[list, dict]:
    """Alternate untraced and traced rounds; per-layer medians over the
    traced ones, with the overhead as the difference of median walls."""
    tracer = tracing.Tracer()
    timings = Timings()
    rounds, walls, per_round = [], [], []
    activations: dict = {}
    start = clock()
    while not per_round or clock() - start < seconds:
        t0 = clock()
        rounds.append(run_round(inputs, timings))
        walls.append(clock() - t0)
        tracer.install()
        try:
            rnd, first = tracer.round(lambda: run_round(inputs, timings))
        finally:
            tracer.uninstall()
        rounds.append(rnd)
        prof = tracing.round_profile(tracer.spans, first)
        for key, image, fuel in rnd.runs:
            if key not in activations:
                activations[key] = tracing.count_activations(image, fuel)
        per_round.append(tracing.layer_metrics(
            prof, sum(activations[key] for key, _, _ in rnd.runs)))
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_out)
    medians = tracing.median_metrics(per_round)
    medians["trace.overhead_s"] = medians["trace.wall_s"] - statistics.median(walls)
    return rounds, {name: {"value": value, "unit": tracing.LAYER_UNITS[name][0]}
                    for name, value in medians.items()}


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            smoke: bool, trace_out: Path | None) -> dict:
    timings = Timings()
    for _ in range(SETUP_REPEATS):
        with collected_before(), timings.timed("setup", 0) as box:
            inputs = setup(workload, seed, smoke)
            box["amount"] = 1
    if traced:
        rounds, metrics = traced_rounds(inputs, seconds, trace_out)
    else:
        rounds = []
        start = clock()
        while not rounds or clock() - start < seconds:
            rounds.append(run_round(inputs, timings))
        metrics = end_to_end(timings, rounds[-1])
    failed = sum(r.failed for r in rounds)
    return {"correct": failed == 0, "attempted": sum(r.attempted for r in rounds),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path,
                   help="span file of a traced run (default "
                        "perfbench/out/<workload>-seed<n>.trace.json)")
    p.add_argument("--smoke", action="store_true",
                   help="toy-sized inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    trace_out = args.trace_out
    if args.trace and trace_out is None:
        trace_out = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.smoke, trace_out)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:16.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
