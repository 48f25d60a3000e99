"""Command line driver.

Eight subcommands tie the pipeline together: asm, compact, pack, unpack,
run, disasm, verify, stats.  Exit codes are a stable contract: 0 success,
1 verification failure, 2 usage or input error, 3 runtime fault.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import asm, disasm, greedy, isa, macros, optimal, vm
from .objfile import FLAG_RAW, MAGIC, MacroEntry, ObjectError, ObjectImage, parse


class CliError(Exception):
    """Usage or input problem; reported and mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Small I/O helpers

def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


def _read_source(path: str) -> str:
    blob = _read_bytes(path)
    if blob[:4] == MAGIC:
        raise CliError(f"{path} is an object file where assembly source "
                       "was expected")
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not text: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _default_out(path: str, suffix: str) -> str:
    stem = path.rsplit(".", 1)[0] if "." in path.rsplit("/", 1)[-1] else path
    return stem + suffix


# ---------------------------------------------------------------------------
# Reports

def build_report(input_bytes: int, residual_bytes: int, table_bytes: int,
                 macro_count: int, mode: str | None,
                 elapsed: dict) -> dict:
    report = {
        "inputBytes": input_bytes,
        "macroCount": macro_count,
        "tableBytes": table_bytes,
        "residualBytes": residual_bytes,
        "objective": residual_bytes + table_bytes,
        "savingsBytes": input_bytes - (residual_bytes + table_bytes),
        "savingsPercent": (100.0 * (input_bytes - residual_bytes - table_bytes)
                           / input_bytes if input_bytes else 0.0),
        "mode": mode,
        "elapsed": {k: round(v, 6) for k, v in elapsed.items()},
    }
    check_report(report)
    return report


def check_report(report: dict) -> None:
    """Arithmetic invariants are verified on every emission, not assumed."""
    if report["objective"] != report["residualBytes"] + report["tableBytes"]:
        raise RuntimeError("report invariant broken: objective != "
                           "residual + table")
    if report["savingsBytes"] != report["inputBytes"] - report["objective"]:
        raise RuntimeError("report invariant broken: savings != "
                           "input - objective")


def emit_report(report: dict, dest: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if dest is None or dest == "-":
        sys.stdout.write(text)
    else:
        _write_bytes(dest, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_asm(args) -> int:
    image = asm.assemble(_read_source(args.source), origin=args.origin,
                         entry=args.entry)
    out = args.out or _default_out(args.source, ".mco")
    _write_bytes(out, image.serialize())
    if args.list:
        sys.stdout.write(disasm.render_listing(image))
    return 0


def cmd_compact(args) -> int:
    text = _read_source(args.source)
    if args.max_macros < 0:
        raise CliError("--max-macros must be 0 or more")
    image, info = macros.compact_source(
        text, mode=args.mode, max_macros=args.max_macros,
        max_len=args.max_len, origin=args.origin, entry=args.entry)
    out = args.out or _default_out(args.source, ".mco")
    _write_bytes(out, image.serialize())
    emit_report(build_report(info["input_bytes"], info["residual_bytes"],
                             info["table_bytes"], info["macro_count"],
                             args.mode, info["elapsed"]),
                args.report)
    return 0


def cmd_pack(args) -> int:
    data = _read_bytes(args.input)
    t0 = time.perf_counter()
    if args.mode == "greedy":
        result = greedy.greedy_select(data, args.max_macros, args.max_len,
                                      allow_embed=args.allow_embed)
    else:
        if args.allow_embed:
            print("warning: --allow-embed has no effect in exact mode",
                  file=sys.stderr)
        result = greedy.exact_select(data, args.max_macros, args.max_len)
    dt = time.perf_counter() - t0
    image = ObjectImage(code=result.residual,
                        macros=[MacroEntry(code=m.code, body=m.body)
                                for m in result.macros],
                        flags=FLAG_RAW)
    out = args.out or _default_out(args.input, ".mcp")
    _write_bytes(out, image.serialize())
    emit_report(build_report(len(data), len(result.residual),
                             result.table_size(), len(result.macros),
                             args.mode, {"select": dt}),
                args.report)
    return 0


def cmd_unpack(args) -> int:
    image = parse(_read_bytes(args.input))
    if not image.is_raw:
        raise CliError("object holds a program image; unpack takes the "
                       "raw containers written by pack")
    table = [greedy.Macro(body=m.body, code=m.code) for m in image.macros]
    _write_bytes(args.out or _default_out(args.input, ".bin"),
                 greedy.expand_macros(image.code, table,
                                      limit=args.max_output))
    return 0


def cmd_run(args) -> int:
    if args.fuel < 1:
        raise CliError("--fuel must be at least 1")
    image = parse(_read_bytes(args.object))
    outcome = vm.run(vm.load(image), fuel=args.fuel)
    for value in outcome.trace:
        print(value)
    if outcome.status == "halted":
        return 0
    reason = outcome.fault_reason or outcome.status
    print(f"runtime fault after {outcome.steps} steps: {reason}",
          file=sys.stderr)
    return 3


def cmd_disasm(args) -> int:
    sys.stdout.write(disasm.render_listing(parse(_read_bytes(args.object))))
    return 0


def cmd_verify(args) -> int:
    text = _read_source(args.source)
    base_image = asm.assemble(text, origin=args.origin)
    if args.max_macros < 0:
        raise CliError("--max-macros must be 0 or more")
    compacted, _ = macros.compact_source(
        text, mode=args.mode, max_macros=args.max_macros,
        max_len=args.max_len, origin=args.origin)
    base = vm.run(vm.load(base_image), fuel=args.fuel)
    got = vm.run(vm.load(compacted), fuel=args.fuel)
    if base.trace == got.trace and base.status == got.status:
        print(f"verify: pass ({len(base.trace)} trace values, "
              f"status {base.status}, {len(compacted.macros)} macros)")
        return 0
    for i, (a, b) in enumerate(zip(base.trace, got.trace)):
        if a != b:
            print(f"verify: FAIL first divergence at trace index {i}: "
                  f"plain {a} vs compacted {b}")
            return 1
    if len(base.trace) != len(got.trace):
        i = min(len(base.trace), len(got.trace))
        print(f"verify: FAIL first divergence at trace index {i}: "
              f"trace lengths {len(base.trace)} vs {len(got.trace)}")
        return 1
    print(f"verify: FAIL status mismatch: plain {base.status} vs "
          f"compacted {got.status}")
    return 1


def cmd_stats(args) -> int:
    image = parse(_read_bytes(args.object))
    residual = len(image.code)
    table = image.table_bytes()
    if args.original:
        blob = _read_bytes(args.original)
        if blob[:4] == MAGIC:
            input_bytes = len(parse(blob).code)
        elif image.is_raw:
            input_bytes = len(blob)
        else:
            input_bytes = len(asm.assemble(blob.decode("utf-8")).code)
    else:
        # without a reference there is nothing to compare against
        input_bytes = residual + table
    emit_report(build_report(input_bytes, residual, table, len(image.macros),
                             None, {}),
                args.report)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing

def _hex_word(text: str) -> int:
    try:
        value = int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a hex number")
    return value


def _entry_arg(text: str):
    try:
        return int(text, 16)
    except ValueError:
        return text  # label; resolved against the final symbol table


def _add_origin(p) -> None:
    p.add_argument("--origin", type=_hex_word, default=isa.DEFAULT_ORIGIN,
                   help="load address, hex (default 100)")


def _add_selection(p, modes) -> None:
    p.add_argument("--mode", choices=modes, default="greedy")
    p.add_argument("--max-macros", type=int, default=isa.MAX_MACROS,
                   metavar="V", help=f"macro budget (default {isa.MAX_MACROS})")
    p.add_argument("--max-len", type=int, default=20, metavar="L",
                   help="longest macro body in bytes (default 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macroforge",
        description="Assemble, macro-compact, run, and inspect MCRL programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble source to an object file")
    p.add_argument("source")
    p.add_argument("--out", "-o")
    p.add_argument("--list", action="store_true",
                   help="print the listing after assembling")
    p.add_argument("--entry", type=_entry_arg,
                   help="entry point: label or hex address")
    _add_origin(p)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("compact",
                       help="assemble source and shrink it with macros")
    p.add_argument("source")
    p.add_argument("--out", "-o")
    _add_selection(p, ("greedy", "exact", "freq"))
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON report here instead of stdout")
    p.add_argument("--entry", type=_entry_arg)
    _add_origin(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("pack", help="compact an arbitrary binary file")
    p.add_argument("input")
    p.add_argument("--out", "-o")
    _add_selection(p, ("greedy", "exact"))
    p.add_argument("--allow-embed", action="store_true",
                   help="let later macro bodies cover earlier macro bytes")
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("unpack", help="restore a packed file exactly")
    p.add_argument("input")
    p.add_argument("--out", "-o")
    p.add_argument("--max-output", type=int, default=greedy.MAX_OUTPUT,
                   metavar="N", help="refuse an output over N bytes "
                   f"(default {greedy.MAX_OUTPUT})")
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("run", help="execute an object file")
    p.add_argument("object")
    p.add_argument("--fuel", type=int, default=100_000,
                   help="step limit (default 100000)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="print the listing of an object file")
    p.add_argument("object")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("verify",
                       help="check that compaction preserves behavior")
    p.add_argument("source")
    _add_selection(p, ("greedy", "exact", "freq"))
    p.add_argument("--fuel", type=int, default=100_000)
    _add_origin(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="report sizes of an object file")
    p.add_argument("object")
    p.add_argument("--original", metavar="PATH",
                   help="reference input for savings figures")
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except optimal.BudgetError as exc:
        print(f"error: exact search refused: {exc}", file=sys.stderr)
        return 2
    except (asm.AsmError, ObjectError, disasm.DisasmError, vm.LoadError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
