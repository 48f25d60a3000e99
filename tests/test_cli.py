import json
import random

import pytest

import corpus
from macroforge import asm, macros
from macroforge.cli import build_report, main
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage, parse

B_STAR = b"jabcdefmrhabcdegkcdefnshabcp"

COUNTER = """\
START  ZER WC
LOOP   ICV WC
       OUT WC
       BLT WC, =3, -LOOP
       HLT
"""

REPORT_FIELDS = {"inputBytes", "macroCount", "tableBytes", "residualBytes",
                 "objective", "savingsBytes", "savingsPercent", "mode",
                 "elapsed"}


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_from(out):
    report = json.loads(out)
    assert set(report) == REPORT_FIELDS
    assert report["objective"] == report["residualBytes"] + report["tableBytes"]
    assert report["savingsBytes"] == report["inputBytes"] - report["objective"]
    return report


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


# --- asm --------------------------------------------------------------------

def test_asm_writes_object_and_lists(tmp_path, capsys):
    src = write(tmp_path, "prog.mcrl", COUNTER)
    obj = tmp_path / "prog.mco"
    rc, out, _ = run_cli(capsys, "asm", src, "--out", obj, "--list")
    assert rc == 0
    assert "ZER WC" in out
    assert out.startswith("origin 0100  entry 0100")
    image = parse(obj.read_bytes())
    assert image.macros == []
    assert image.code == asm.assemble(COUNTER).code


def test_asm_missing_file(capsys):
    rc, _, err = run_cli(capsys, "asm", "no-such-file.mcrl")
    assert rc == 2
    assert "cannot read" in err


def test_asm_reports_line_numbers(tmp_path, capsys):
    src = write(tmp_path, "bad.mcrl", "       MOV\n")
    rc, _, err = run_cli(capsys, "asm", src)
    assert rc == 2
    assert "line 1" in err


def test_asm_rejects_a_source_that_is_not_utf8(tmp_path, capsys):
    src = write(tmp_path, "bad.mcrl", b"       OUT =1\n\xff\xfe\n")
    rc, _, err = run_cli(capsys, "asm", src)
    assert rc == 2
    assert err.startswith(f"error: {src} is not text: ")


def test_asm_unwritable_out_is_an_input_error(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    out = tmp_path / "missing" / "p.mco"
    rc, _, err = run_cli(capsys, "asm", src, "--out", out)
    assert rc == 2
    assert err.startswith(f"error: cannot write {out}: ")


def test_outputs_default_to_the_input_stem(tmp_path, capsys):
    src = write(tmp_path, "prog.mcrl", COUNTER)
    obj = tmp_path / "prog.mco"
    assert run_cli(capsys, "asm", src)[0] == 0
    assert parse(obj.read_bytes()) == asm.assemble(COUNTER)
    obj.unlink()
    assert run_cli(capsys, "compact", src)[0] == 0
    assert parse(obj.read_bytes()) == macros.compact_source(COUNTER)[0]
    raw = write(tmp_path, "b.dat", B_STAR)
    assert run_cli(capsys, "pack", raw)[0] == 0
    assert run_cli(capsys, "unpack", tmp_path / "b.mcp")[0] == 0
    assert (tmp_path / "b.bin").read_bytes() == B_STAR
    # only a dot in the file name starts a suffix
    sub = tmp_path / "v1.2"
    sub.mkdir()
    assert run_cli(capsys, "asm", write(sub, "prog", COUNTER))[0] == 0
    assert parse((sub / "prog.mco").read_bytes()) == asm.assemble(COUNTER)


# --- compact ----------------------------------------------------------------

def test_compact_report_schema(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=2))
    obj = tmp_path / "p.mco"
    rc, out, _ = run_cli(capsys, "compact", src, "--out", obj)
    assert rc == 0
    report = report_from(out)
    assert report["mode"] == "greedy"
    assert report["macroCount"] > 0
    assert report["savingsBytes"] > 0
    assert set(report["elapsed"]) == {"assemble", "select", "emit"}


def test_compact_report_to_file(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=2))
    rep = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "compact", src, "--out", tmp_path / "p.mco",
                         "--report", rep)
    assert rc == 0
    assert out == ""
    report_from(rep.read_text())


def test_compact_zero_macros_is_identity(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    plain = tmp_path / "plain.mco"
    zero = tmp_path / "zero.mco"
    assert run_cli(capsys, "asm", src, "--out", plain)[0] == 0
    rc, out, _ = run_cli(capsys, "compact", src, "--out", zero,
                         "--max-macros", 0)
    assert rc == 0
    assert zero.read_bytes() == plain.read_bytes()
    assert report_from(out)["macroCount"] == 0


@pytest.mark.parametrize("command", ["compact", "verify"])
def test_negative_macro_count_is_a_usage_error(tmp_path, capsys, command):
    src = write(tmp_path, "p.mcrl", COUNTER)
    rc, out, err = run_cli(capsys, command, src, "--max-macros", -1)
    assert rc == 2
    assert err == "error: macro count must be 0..176\n"
    assert out == ""
    assert not (tmp_path / "p.mco").exists()


def test_compact_rejects_object_input(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, _, err = run_cli(capsys, "compact", obj)
    assert rc == 2
    assert "object file" in err


def test_compact_exact_budget_refusal(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=4))
    rc, _, err = run_cli(capsys, "compact", src, "--mode", "exact")
    assert rc == 2
    assert "estimated" in err and "budget" in err


@pytest.mark.parametrize("budget", ["abc", "1e9"])
def test_budget_that_is_not_a_number_is_named(tmp_path, capsys, monkeypatch,
                                              budget):
    monkeypatch.setenv("MACROFORGE_BUDGET", budget)
    raw = write(tmp_path, "b.bin", B_STAR)
    rc, _, err = run_cli(capsys, "pack", raw, "--out", tmp_path / "b.mcp",
                         "--mode", "exact", "--max-macros", 2)
    assert rc == 2
    assert err == ("error: MACROFORGE_BUDGET must be a whole number of "
                   f"steps, not {budget!r}\n")
    assert not (tmp_path / "b.mcp").exists()


@pytest.mark.parametrize("command", ["asm", "compact"])
@pytest.mark.parametrize("entry", ["50", "10B", "300"])
def test_entry_outside_code_is_rejected(tmp_path, capsys, command, entry):
    src = write(tmp_path, "p.mcrl", COUNTER)  # 11 bytes at 0100
    rc, _, err = run_cli(capsys, command, src, "--out", tmp_path / "o.mco",
                         "--entry", entry)
    assert rc == 2
    assert "outside the" in err
    assert not (tmp_path / "o.mco").exists()


@pytest.mark.parametrize("command", ["asm", "compact"])
def test_hex_entry_inside_an_instruction_is_rejected(tmp_path, capsys,
                                                     command):
    src = write(tmp_path, "e.s", "       MOV =22, XR\n       OUT =26\n"
                "       HLT\n")
    rc, _, err = run_cli(capsys, command, src, "--out", tmp_path / "o.mco",
                         "--entry", "101")
    assert rc == 2
    assert "entry 0x0101 is not the start of an instruction" in err
    assert not (tmp_path / "o.mco").exists()


def refused_flag(tmp_path, capsys, *flag):
    """The exit code and stderr of asm with flag, which argparse refuses."""
    src = write(tmp_path, "p.mcrl", COUNTER)
    with pytest.raises(SystemExit) as exc:
        main(["asm", str(src), "--out", str(tmp_path / "o.mco"), *flag])
    assert not (tmp_path / "o.mco").exists()
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("sign", "-+")
def test_signed_origin_is_refused_at_parsing(tmp_path, capsys, sign):
    # int(text, 16) takes a sign, which once gave "origin -0x5 out of range"
    rc, err = refused_flag(tmp_path, capsys, "--origin", sign + "5")
    assert rc == 2
    assert f"argument --origin: '{sign}5' is signed" in err


# int(text, 16) also takes a 0x prefix, digit separators and surrounding
# space, which once made --origin 1_00 assemble at 0100
NOT_HEX_DIGITS = ["1_00", "0x100", " 100", "100 "]


@pytest.mark.parametrize("text", NOT_HEX_DIGITS)
def test_origin_takes_hex_digits_only(tmp_path, capsys, text):
    rc, err = refused_flag(tmp_path, capsys, "--origin", text)
    assert rc == 2
    assert f"argument --origin: {text!r} is not a hex number" in err


@pytest.mark.parametrize("text", NOT_HEX_DIGITS)
def test_entry_of_other_than_hex_digits_is_a_label(tmp_path, capsys, text):
    src = write(tmp_path, "p.mcrl", COUNTER)
    rc, _, err = run_cli(capsys, "asm", src, "--out", tmp_path / "o.mco",
                         "--entry", text)
    assert rc == 2
    assert f"entry label {text!r} is not defined" in err
    assert not (tmp_path / "o.mco").exists()


@pytest.mark.parametrize("sign", "-+")
def test_signed_entry_is_refused_at_parsing(tmp_path, capsys, sign):
    rc, err = refused_flag(tmp_path, capsys, "--entry", sign + "1")
    assert rc == 2
    assert f"argument --entry: '{sign}1' is signed" in err


def test_entry_inside_code_is_accepted(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "o.mco"
    assert run_cli(capsys, "asm", src, "--out", obj, "--entry", "10A")[0] == 0
    assert run_cli(capsys, "disasm", obj)[1].startswith(
        "origin 0100  entry 010A")


def test_compact_hex_entry_is_a_plain_code_address(tmp_path, capsys):
    # 0106 starts the second MOV in the plain code; selection moves it
    # to 0104, where the compacted image must start.
    src = write(tmp_path, "p.mcrl", OUTPUTS_CODE_ADDRESS)
    obj = tmp_path / "o.mco"
    rc, _, _ = run_cli(capsys, "compact", src, "--out", obj, "--entry", "106",
                       "--max-macros", 1, "--max-len", 4)
    assert rc == 0
    assert run_cli(capsys, "disasm", obj)[1].startswith(
        "origin 0100  entry 0104")
    assert run_cli(capsys, "run", obj)[0] == 0
    rc, _, err = run_cli(capsys, "compact", src, "--out", obj, "--entry",
                         "107", "--max-macros", 1, "--max-len", 4)
    assert rc == 2
    assert "start of an instruction" in err


def test_compact_rejects_body_limit_before_selecting(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    rc, _, err = run_cli(capsys, "compact", src, "--out", tmp_path / "o.mco",
                         "--max-len", 256)
    assert rc == 2
    assert "max_len must be 2..255" in err
    assert not (tmp_path / "o.mco").exists()


# --- pack / unpack ------------------------------------------------------------

def test_pack_greedy_worked_example(tmp_path, capsys):
    raw = write(tmp_path, "b.bin", B_STAR)
    rc, out, _ = run_cli(capsys, "pack", raw, "--out", tmp_path / "b.mcp",
                         "--mode", "greedy", "--max-macros", 1,
                         "--max-len", 5, "--report", "-")
    assert rc == 0
    assert report_from(out)["objective"] == 25


def test_pack_exact_worked_example(tmp_path, capsys):
    raw = write(tmp_path, "b.bin", B_STAR)
    rc, out, _ = run_cli(capsys, "pack", raw, "--out", tmp_path / "b.mcp",
                         "--mode", "exact", "--max-macros", 2,
                         "--max-len", 5, "--report", "-")
    assert rc == 0
    assert report_from(out)["objective"] == 24


def test_pack_exact_warns_that_allow_embed_has_no_effect(tmp_path, capsys):
    raw = write(tmp_path, "b.bin", B_STAR)
    rc, out, err = run_cli(capsys, "pack", raw, "--out", tmp_path / "b.mcp",
                           "--mode", "exact", "--max-macros", 2,
                           "--max-len", 5, "--allow-embed", "--report", "-")
    assert rc == 0
    assert err == "warning: --allow-embed has no effect in exact mode\n"
    assert report_from(out)["objective"] == 24


def test_pack_exact_without_a_free_opcode_is_an_input_error(tmp_path,
                                                            capsys):
    # the one paying body, 01 02, needs an opcode the data does not hold
    raw = write(tmp_path, "full.bin",
                bytes(range(0x50, 0x100)) + b"\x01\x02" * 3)
    packed = tmp_path / "full.mcp"
    rc, _, err = run_cli(capsys, "pack", raw, "--out", packed,
                         "--mode", "exact", "--max-macros", 1, "--max-len", 2)
    assert rc == 2
    assert err == "error: no opcode in 0x50..0xFF is free of the input\n"
    assert not packed.exists()


@pytest.mark.parametrize("mode", ["greedy", "exact"])
def test_pack_rejects_body_limit_before_selecting(tmp_path, capsys, mode):
    # the repeated 300-byte block would be adopted whole and only then
    # fail to fit the one-byte length field of the container
    block = bytes(random.Random(5).randrange(256) for _ in range(300))
    raw = write(tmp_path, "b.bin", block * 3)
    rc, _, err = run_cli(capsys, "pack", raw, "--out", tmp_path / "b.mcp",
                         "--mode", mode, "--max-len", 600)
    assert rc == 2
    assert "max_len must be 2..255" in err
    assert not (tmp_path / "b.mcp").exists()


def test_pack_unpack_identity_small(tmp_path, capsys):
    rng = random.Random(7)
    motif = bytes(rng.randrange(16) for _ in range(24))
    data = bytearray()
    for _ in range(400):
        data += motif if rng.random() < 0.7 else bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 9)))
    raw = write(tmp_path, "d.bin", bytes(data))
    packed = tmp_path / "d.mcp"
    back = tmp_path / "d.out"
    rc, out, _ = run_cli(capsys, "pack", raw, "--out", packed, "--report", "-")
    assert rc == 0
    assert report_from(out)["savingsBytes"] > 0
    assert run_cli(capsys, "unpack", packed, "--out", back)[0] == 0
    assert back.read_bytes() == bytes(data)


def test_pack_unpack_identity_one_mebibyte(tmp_path, capsys):
    rng = random.Random(13)
    motif = bytes(rng.randrange(64) for _ in range(32))
    chunks = [motif * rng.randrange(1, 4) + bytes(
        rng.randrange(256) for _ in range(rng.randrange(0, 16)))
        for _ in range(12_000)]
    data = b"".join(chunks)[:1 << 20]
    raw = write(tmp_path, "big.bin", data)
    packed = tmp_path / "big.mcp"
    back = tmp_path / "big.out"
    rc, _, _ = run_cli(capsys, "pack", raw, "--out", packed,
                       "--max-macros", 2, "--max-len", 3)
    assert rc == 0
    assert run_cli(capsys, "unpack", packed, "--out", back)[0] == 0
    assert back.read_bytes() == data


def test_unpack_rejects_program_image(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, _, err = run_cli(capsys, "unpack", obj)
    assert rc == 2
    assert "program image" in err


def test_unpack_refuses_output_over_the_limit(tmp_path, capsys):
    # three nested 255-byte bodies: each residual byte expands to 255**3
    bodies = [b"x" * 255, bytes([0x50]) * 255, bytes([0x51]) * 255]
    bomb = ObjectImage(code=bytes([0x52]) * 4, flags=FLAG_RAW,
                       macros=[MacroEntry(0x50 + i, body)
                               for i, body in enumerate(bodies)])
    packed = write(tmp_path, "bomb.mcp", bomb.serialize())
    out = tmp_path / "bomb.out"
    rc, _, err = run_cli(capsys, "unpack", packed, "--out", out)
    assert rc == 2
    assert "exceeds the limit" in err
    assert not out.exists()
    small = write(tmp_path, "s.mcp", ObjectImage(
        code=b"ab\x50", flags=FLAG_RAW,
        macros=[MacroEntry(0x50, b"cd")]).serialize())
    for limit, want in ((3, 2), (4, 0)):
        rc, _, _ = run_cli(capsys, "unpack", small, "--out", out,
                           "--max-output", limit)
        assert rc == want
    assert out.read_bytes() == b"abcd"


def test_unpack_rejects_negative_max_output_before_reading(tmp_path, capsys):
    small = write(tmp_path, "s.mcp", ObjectImage(
        code=b"ab\x50", flags=FLAG_RAW,
        macros=[MacroEntry(0x50, b"cd")]).serialize())
    for path in (small, tmp_path / "missing.mcp"):
        rc, out, err = run_cli(capsys, "unpack", path, "--out",
                               tmp_path / "s.out", "--max-output", -1)
        assert (rc, out) == (2, "")
        assert "--max-output must be at least 0" in err
    assert not (tmp_path / "s.out").exists()


# --- run / disasm -------------------------------------------------------------

def test_run_prints_decimal_trace(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, out, _ = run_cli(capsys, "run", obj)
    assert rc == 0
    assert out == "1\n2\n3\n"


def test_run_rejects_zero_fuel(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, _, err = run_cli(capsys, "run", obj, "--fuel", 0)
    assert rc == 2
    assert "fuel" in err


def test_run_fault_exits_three(tmp_path, capsys):
    src = write(tmp_path, "f.mcrl", "       MOV (XS)+, WA\n       HLT\n")
    obj = tmp_path / "f.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, _, err = run_cli(capsys, "run", obj)
    assert rc == 3
    assert "stack underflow" in err


def test_run_of_a_program_without_code_is_an_input_error(tmp_path, capsys):
    src = write(tmp_path, "empty.mcrl", "* only a comment\n")
    obj = tmp_path / "empty.mco"
    assert run_cli(capsys, "asm", src, "--out", obj)[0] == 0
    assert run_cli(capsys, "run", obj) == (2, "", "error: image has no code\n")


def test_disasm_lists_object(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, out, _ = run_cli(capsys, "disasm", obj)
    assert rc == 0
    assert "BLT WC, =3," in out


def test_disasm_rejects_raw_container(tmp_path, capsys):
    raw = write(tmp_path, "b.bin", B_STAR)
    packed = tmp_path / "b.mcp"
    run_cli(capsys, "pack", raw, "--out", packed, "--report", tmp_path / "r")
    rc, _, err = run_cli(capsys, "disasm", packed)
    assert rc == 2
    assert "raw" in err


def test_disasm_and_run_reject_empty_raw_container(tmp_path, capsys):
    empty = write(tmp_path, "empty.bin", b"")
    packed = tmp_path / "empty.mcp"
    run_cli(capsys, "pack", empty, "--out", packed, "--report", tmp_path / "r")
    for command in ("disasm", "run"):
        rc, out, err = run_cli(capsys, command, packed)
        assert (rc, out) == (2, "")
        assert err == ("error: raw container holds packed bytes, "
                       "not a program\n")


# --- verify -------------------------------------------------------------------

def test_verify_passes_on_corpus_program(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=6))
    rc, out, _ = run_cli(capsys, "verify", src)
    assert rc == 0
    assert out.startswith("verify: pass")


def test_verify_rejects_zero_fuel_before_compacting(tmp_path, capsys,
                                                    monkeypatch):
    src = write(tmp_path, "p.mcrl", COUNTER)

    def refuse(*args, **kwargs):
        raise AssertionError("compacted before checking --fuel")

    monkeypatch.setattr(macros, "compact_source", refuse)
    rc, out, err = run_cli(capsys, "verify", src, "--fuel", 0)
    assert (rc, out) == (2, "")
    assert "--fuel must be at least 1" in err


def test_verify_zero_macros_trivially_passes(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=6))
    rc, out, _ = run_cli(capsys, "verify", src, "--max-macros", 0)
    assert rc == 0
    assert "0 macros" in out


# Outputs the address of its own code, which compaction moves.
OUTPUTS_CODE_ADDRESS = """\
       MOV =2A, -(XS)
       ADD WC, @40
       MOV =2A, -(XS)
       ADD WC, @40
       MOV =2A, -(XS)
       ADD WC, @40
END    OUT =END
       HLT
"""


def test_verify_fails_when_output_depends_on_code_address(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", OUTPUTS_CODE_ADDRESS)
    for mode in ("greedy", "freq", "exact"):
        rc, out, _ = run_cli(capsys, "verify", src, "--mode", mode,
                             "--max-macros", 1, "--max-len", 4)
        assert rc == 1, mode
        assert "first divergence at trace index 0" in out, mode


# LCW reads the first word of DATA's code: MOV =2A, -(XS) opens with 32 9B
# in the plain image, but greedy moves each push/add pair into a macro, so
# the compacted image holds the macro opcode there and takes the other way.
READS_ITS_CODE = """\
START  MOV =DATA, XL
       LCW WA
       OUT =1
{test}
DONE   HLT
DATA   MOV =2A, -(XS)
       ADD WC, @40
       MOV =2A, -(XS)
       ADD WC, @40
       MOV =2A, -(XS)
       ADD WC, @40
"""


def test_verify_fails_on_a_trace_length_mismatch(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", READS_ITS_CODE.format(
        test="       BNE WA, =329B, DONE\n       OUT =2"))
    rc, out, _ = run_cli(capsys, "verify", src)
    assert rc == 1
    assert out == ("verify: FAIL first divergence at trace index 1: "
                   "trace lengths 2 vs 1\n")


def test_verify_fails_on_a_status_mismatch(tmp_path, capsys):
    # the compacted run pops the empty stack
    src = write(tmp_path, "p.mcrl", READS_ITS_CODE.format(
        test="       BEQ WA, =329B, DONE\n       OUT (XS)+"))
    rc, out, _ = run_cli(capsys, "verify", src)
    assert rc == 1
    assert out == ("verify: FAIL status mismatch: plain halted vs "
                   "compacted fault\n")


def test_verify_fails_on_a_step_count_mismatch(tmp_path, capsys,
                                               monkeypatch):
    # same trace and status, one step more: a compaction that adds work
    src = write(tmp_path, "p.mcrl", "       OUT =1\n       HLT\n")
    padded = asm.assemble("       NOP\n       OUT =1\n       HLT\n")
    monkeypatch.setattr(macros, "compact_source",
                        lambda text, **kwargs: (padded, {}))
    rc, out, _ = run_cli(capsys, "verify", src)
    assert rc == 1
    assert out == "verify: FAIL step count mismatch: plain 2 vs compacted 3\n"


# --- stats --------------------------------------------------------------------

def test_stats_with_source_reference(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", corpus.generate_program(seed=2))
    obj = tmp_path / "p.mco"
    run_cli(capsys, "compact", src, "--out", obj,
            "--report", tmp_path / "unused.json")
    rc, out, _ = run_cli(capsys, "stats", obj, "--original", src)
    assert rc == 0
    report = report_from(out)
    assert report["mode"] is None
    assert report["savingsBytes"] > 0
    assert report["inputBytes"] == len(asm.assemble(src.read_text()).code)


def test_stats_rejects_an_original_that_is_not_text(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    original = write(tmp_path, "p.bin", b"\xff\xfe\x00\x01")
    rc, out, err = run_cli(capsys, "stats", obj, "--original", original)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {original} is not text: ")


def test_stats_without_reference_reports_zero_savings(tmp_path, capsys):
    src = write(tmp_path, "p.mcrl", COUNTER)
    obj = tmp_path / "p.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    rc, out, _ = run_cli(capsys, "stats", obj)
    assert rc == 0
    assert report_from(out)["savingsBytes"] == 0


def pack_then_stats(tmp_path, capsys, original):
    """The pack report of original and the stats report of its container
    against it."""
    packed = tmp_path / "packed.mcp"
    rc, out, _ = run_cli(capsys, "pack", original, "--out", packed,
                         "--report", "-")
    assert rc == 0
    packing = report_from(out)
    rc, out, _ = run_cli(capsys, "stats", packed, "--original", original)
    assert rc == 0
    return packing, report_from(out)


def test_stats_of_a_packed_text_file_matches_the_pack_report(tmp_path,
                                                              capsys):
    original = write(tmp_path, "p.txt", corpus.generate_program(seed=2))
    packing, stats = pack_then_stats(tmp_path, capsys, original)
    assert stats["inputBytes"] == packing["inputBytes"]
    assert stats["savingsBytes"] == packing["savingsBytes"] > 0


def test_stats_of_a_packed_container_takes_the_whole_file(tmp_path, capsys):
    # pack reads an .mco as bytes, header and all, so stats must too
    src = write(tmp_path, "two.mcrl", "       OUT =2A\n       HLT\n")
    obj = tmp_path / "two.mco"
    run_cli(capsys, "asm", src, "--out", obj)
    assert len(obj.read_bytes()) == 17
    packing, stats = pack_then_stats(tmp_path, capsys, obj)
    assert stats["inputBytes"] == packing["inputBytes"] == 17
    assert stats["savingsBytes"] == packing["savingsBytes"]


# --- plumbing -----------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_report_builder_rounds_elapsed():
    image = ObjectImage(code=bytes(60), flags=FLAG_RAW,
                        macros=[MacroEntry(0x50, b"ab"), MacroEntry(0x51, b"cd"),
                                MacroEntry(0x52, b"efghij")])
    report = build_report(100, image, "greedy", {"select": 0.123456789})
    assert report["macroCount"] == 3
    assert report["elapsed"]["select"] == 0.123457
    assert report["objective"] == 70
    assert report["savingsPercent"] == 30.0
