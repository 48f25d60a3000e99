"""Seeded fuzz of the command line.

Mutated sources, mutated and truncated object files and random flag
combinations go through cli.main for asm, compact, verify, run, disasm,
stats and unpack.  Every case must end in one of the documented exit
codes (0 success, 1 verification failure, 2 usage or input error,
3 runtime fault), never in an uncaught exception.
"""

import random

import corpus
from macroforge import asm, greedy, macros
from macroforge.cli import main
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage
from test_source_fuzz import mutate

EXIT_CODES = {0, 1, 2, 3}

# flag groups per command; a case draws a few of them
SELECTION = [["--mode", "greedy"], ["--mode", "freq"], ["--mode", "nope"],
             ["--max-macros", "-1"], ["--max-macros", "0"],
             ["--max-macros", "8"], ["--max-macros", "177"],
             ["--max-len", "1"], ["--max-len", "2"], ["--max-len", "4"],
             ["--max-len", "256"], ["--origin", "0"], ["--origin", "7FF0"],
             ["--origin", "FFFF"], ["--origin", "xyz"]]
FLAGS = {
    "asm": [["--list"], ["--entry", "START"], ["--entry", "L1"],
            ["--entry", "100"], ["--entry", "101"], ["--entry", "FFFF"],
            ["--origin", "0"], ["--origin", "FFF0"], ["--origin", "xyz"]],
    "compact": SELECTION + [["--entry", "100"], ["--entry", "103"],
                            ["--entry", "L1"]],
    "verify": SELECTION,
    "run": [["--fuel", "-1"]],
    "disasm": [],
    "stats": [],
    "unpack": [["--max-output", "0"], ["--max-output", "16"],
               ["--max-output", "-5"]],
}
FUEL = ["0", "1", "50", "2000"]


def exit_code(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse refuses the flags
        return exc.code


def mutate_bytes(rng, blob):
    data = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        at = rng.randrange(len(data) + 1)
        if op == 0:
            del data[at:]
        elif op == 1 and at < len(data):
            data[at] = rng.randrange(256)
        elif op == 2:
            data[at:at] = bytes(rng.randrange(256)
                                for _ in range(rng.randint(1, 4)))
        else:
            del data[at:at + rng.randint(1, 8)]
    return bytes(data)


def objects(sources):
    """Plain and compacted images of the sources, and raw containers."""
    plain = [asm.assemble(text).serialize() for text in sources]
    compacted = [macros.compact_source(text, max_macros=8)[0].serialize()
                 for text in sources]
    raw = []
    for blob in plain + [text.encode() for text in sources[:3]]:
        result = greedy.greedy_select(blob, 16, 8)
        raw.append(ObjectImage(
            code=result.residual, flags=FLAG_RAW,
            macros=[MacroEntry(m.code, m.body) for m in result.macros]
        ).serialize())
    return plain + compacted, raw


def test_cli_ends_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(4242)
    sources = [corpus.generate_program(seed, min_instructions=6,
                                       max_instructions=30)
               for seed in range(8)]
    images, raw = objects(sources)
    source_path, object_path, out_path = (tmp_path / "in.s",
                                          tmp_path / "in.mco",
                                          tmp_path / "out.bin")
    seen = set()
    for case in range(400):
        command = rng.choice(sorted(FLAGS))
        text = rng.choice(sources)
        if rng.random() < 0.6:
            text = mutate(rng, text)
        source_path.write_text(text)
        if command == "unpack" and rng.random() < 0.8:
            blob = rng.choice(raw)
        else:
            blob = rng.choice(images + raw)
        object_path.write_bytes(mutate_bytes(rng, blob)
                                if rng.random() < 0.6 else blob)
        if command in ("asm", "compact", "verify"):
            argv = [command, source_path]
        else:
            argv = [command, object_path]
        if command in ("asm", "compact", "unpack"):
            argv += ["--out", out_path]
        for _ in range(rng.randint(0, 3)):
            if FLAGS[command]:
                argv += rng.choice(FLAGS[command])
        if command in ("run", "verify"):
            argv += ["--fuel", rng.choice(FUEL)]
        if command == "stats" and rng.random() < 0.5:
            argv += ["--original", rng.choice((source_path, object_path))]
        rc = exit_code(argv)
        capsys.readouterr()
        assert rc in EXIT_CODES, (case, argv, text)
        seen.add(rc)
    # failures and successes both occur, or the fuzz shows nothing
    assert {0, 2} <= seen, seen


PACK_FLAGS = [["--allow-embed"], ["--mode", "exact"], ["--max-len", "1"],
              ["--max-len", "2"], ["--max-len", "256"],
              ["--max-macros", "0"], ["--max-macros", "177"]]


def test_pack_ends_in_success_or_an_input_error(tmp_path, capsys):
    # a generator of its own, so the cases above stay as they are
    rng = random.Random(1919)
    sources = [corpus.generate_program(seed, min_instructions=6,
                                       max_instructions=30)
               for seed in range(4)]
    blobs = ([text.encode() for text in sources]
             + [asm.assemble(text).code for text in sources]
             + [b"", bytes(64), b"ab" * 40, bytes(range(256)) * 2])
    data_path, packed, back = (tmp_path / "in.bin", tmp_path / "in.mcp",
                               tmp_path / "back.bin")
    seen = set()
    for case in range(120):
        data = rng.choice(blobs)
        if rng.random() < 0.5:
            data = mutate_bytes(rng, data)
        data_path.write_bytes(data)
        argv = ["pack", data_path, "--out", packed]
        for _ in range(rng.randint(0, 3)):
            argv += rng.choice(PACK_FLAGS)
        packed.unlink(missing_ok=True)
        rc = exit_code(argv)
        capsys.readouterr()
        assert rc in (0, 2), (case, argv)
        seen.add(rc)
        if rc == 0:
            assert exit_code(["unpack", packed, "--out", back]) == 0, case
            assert back.read_bytes() == data, (case, argv)
        else:
            assert not packed.exists(), (case, argv)
    assert seen == {0, 2}, seen
