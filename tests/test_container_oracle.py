"""The container reader and expansion against their field-by-field oracles.

objfile.parse reads the fixed header by offset and the macro table in
one loop of slices; greedy.expand_macros sizes bodies with map and
replaces opcodes through a table of one-byte strings.
oracles.reference_parse reads every field through a reader call, and
reference_expand sizes each body with a generator.  On every container
and every corruption of one, both must return the same ObjectImage or
output, or raise the same exception with the same text.
"""

import random

import pytest

import corpus
import oracles
from macroforge import greedy, isa, macros, objfile
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:    # the type and text are what is compared
        return type(exc), str(exc)


def same_parse(blob):
    got = outcome(objfile.parse, blob)
    assert got == outcome(oracles.reference_parse, blob), blob[:24].hex()
    return got


def pack(data, allow_embed=False):
    res = greedy.greedy_select(data, isa.MAX_MACROS, 20, allow_embed)
    return ObjectImage(code=res.residual, origin=0, entry=0, flags=FLAG_RAW,
                       macros=[MacroEntry(m.code, m.body) for m in res.macros])


def long_raw():
    # 70,000 bytes of code: serialize writes the 0xFFFF length escape
    rng = random.Random(70000)
    code = bytes(rng.choice(b"abcd\x50\x51\x52") for _ in range(70000))
    return ObjectImage(code=code, origin=0, entry=0, flags=FLAG_RAW,
                       macros=[MacroEntry(0x50, b"ab"),
                               MacroEntry(0x51, b"\x50c\x50"),
                               MacroEntry(0x52, b"d")])


def images():
    rng = random.Random(17)
    out = []
    for seed in range(4):
        text = corpus.generate_program(seed, 20)
        out.append(macros.compact_source(text, max_macros=0)[0])
        out.append(macros.compact_source(text, mode="greedy")[0])
        out.append(macros.compact_source(text, mode="freq", max_macros=8)[0])
        out.append(pack(text.encode()[:300], allow_embed=seed % 2 == 1))
    out.append(pack(bytes(rng.randrange(256) for _ in range(200))))
    out.append(ObjectImage(code=b"", flags=FLAG_RAW))
    out.append(long_raw())
    return out


def small_blobs():
    text = corpus.generate_program(5, 6)
    image = macros.compact_source(text, mode="greedy", max_len=6)[0]
    assert image.macros
    raw = pack(b"abcabcabdabd" * 3)
    assert raw.macros
    # the length escape need not hold a long length
    escaped = raw.serialize()
    escaped = (escaped[:10] + b"\xff\xff" + len(raw.code).to_bytes(4, "big")
               + escaped[12:])
    return [image.serialize(), raw.serialize(), escaped]


def test_containers_parse_alike():
    for image in images():
        blob = image.serialize()
        assert same_parse(blob) == ("ok", image)


def test_every_truncation_fails_alike():
    blobs = small_blobs()
    # a short blob names a bad version before it is found truncated
    for blob in [*blobs, blobs[0][:4] + b"\x02" + blobs[0][5:]]:
        for cut in range(len(blob)):
            assert same_parse(blob[:cut])[0] is objfile.ObjectError
    blob = long_raw().serialize()
    for cut in [*range(20), *range(len(blob) - 20, len(blob))]:
        assert same_parse(blob[:cut])[0] is objfile.ObjectError


def test_header_count_and_length_flips_fail_alike():
    for blob in small_blobs():
        # the header, the count byte and each entry's opcode and length
        code_len = int.from_bytes(blob[10:12], "big")
        start = 16 if code_len == 0xFFFF else 12
        if code_len == 0xFFFF:
            code_len = int.from_bytes(blob[12:16], "big")
        count_at = start + code_len
        spots = [*range(start), count_at]
        pos = count_at + 1
        for _ in range(blob[count_at]):
            spots += [pos, pos + 1]
            pos += 2 + blob[pos + 1]
        for at in spots:
            flips = {blob[at] ^ mask for mask in (0x01, 0x02, 0x10, 0x80)}
            for value in flips | {0x00, 0x01, 0xFF}:
                flipped = bytearray(blob)
                flipped[at] = value
                same_parse(bytes(flipped))


def test_random_corruption_fails_alike():
    rng = random.Random(41)
    blobs = small_blobs()
    for _ in range(600):
        flipped = bytearray(rng.choice(blobs))
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(flipped))] = rng.randrange(256)
        same_parse(bytes(flipped))


def container(code, table, flags=0, origin=0x100):
    # serialize's layout, with no validate first
    out = (objfile.MAGIC + bytes([objfile.VERSION, flags]) + bytes(2)
           + origin.to_bytes(2, "big") + len(code).to_bytes(2, "big") + code
           + bytes([len(table)]))
    for op, body in table:
        out += bytes([op, len(body)]) + body
    return out


@pytest.mark.parametrize("blob, reason", [
    (container(b"\x00", [(0x50, b"")], FLAG_RAW), "empty body"),
    (container(b"\x00", [(0x50, b"\x01")]), "under 2 bytes"),
    (container(b"\x00", [(0x4F, b"ab")], FLAG_RAW), "outside"),
    (container(b"\x00", [(0x50, b"ab")] * 2, FLAG_RAW), "duplicate"),
    (container(b"\x00", [(0x51, b"\x01\x02")]), "not dense"),
    (container(b"\x00", [(0x50, b"\x50\x02")]), "starts with"),
    (container(b"\x00", [(0x50 + i % 176, b"ab") for i in range(177)],
               FLAG_RAW), "opcode slots"),
    (container(bytes(32), [], origin=0xFFF0), "does not fit"),
])
def test_table_and_layout_errors_alike(blob, reason):
    kind, text = same_parse(blob)
    assert kind is objfile.ObjectError and reason in text


@pytest.mark.parametrize("tail", [b"\x00", b"\x50\x02", bytes(7)])
def test_appended_bytes_fail_alike(tail):
    for blob in [*small_blobs(), long_raw().serialize()]:
        assert same_parse(blob + tail) == (
            objfile.ObjectError, f"{len(tail)} trailing byte(s) after "
            "container payload")


def test_expansion_matches_at_the_limit():
    rng = random.Random(3)
    inputs = [corpus.generate_program(1, 30).encode()[:600],
              bytes(rng.choice(b"ab") for _ in range(400)),
              bytes(rng.randrange(256) for _ in range(300))]
    tables = [long_raw()]
    for data in inputs:
        tables += [pack(data), pack(data, allow_embed=True)]
    for image in tables:
        table = [greedy.Macro(m.body, m.code) for m in image.macros]
        full = greedy.expand_macros(image.code, table)
        assert full == oracles.reference_expand(image.code, table)
        for limit in (len(full), len(full) - 1, greedy.MAX_OUTPUT):
            assert (outcome(greedy.expand_macros, image.code, table, limit)
                    == outcome(oracles.reference_expand, image.code, table,
                               limit))
        with pytest.raises(ValueError, match="exceeds the limit"):
            greedy.expand_macros(image.code, table, len(full) - 1)
