"""Byte-identity pins: selection and listing output must not drift by
accident.

Refactors of the selection engine promise the same bytes.  These values
were taken from the implementation before selection was rebuilt on one
lowered state; a change that moves any of them changes what macroforge
emits and must say so.  The listing pins were taken from the listing
that rendered every unit on its own, before it shared the rendering of
repeated instructions.
"""

import hashlib

import corpus
from macroforge import asm, disasm, greedy
from macroforge.macros import compact_source
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage

CORPUS = {  # mode -> (objective, macro count, SHA-256 of the image)
    "greedy": (3796, 120,
               "762e884f942ab76f3cdb4540cc59eeb16a1b47ce1dea6dfe65df91e74923e721"),
    "freq": (3796, 120,
             "5252abadf0513e215c46dc89449d40518845ac428350c00209755b03cb1616bd"),
}

# the same for generate_corpus(7, 27000), 27,423 bytes assembled
LARGE_CORPUS = {
    "greedy": (11631, 121,
               "c808b5b3364fce91c6271cab1a97e6e2753b4eadaebbb6851083a02cd95c55f2"),
    "freq": (11631, 121,
             "740147b2e03453409ed5b23ef9290cbf353b51ca89a61e2550129489c4c68143"),
}

# seed -> (objective, macro count) for greedy at 8 and 176 macros, then
# freq at 8 and 176
PROGRAMS = {
    0: [(487, 8), (408, 42), (488, 8), (408, 42)],
    1: [(452, 8), (394, 34), (454, 8), (393, 35)],
    2: [(515, 8), (436, 47), (521, 7), (436, 48)],
    3: [(329, 8), (294, 26), (335, 7), (294, 27)],
    4: [(684, 8), (545, 55), (694, 7), (547, 55)],
    5: [(700, 8), (563, 58), (712, 8), (563, 57)],
    6: [(325, 8), (299, 26), (327, 8), (301, 26)],
    7: [(728, 8), (568, 58), (733, 8), (566, 58)],
    8: [(401, 8), (358, 35), (399, 8), (358, 35)],
    9: [(357, 8), (324, 27), (366, 7), (326, 27)],
}
# SHA-256 over the serialized images, in program_cases() order
PROGRAM_IMAGES = "f2e7cc5e9b428a6c412e06d19047edf34574d70e0e6a4fdf8d8853d9c6492b44"

SLICES = {  # (offset, allow_embed) -> SHA-256 of the raw container
    (0, False): "9d6eb11f4dd407a696bc4b6d62978821971960a2431b1f6295f7c4e370ac0d63",
    (0, True): "c5a7a57db49604cfb5465af619ec45eee3b8885aa2ab961c6197fbb0b180b1f1",
    (2048, False): "fcceaca743c257bc82c6881eedc1ca17ecb61ebb91be9dde29ccfe1295d297cb",
    (2048, True): "ad84877adb55faf681153402ed3b83e154903add63268a5ae77c481e4d1db7da",
    (4096, False): "726c463a9892db68acf7aeb581e33773d698ddcf84d721d45b652fcd92ad4710",
    (4096, True): "d1d743c7db210899839d673572c298c7dc9c42365f72fd9cc105b7cafd11744e",
    (6144, False): "1eaa8dbbefd783cdd417fb131549098763172ef26bb8d5a7f833d2eceeffcdad",
    (6144, True): "01cfb1aaa00026d1b3e0aa47ee6fa380b77f55c09d9b76d0e282815cbb8175a4",
}

# SHA-256 of the listings of generate_corpus(7, 27000): the plain image,
# then greedy and freq at 176 macros, and of render_source of the plain one
LARGE_LISTINGS = {
    "plain": "d34bc790a4e96652c3548f8a5aea8356a0e7dee683d7e01248150d08d41939ca",
    "greedy": "21f08dcd8f0532a300cfd46dfd57a8bb6c7ddbe07bc2b973c69087346f36aa6d",
    "freq": "8dfcd9058c4b4502017e046c4b2703ce04a9d2ba6df839560226b8fd46c662c4",
    "source": "b5e94bcc818cf28249b7dc39aebbc0f20e6ee419e7a18e8e0355e69b0b33b34f",
}
# SHA-256 over generate_program seeds 0-19: per seed the plain listing and
# source, then the listings of greedy and freq at 8, 64 and 176 macros
PROGRAM_LISTINGS = "865d30f4843d1a992856e6e9f8d0e34cd0f394b88c87dea2f54ea60243ac6cb0"


def program_cases():
    for seed in range(10):
        for mode in ("greedy", "freq"):
            for budget in (8, 176):
                yield seed, mode, budget


def sha(data):
    return hashlib.sha256(data).hexdigest()


def check_corpus(text, pins):
    for mode, pinned in pins.items():
        image, info = compact_source(text, mode=mode)
        got = (info["objective"], info["macro_count"], sha(image.serialize()))
        assert got == pinned, mode


def test_corpus_compaction_is_pinned():
    check_corpus(corpus.generate_corpus(2024), CORPUS)


def test_large_corpus_compaction_is_pinned():
    check_corpus(corpus.generate_corpus(7, 27000), LARGE_CORPUS)


def test_program_compaction_is_pinned():
    images = hashlib.sha256()
    got = {}
    for seed, mode, budget in program_cases():
        image, info = compact_source(corpus.generate_program(seed), mode=mode,
                                     max_macros=budget)
        got.setdefault(seed, []).append((info["objective"],
                                         info["macro_count"]))
        images.update(image.serialize())
    assert got == PROGRAMS
    assert images.hexdigest() == PROGRAM_IMAGES


def test_pack_slices_are_pinned():
    code = asm.assemble(corpus.generate_corpus(2024)).code
    got = {}
    for offset, embed in SLICES:
        result = greedy.greedy_select(code[offset:offset + 512], 176, 20,
                                      allow_embed=embed)
        table = [MacroEntry(code=m.code, body=m.body) for m in result.macros]
        got[offset, embed] = sha(ObjectImage(code=result.residual, macros=table,
                                             flags=FLAG_RAW).serialize())
    assert got == SLICES


def listing_sha(image):
    return sha(disasm.render_listing(image).encode())


def test_large_corpus_listings_are_pinned():
    text = corpus.generate_corpus(7, 27000)
    plain = asm.assemble(text)
    got = {"plain": listing_sha(plain)}
    for mode in ("greedy", "freq"):
        got[mode] = listing_sha(compact_source(text, mode=mode)[0])
    got["source"] = sha(disasm.render_source(plain).encode())
    assert got == LARGE_LISTINGS


def test_program_listings_are_pinned():
    listings = hashlib.sha256()
    for seed in range(20):
        text = corpus.generate_program(seed)
        plain = asm.assemble(text)
        listings.update(disasm.render_listing(plain).encode())
        listings.update(disasm.render_source(plain).encode())
        for mode in ("greedy", "freq"):
            for budget in (8, 64, 176):
                image, _ = compact_source(text, mode=mode, max_macros=budget)
                listings.update(disasm.render_listing(image).encode())
    assert listings.hexdigest() == PROGRAM_LISTINGS
