import pytest

import corpus
import oracles
from macroforge import asm


def test_corpus_refuses_sizes_that_reach_the_data_block():
    with pytest.raises(ValueError, match="data block"):
        corpus.generate_corpus(0, 0x7000)
    with pytest.raises(ValueError, match="data block"):
        corpus.generate_corpus(0, corpus.MAX_CODE_BYTES)


def test_corpus_stops_where_the_whole_program_loop_stops():
    # chunk sizes are summed, not measured on the whole program
    for seed, min_bytes in ((0, 1), (3, 500), (11, 1000), (2024, 2500),
                            (5, 4000)):
        text = corpus.generate_corpus(seed, min_bytes)
        assert text == oracles.generate_corpus(seed, min_bytes)
        assert len(asm.assemble(text).code) >= min_bytes


def test_corpus_refuses_a_program_that_grows_into_the_data_block():
    # the last 60 steps carry the code from below the limit past it
    with pytest.raises(ValueError, match="reach the data block"):
        corpus.generate_corpus(1, corpus.MAX_CODE_BYTES - 1)
