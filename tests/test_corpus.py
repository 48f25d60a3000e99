import pytest

from macroforge import corpus


def test_corpus_refuses_sizes_that_reach_the_data_block():
    with pytest.raises(ValueError, match="data block"):
        corpus.generate_corpus(0, 0x7000)
    with pytest.raises(ValueError, match="data block"):
        corpus.generate_corpus(0, corpus.MAX_CODE_BYTES)
