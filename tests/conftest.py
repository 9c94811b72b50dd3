import pytest

from hubapsp.generate import negative_cycle_free


@pytest.fixture(scope="module")
def hub_corpus():
    """100 negative-cycle-free digraphs with n in 10..25."""
    return [negative_cycle_free(10 + (i % 16), 3.0 / (10 + (i % 16)),
                                -4, 12, seed=44000 + i)
            for i in range(100)]
