import numpy as np
import pytest

from hubapsp.generate import negative_cycle_free

# What `poisoned_empty` fills object tables with: no label equals it, and
# adding a weight to it raises.
UNWRITTEN = object()


@pytest.fixture(scope="module")
def hub_corpus():
    """100 negative-cycle-free digraphs with n in 10..25."""
    return [negative_cycle_free(10 + (i % 16), 3.0 / (10 + (i % 16)),
                                -4, 12, seed=44000 + i)
            for i in range(100)]


@pytest.fixture
def poisoned_empty(monkeypatch):
    """Make `np.empty` return tables no computed value can equal.

    Float tables come back NaN, object tables hold `UNWRITTEN`, and integer
    tables their dtype's least value, so reading an entry before writing
    it shows in the result, or raises.
    """
    real = np.empty

    def empty(shape, dtype=float, *args, **kwargs):
        out = real(shape, dtype, *args, **kwargs)
        if out.dtype == object:
            out.fill(UNWRITTEN)
        elif out.dtype.kind == "f":
            out.fill(np.nan)
        elif out.dtype.kind in "iu":
            out.fill(np.iinfo(out.dtype).min)
        return out

    monkeypatch.setattr(np, "empty", empty)
