"""Plain repeated squaring, the reference the semi-naive `minplus_closure` is checked against."""
import math

import numpy as np


def dense_square(D):
    """D*D row by row: each row is one broadcast sum and minimum."""
    out = np.empty_like(D)
    for i in range(len(D)):
        out[i] = (D[i][:, None] + D).min(axis=0)
    return out


def reference_closure(values, meter=None):
    """(values, products, negative) of squaring to a fixpoint.

    The diagonal is clamped to min(entry, 0), then the matrix is squared
    densely at most ceil(log2 b) times, stopping at the first product equal
    to its input.  ``negative`` is the position of the first negative
    diagonal entry, on entry or after product ``products``, which is then
    the matrix returned; otherwise None.  Each product charges ``meter``
    b*b work and ceil(log2 b)+1 depth per row.
    """
    b = len(values)
    D = values.copy()
    if b == 0:
        return D, 0, None
    np.fill_diagonal(D, np.minimum(np.diagonal(D).copy(), 0))

    def negative(M):
        bad = np.flatnonzero(np.diagonal(M) < 0)
        return int(bad[0]) if len(bad) else None

    products = 0
    if negative(D) is not None:
        return D, products, negative(D)
    for _ in range(math.ceil(math.log2(b))):
        nxt = dense_square(D)
        products += 1
        if meter is not None:
            depth = math.ceil(math.log2(b)) + 1 if b > 1 else 1
            meter.parallel_region([(b * b, depth)] * b)
        if negative(nxt) is not None:
            return nxt, products, negative(nxt)
        if np.array_equal(nxt, D):
            break
        D = nxt
    return D, products, None
