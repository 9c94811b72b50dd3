"""Set-based greedy hitting set, the reference the array `greedy_hitting_set` is checked against."""
import math
from typing import AbstractSet, Dict, Sequence


def greedy_hitting_set_sets(paths: Sequence[AbstractSet[int]], n: int) -> set:
    """Pick max-coverage vertices (smallest id on ties) until every set is hit."""
    sets = [frozenset(p) for p in paths]
    if not sets:
        return set()
    covering: Dict[int, set] = {}
    for i, s in enumerate(sets):
        if not s:
            raise ValueError(f"path set {i} is empty")
        for v in s:
            covering.setdefault(v, set()).add(i)
    unhit = len(sets)
    chosen: set = set()
    order = sorted(covering)
    while unhit:
        best = max(order, key=lambda v: (len(covering[v]), -v))
        chosen.add(best)
        for i in list(covering[best]):
            for v in sets[i]:
                if v != best:
                    covering[v].discard(i)
            unhit -= 1
        covering[best].clear()
    s_min = min(len(s) for s in sets)
    bound = math.ceil((n / s_min) * (math.log(len(sets)) + 1))
    assert len(chosen) <= bound, "greedy exceeded its coverage bound"
    return chosen
