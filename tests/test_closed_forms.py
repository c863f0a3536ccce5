"""q, p_c and dim against closed forms on every tribes and cnf instance of
up to 30 elements.

Past 20 elements inclusion-exclusion and the dimension's cover search have
no other independent check. A value is either answered and equal to its
closed form, or refused with SizeLimitExceeded; which values are answered
is pinned, so a loss of reach fails here too.
"""

import math

from oracles import cnf, tribes
from upsetkit.core import UpperSet
from upsetkit.errors import SizeLimitExceeded
from upsetkit.expectation import expectation_threshold
from upsetkit.measure import auto_exact_method, critical_probability
from upsetkit.structure import covering_dimension

MAX_GROUND = 30
MAX_MINIMALS = 4096

QUANTITIES = {
    "q": lambda f: expectation_threshold(f).q,
    "p_c": lambda f: critical_probability(f, 1e-9, auto_exact_method(f)).p_c,
    "dim": lambda f: covering_dimension(f).dim,
}


def _check(build) -> tuple[set, set]:
    """Every (w, m, quantity) with w >= 2, m >= 1, w * m <= MAX_GROUND and
    at most MAX_MINIMALS minimals, and those the library answers. Each
    answer must equal its closed form."""
    every, answered = set(), set()
    for w in range(2, MAX_GROUND + 1):
        for m in range(1, MAX_GROUND // w + 1):
            n, minimals, forms = build(w, m)
            if len(minimals) > MAX_MINIMALS:
                continue
            upper = UpperSet(n, minimals)
            for name, compute in QUANTITIES.items():
                every.add((w, m, name))
                try:
                    got = compute(upper)
                except SizeLimitExceeded:
                    continue
                assert math.isclose(got, forms[name], rel_tol=1e-12), (w, m, name, got)
                answered.add((w, m, name))
    return every, answered


def test_tribes():
    every, answered = _check(tribes)
    assert answered == every


def test_cnf():
    def reach(w, m, name):
        n, count = w * m, w**m
        return {"q": count <= 64, "p_c": n <= 20 or count <= 24, "dim": n <= 20 or count <= 16}[name]

    every, answered = _check(cnf)
    assert answered == {key for key in every if reach(*key)}
