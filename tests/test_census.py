"""Every nontrivial monotone property on at most 4 labelled elements, checked
against the oracles: q, p_c, the covering dimension, and every row that
``verify`` prints.

A monotone Boolean function on n elements is a pair (f0, f1) of monotone
functions on the first n - 1 with f0 <= f1: f0 where element n - 1 is
absent, f1 where it is present. A function is held as its truth table, an
int whose bit s is f(s).
"""

import pytest

from oracles import brute_pc, naive_dim, naive_q
from upsetkit import cli
from upsetkit.bounds import BoundVariant
from upsetkit.core import UpperSet
from upsetkit.expectation import expectation_threshold
from upsetkit.measure import critical_probability
from upsetkit.structure import covering_dimension

# the number of monotone Boolean functions on n = 0..4 elements (OEIS A000372)
DEDEKIND = [2, 3, 6, 20, 168]


def monotone_tables(n: int) -> list[int]:
    """The truth tables of every monotone Boolean function on n elements."""
    if n == 0:
        return [0, 1]
    lower = monotone_tables(n - 1)
    return [f0 | f1 << (1 << (n - 1)) for f1 in lower for f0 in lower if f0 & ~f1 == 0]


def minimal_members(table: int, n: int) -> list[int]:
    """The members of the function's up-set with no member one element below."""
    def member(s):
        return table >> s & 1

    return [s for s in range(1 << n)
            if member(s) and not any(member(s & ~(1 << x)) for x in range(n) if s >> x & 1)]


def nontrivial(n: int) -> list[list[int]]:
    """The minimals of every monotone function on n elements but the two
    constants."""
    return [minimal_members(t, n) for t in monotone_tables(n) if 0 < t < (1 << (1 << n)) - 1]


def test_dedekind_counts():
    assert [len(monotone_tables(n)) for n in range(5)] == DEDEKIND
    assert sum(len(nontrivial(n)) for n in range(1, 5)) == 189


@pytest.mark.parametrize("n", range(1, 5))
def test_every_property_matches_the_oracles(n):
    for min_bits in nontrivial(n):
        up = UpperSet(n, min_bits)
        assert expectation_threshold(up).q == pytest.approx(naive_q(min_bits), abs=1e-12), min_bits
        assert critical_probability(up).p_c == pytest.approx(brute_pc(min_bits, n), abs=1e-9), min_bits
        assert covering_dimension(up).dim == naive_dim(min_bits, n), min_bits
        rows = cli._instance_checks("census", up, BoundVariant(8.0))
        assert [check for _, check, holds, _ in rows if not holds] == [], min_bits
