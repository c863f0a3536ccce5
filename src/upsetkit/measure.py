"""Product measure of an upper set and its critical probability.

mu(F, p) is the probability that a p-random subset (each ground element
kept independently with probability p) lies in F. Exact evaluation goes
through instance-level integer profiles computed once and cached:

* enumeration: counts of members of F by cardinality over all 2^n subsets,
  so mu(p) = sum_k N_k p^k (1-p)^(n-k). The same pass keeps a largest
  non-member, from which ``structure`` reads the covering dimension;
* inclusion_exclusion: signed integer coefficients c_j over unions of
  minimal-element subsets, so mu(p) = sum_j c_j p^j. Grouping the 2^|F0|
  signed terms by union size keeps the cancellation in exact integers.

Both evaluate with a fixed summation order (ascending exponent, fsum), so
results are reproducible bit for bit. Monte Carlo uses numpy's PCG64
generator on up to one thread per CPU the process may use (its affinity,
capped by a cgroup v2 CPU quota, and at most ``MC_MAX_WORKERS``). Each
thread takes a contiguous span of the samples and advances its own copy of
the seeded stream to the span's first draw, so identical (seed, samples)
gives identical estimates, whatever the thread count and timing.

Memory: inclusion-exclusion holds about 5 bytes per union term (a uint32
union and a uint8 parity for each of the 2^|F0| subsets) and counts them in
blocks of 2^16 terms, ~6 MB at |F0| = 20. The Monte Carlo workers share
``n * (MC_CHUNK_ROWS + 9 * MC_DRAW_ROWS) + 2 * MC_CHUNK_ROWS`` bytes, each
holding 1/workers of them: bool blocks of ``MC_CHUNK_ROWS`` samples in all,
filled ``MC_DRAW_ROWS`` draws at a time through float buffers and their bool
comparison, and two rows of words each for the hit test. That is ~2.2 MB at
n = 15, whatever the sample count and the worker count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import UpperSet, bit_indices
from .errors import MissingMcParams, SizeLimitExceeded

ENUMERATION_GROUND_CAP = 24
# auto_exact_method enumerates ground sets up to this size, and the covering
# dimension is read from the same profile
AUTO_ENUMERATION_CAP = 20
# past AUTO_ENUMERATION_CAP, auto_exact_method takes inclusion-exclusion up
# to this many minimals
AUTO_INCLUSION_EXCLUSION_CAP = 20
INCLUSION_EXCLUSION_MINIMALS_CAP = 24
# Monte Carlo samples in flight, and drawn at a time, across all workers
# together; each of w workers holds 1/w of both. The cap bounds the thread
# count and keeps each worker's block at 2^14 samples or more.
MC_CHUNK_ROWS = 1 << 16
MC_DRAW_ROWS = 1 << 13
MC_MAX_WORKERS = 4

EXACT_METHODS = ("enumeration", "inclusion_exclusion")


@dataclass(frozen=True)
class MuEstimate:
    value: float
    std_error: float
    method: str
    samples: int


@dataclass(frozen=True)
class EnumerationProfile:
    """``counts[k]`` is N_k, the number of members of F with k elements;
    ``largest_non_member`` is the canonically smallest of the largest
    subsets outside F (the empty set when F holds every nonempty subset)."""

    counts: tuple[int, ...]
    largest_non_member: int


@dataclass(frozen=True)
class CriticalProbability:
    p_c: float
    residual: float
    tolerance: float


@lru_cache(maxsize=1024)
def _enumeration_profile(upper: UpperSet) -> EnumerationProfile:
    """N_k for k = 0..n and a largest non-member, from one pass over all 2^n
    subsets."""
    n = upper.ground_size
    if n > ENUMERATION_GROUND_CAP:
        raise SizeLimitExceeded(
            f"enumeration needs ground_size <= {ENUMERATION_GROUND_CAP}, got {n}"
        )
    subs = np.arange(1 << n, dtype=np.uint32)
    member = np.zeros(1 << n, dtype=bool)
    for m in upper.minimal_bits:
        mm = np.uint32(m)
        member |= (subs & mm) == mm
    sizes = np.bitwise_count(subs)
    counts = np.bincount(sizes[member], minlength=n + 1)
    # Members are nonempty, so zeroing their sizes ties them with the empty
    # set at index 0, a non-member; argmax then takes the first, i.e. the
    # numerically and so canonically smallest, among the largest non-members.
    sizes[member] = 0
    return EnumerationProfile(tuple(int(c) for c in counts), int(np.argmax(sizes)))


@lru_cache(maxsize=1024)
def _inclusion_exclusion_coeffs(upper: UpperSet) -> tuple[int, ...]:
    """c_j with mu(p) = sum_j c_j p^j, from signed union-size counts."""
    m = len(upper.minimal_bits)
    if m > INCLUSION_EXCLUSION_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"inclusion-exclusion needs |F0| <= {INCLUSION_EXCLUSION_MINIMALS_CAP}, got {m}"
        )
    n = upper.ground_size
    # Doubling: subset j + 2^i of the minimals is subset j plus minimal i, so
    # its union is ORed with minimal i and its parity flips.
    unions = np.zeros(1 << m, dtype=np.uint32)
    parity = np.zeros(1 << m, dtype=np.uint8)
    for i, bits in enumerate(upper.minimal_bits):
        lo, hi = slice(0, 1 << i), slice(1 << i, 1 << (i + 1))
        np.bitwise_or(unions[lo], np.uint32(bits), out=unions[hi])
        np.bitwise_xor(parity[lo], 1, out=parity[hi])
    # counts[2k + 1] and counts[2k] tally odd and even subsets of union size k
    counts = np.zeros(2 * n + 2, dtype=np.int64)
    block = 1 << 16
    for start in range(0, 1 << m, block):
        key = np.bitwise_count(unions[start : start + block])
        key <<= 1
        key |= parity[start : start + block]
        counts += np.bincount(key, minlength=2 * n + 2)
    counts[0] -= 1  # the empty subset is not a term
    return tuple(int(c) for c in counts[1::2] - counts[0::2])


def _eval_enumeration(profile: tuple[int, ...], n: int, p: float) -> float:
    q = 1.0 - p
    return math.fsum(c * p**k * q ** (n - k) for k, c in enumerate(profile) if c)


def _eval_inclusion_exclusion(coeffs: tuple[int, ...], p: float) -> float:
    return math.fsum(c * p**j for j, c in enumerate(coeffs) if c)


def auto_exact_method(upper: UpperSet) -> str:
    """Pick the exact measure engine: enumerate small grounds, otherwise
    inclusion-exclusion over few minimals."""
    if upper.ground_size <= AUTO_ENUMERATION_CAP:
        return "enumeration"
    if len(upper.minimal_bits) <= AUTO_INCLUSION_EXCLUSION_CAP:
        return "inclusion_exclusion"
    raise SizeLimitExceeded(
        f"no exact method: ground_size {upper.ground_size} > {AUTO_ENUMERATION_CAP} "
        f"and |F0| {len(upper.minimal_bits)} > {AUTO_INCLUSION_EXCLUSION_CAP}"
    )


def _exact(upper: UpperSet, method: str) -> Callable[[float], float]:
    """p -> mu_p(F) by an exact method, from the instance's cached profile."""
    if method == "enumeration":
        profile = _enumeration_profile(upper).counts
        n = upper.ground_size
        return lambda p: _eval_enumeration(profile, n, p)
    if method == "inclusion_exclusion":
        coeffs = _inclusion_exclusion_coeffs(upper)
        return lambda p: _eval_inclusion_exclusion(coeffs, p)
    raise ValueError(f"{method!r} is not an exact method; expected one of {EXACT_METHODS}")


def mu(
    upper: UpperSet,
    p: float,
    method: str = "enumeration",
    *,
    samples: int | None = None,
    seed: int | None = None,
) -> MuEstimate:
    """Measure of F under the p-biased product measure.

    Exact methods return std_error 0; monte_carlo reports the hit fraction
    over ``samples`` seeded draws with its binomial standard error.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if method == "monte_carlo":
        if samples is None or seed is None:
            raise MissingMcParams("monte_carlo needs samples and seed")
        if samples < 1:
            raise MissingMcParams(f"samples must be >= 1, got {samples}")
        return _mu_monte_carlo(upper, p, samples, seed)
    value = _exact(upper, method)(p)
    return MuEstimate(min(max(value, 0.0), 1.0), 0.0, method, 0)


def _usable_cpus() -> int:
    """CPUs the process may run on, capped by its cgroup v2 CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        quota, period = _cgroup_cpu_max().split()
        return min(cpus, -(-int(quota) // int(period)))
    except (OSError, ValueError):  # no readable quota, or "max": no limit
        return cpus


def _cgroup_cpu_max() -> str:
    """The cgroup v2 CPU limit, "<quota> <period>" or "max <period>"."""
    with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
        return fh.read()


def _mu_monte_carlo(upper: UpperSet, p: float, samples: int, seed: int) -> MuEstimate:
    # Worker i takes the samples [i * samples // workers, ...), and the
    # calling thread runs span 0. The hit count is a sum of integers, so it
    # is the same for any worker count and any timing.
    n = upper.ground_size
    columns = [tuple(bit_indices(m)) for m in upper.minimal_bits]
    workers = min(_usable_cpus(), MC_MAX_WORKERS, -(-samples // MC_CHUNK_ROWS))
    edges = [i * samples // workers for i in range(workers + 1)]
    rows = MC_CHUNK_ROWS // workers
    draw = MC_DRAW_ROWS // workers
    # Made here rather than in the workers: memory a thread allocates stays
    # in its own malloc arena, which raised the peak RSS.
    spans = [
        _mc_span(n, seed, edges[i], min(rows, edges[i + 1] - edges[i]), draw)
        for i in range(workers)
    ]

    def hits(i: int) -> int:
        return _mc_span_hits(columns, p, edges[i + 1] - edges[i], spans[i])

    # Imported here, not at the top: concurrent.futures loads logging,
    # 0.6 MB of RSS that commands which never sample would carry. The pool
    # starts a thread per submitted span only, and leaving the block joins
    # them, whichever span raised.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        others = [pool.submit(hits, i) for i in range(1, workers)]
        total = hits(0) + sum(f.result() for f in others)
    value = total / samples
    std_error = math.sqrt(value * (1.0 - value) / samples)
    return MuEstimate(value, std_error, "monte_carlo", samples)


def _mc_span(n: int, seed: int, first: int, rows: int, draw: int) -> tuple:
    """What one worker needs to test blocks of ``rows`` samples, drawn
    ``draw`` samples at a time, from sample ``first`` on: the seeded stream
    at that sample's first draw, a float buffer for the draws and one for
    their comparison, the bool block with one row per element padded to
    whole uint64 words, and two rows of words for the hit test.

    PCG64 fills arrays row-major and one double takes one 64-bit step, so
    after ``first * n`` steps the stream yields exactly the draws that one
    (samples, n) array holds from row ``first`` on.
    """
    width = -(-rows // 8) * 8
    return (
        np.random.Generator(np.random.PCG64(seed).advance(first * n)),
        np.empty((min(width, draw), n)),
        np.empty((min(width, draw), n), dtype=bool),
        np.empty((n, width), dtype=bool),
        np.empty(width // 8, dtype=np.uint64),
        np.empty(width // 8, dtype=np.uint64),
    )


def _mc_span_hits(columns: list[tuple[int, ...]], p: float, samples: int, span: tuple) -> int:
    """Hits among the next ``samples`` samples of a span's stream. Each block
    is transposed into one bool row per element, padded with False, so one
    word op tests 8 samples at once."""
    rng, floats, less, block, hits, term = span
    words = block.view(np.uint64)
    width = block.shape[1]
    total = 0
    for start in range(0, samples, width):
        rows = min(width, samples - start)
        for r in range(0, rows, len(floats)):
            k = min(len(floats), rows - r)
            rng.random(out=floats[:k])
            np.less(floats[:k], p, out=less[:k])
            block[:, r : r + k] = less[:k].T
        block[:, rows:] = False
        hits[:] = 0
        for idx in columns:
            term[:] = words[idx[0]]
            for i in idx[1:]:
                term &= words[i]
            hits |= term
        total += int(np.count_nonzero(hits.view(bool)))
    return total


def _interpolation_step(a: float, fa: float, b: float, fb: float, c: float, fc: float) -> float:
    """The step from b to where the inverse quadratic through (a, fa),
    (b, fb) and (c, fc) meets f = 0, in Newton's divided differences of p
    as a function of f; the secant step through a and b when fa == fc."""
    slope = (b - a) / (fb - fa)
    if fa == fc:
        return -fb * slope
    curvature = (slope - (a - c) / (fa - fc)) / (fb - fc)
    return -fb * (slope - fa * curvature)


def critical_probability(
    upper: UpperSet,
    tol: float = 1e-9,
    method: str = "enumeration",
) -> CriticalProbability:
    """The unique p with mu_p(F) = 1/2, located by Brent's method.

    mu_p is strictly increasing in p for a nontrivial upper set, so
    mu - 1/2 changes sign exactly once on [0, 1], where it is -1/2 and
    +1/2. Inverse quadratic and secant steps shrink that sign-change
    bracket, with a midpoint whenever a step would leave it or fails to
    halve the step before last, until its ends are adjacent floats (or
    mu = 1/2 exactly). p_c is the evaluated point with the smallest
    residual |mu - 1/2|, so it is the root to float resolution whatever
    tol is. If that residual is above tol, no float meets tol, and
    ValueError says so.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    evaluate = _exact(upper, method)
    # Brent's bookkeeping: b is the newest point, c the other end of the
    # bracket, a the point before b; b is kept the end with the smaller
    # |f|. step is the last step and last the one before it.
    a, fa = 0.0, -0.5
    b, fb = 1.0, 0.5
    c, fc = a, fa
    step = last = b - a
    p_c, residual = math.nan, math.inf
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        if math.nextafter(b, c) == c:
            break
        half = 0.5 * (c - b)
        guess = _interpolation_step(a, fa, b, fb, c, fc) if abs(fa) > abs(fb) else 0.0
        # an interpolated step must point into the bracket, end short of
        # 3/4 of the way to c and halve the step before last
        if 0 < guess / half < 1.5 and abs(guess) < 0.5 * abs(last):
            last, step = step, guess
        else:
            last = step = half
        a, fa = b, fb
        b += step
        if b == a or b == c:  # the step rounded onto an end of the bracket
            b = math.nextafter(a, c)
        fb = evaluate(b) - 0.5
        if abs(fb) < residual:
            p_c, residual = b, abs(fb)
        if fb == 0:
            break
        if (fb > 0) == (fc > 0):  # the sign changes between a and b
            c, fc = a, fa
            step = last = b - a
    if residual > tol:
        lo, hi = sorted((b, c))
        raise ValueError(
            f"tol {tol:g} is finer than floats resolve: mu - 1/2 changes sign between the "
            f"adjacent floats {lo!r} and {hi!r}, with residual {residual:.3e}"
        )
    return CriticalProbability(p_c, residual, tol)


def clear_caches() -> None:
    """Drop cached instance profiles (used by determinism tests)."""
    _enumeration_profile.cache_clear()
    _inclusion_exclusion_coeffs.cache_clear()
