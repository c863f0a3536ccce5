"""Product measure of an upper set and its critical probability.

mu(F, p) is the probability that a p-random subset (each ground element
kept independently with probability p) lies in F. Exact evaluation goes
through instance-level integer profiles computed once and cached:

* enumeration: counts of members of F by cardinality over all 2^n subsets,
  so mu(p) = sum_k N_k p^k (1-p)^(n-k). F is a 2^n-bit set, bit s set iff
  subset s is in F, held as ints of 2^16 bits: one bit per minimal, closed
  upward element by element, then counted level by level against a fixed
  table of slice masks. The first zero bit at the top level that is not
  full is a largest non-member, from which ``structure`` reads the
  covering dimension;
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

numpy is imported by the functions that use it, inclusion-exclusion and
Monte Carlo, so an enumeration runs without loading it.

Memory: enumeration holds the 2^n-bit set twice, as bytes and as slices,
a ~4 MB peak at n = 24 and ~256 MB at the ground cap, n = 30.
Inclusion-exclusion holds about 5 bytes per union term (a uint32 union and
a uint8 parity for each of the 2^|F0| subsets) and counts them in blocks of
2^16 terms, ~6 MB at |F0| = 20 and ~84 MB at 24. The Monte Carlo workers share
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

from .core import UpperSet, bit_indices
from .errors import MissingMcParams, SizeLimitExceeded

# auto_exact_method enumerates ground sets up to this size, and the covering
# dimension is read from the same profile
AUTO_ENUMERATION_CAP = 20
INCLUSION_EXCLUSION_MINIMALS_CAP = 24
# Monte Carlo samples in flight, and drawn at a time, across all workers
# together; each of w workers holds 1/w of both. The cap bounds the thread
# count and keeps each worker's block at 2^14 samples or more.
MC_CHUNK_ROWS = 1 << 16
MC_DRAW_ROWS = 1 << 13
MC_MAX_WORKERS = 4
# the enumeration profile holds its 2^n-bit set in slices of 2^_SLICE_LOG bits
_SLICE_LOG = 16

EXACT_METHODS = ("enumeration", "inclusion_exclusion")


@dataclass(frozen=True)
class MuEstimate:
    value: float
    std_error: float


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


@lru_cache(maxsize=None)
def _slice_masks(width_log: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(LOW, LEVEL) over the positions p < 2^width_log: LOW[i] marks those
    with bit i clear, for i < width_log, and LEVEL[j] those with j bits set,
    for j = 0..width_log. A fixed table; it holds no instance data."""
    if width_log == 0:
        return (), (1,)
    lows, levels = _slice_masks(width_log - 1)
    half = 1 << (width_log - 1)
    # a position in the upper half has bit width_log - 1 set, and one bit
    # more than its twin in the lower half
    return (
        tuple(low | low << half for low in lows) + ((1 << half) - 1,),
        tuple(
            (levels[j] if j < width_log else 0) | (levels[j - 1] << half if j else 0)
            for j in range(width_log + 1)
        ),
    )


@lru_cache(maxsize=1024)
def _enumeration_profile(upper: UpperSet) -> EnumerationProfile:
    """N_k for k = 0..n and a largest non-member, from the up-closure of the
    minimals as a 2^n-bit set: bit s is set iff subset s is in F."""
    n = upper.ground_size
    # The set is held in slices of 2^width_log bits: bit p of slice h is
    # subset h * 2^width_log + p, which has h.bit_count() + p.bit_count()
    # elements.
    width_log = min(n, _SLICE_LOG)
    lows, levels = _slice_masks(width_log)
    buf = bytearray(max(1, (1 << n) >> 3))
    for m in upper.minimal_bits:
        buf[m >> 3] |= 1 << (m & 7)
    step = len(buf) >> (n - width_log)
    # A member without element i puts itself plus i in F. For i below
    # width_log that stays inside the slice; past it, slice h passes its
    # members to slice h + 2^(i - width_log).
    slices = []
    for start in range(0, len(buf), step):
        bits = int.from_bytes(buf[start : start + step], "little")
        if bits:
            for i, low in enumerate(lows):
                bits |= (bits & low) << (1 << i)
        slices.append(bits)
    for i in range(n - width_log):
        for h in range(len(slices)):
            if h >> i & 1:
                slices[h] |= slices[h ^ (1 << i)]
    counts = [0] * (n + 1)
    for h, bits in enumerate(slices):
        base = h.bit_count()
        for j, level in enumerate(levels):
            counts[base + j] += (bits & level).bit_count()
    # The empty set is outside F, so some level is not full. The first zero
    # bit at the top such level is the numerically, and so canonically,
    # smallest of the largest non-members.
    top = max(k for k, c in enumerate(counts) if c < math.comb(n, k))
    for h, bits in enumerate(slices):
        j = top - h.bit_count()
        missing = levels[j] & ~bits if 0 <= j <= width_log else 0
        if missing:
            break
    lowest = (missing & -missing).bit_length() - 1
    return EnumerationProfile(tuple(counts), (h << width_log) | lowest)


@lru_cache(maxsize=1024)
def _inclusion_exclusion_coeffs(upper: UpperSet) -> tuple[int, ...]:
    """c_j with mu(p) = sum_j c_j p^j, from signed union-size counts."""
    m = len(upper.minimal_bits)
    if m > INCLUSION_EXCLUSION_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"inclusion-exclusion needs |F0| <= {INCLUSION_EXCLUSION_MINIMALS_CAP}, got {m}"
        )
    import numpy as np

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
    inclusion-exclusion up to its own cap on minimals. Past both it picks
    none, though enumeration named explicitly takes every ground set that
    ``UpperSet`` accepts."""
    if upper.ground_size <= AUTO_ENUMERATION_CAP:
        return "enumeration"
    if len(upper.minimal_bits) <= INCLUSION_EXCLUSION_MINIMALS_CAP:
        return "inclusion_exclusion"
    raise SizeLimitExceeded(
        f"auto picks no exact method for ground_size {upper.ground_size} > "
        f"{AUTO_ENUMERATION_CAP} and |F0| {len(upper.minimal_bits)} > "
        f"{INCLUSION_EXCLUSION_MINIMALS_CAP}"
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
        if seed < 0:
            raise MissingMcParams(f"seed must be >= 0, got {seed}")
        return _mu_monte_carlo(upper, p, samples, seed)
    value = _exact(upper, method)(p)
    return MuEstimate(min(max(value, 0.0), 1.0), 0.0)


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
    return MuEstimate(value, std_error)


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
    import numpy as np

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
    import numpy as np

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
    ValueError says so. ``bounds.verify_instance`` passes its fixed
    ``CHECK_TOL``; the parameter is kept because perfbench/checks.py passes
    it.
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
    return CriticalProbability(p_c, residual)


def clear_caches() -> None:
    """Drop cached instance profiles (used by determinism tests)."""
    _enumeration_profile.cache_clear()
    _inclusion_exclusion_coeffs.cache_clear()
