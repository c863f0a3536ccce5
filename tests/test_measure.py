import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_mu,
    brute_pc,
    coeffs_from_profile,
    coeffs_sign,
    connectivity_profile,
    exact_root_bracket,
    k_n_edges,
    member_counts,
    per_minimal_profile,
    profile_sign,
    signed_union_counts,
)
from test_core import upper_sets
import upsetkit
from upsetkit import bounds, critical_probability, graph_connectivity, measure, mu
from upsetkit.core import UpperSet
from upsetkit.errors import MissingMcParams, OutOfRange, SizeLimitExceeded, TrivialUpperSet
from upsetkit.families import FAMILIES, builtin_battery, make_family_instance
from upsetkit.measure import (
    EXACT_METHODS,
    MC_CHUNK_ROWS,
    MC_DRAW_ROWS,
    _enumeration_profile,
    _inclusion_exclusion_coeffs,
    _mc_span,
    _mc_span_hits,
    _mu_monte_carlo,
)

K4_CONNECTIVITY_PC = 0.45110975209937987  # frozen from the union-find oracle

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def one_array_hits(up, p, samples, seed):
    """Hits over one (samples, n) draw, sample by sample: the reference
    for the chunked, word-parallel kernel."""
    n = up.ground_size
    draws = np.random.Generator(np.random.PCG64(seed)).random((samples, n)) < p
    hits = np.zeros(samples, dtype=bool)
    for m in up.minimal_bits:
        hits |= draws[:, [x for x in range(n) if m >> x & 1]].all(axis=1)
    return int(hits.sum())


@st.composite
def mc_instances(draw):
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["random", "singleton", "full"]))
    if shape == "singleton":
        return UpperSet(n, [1 << draw(st.integers(0, n - 1))])
    if shape == "full":
        return UpperSet(n, [(1 << n) - 1])
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    return UpperSet(n, gens)


@st.composite
def span_splits(draw):
    """A sample count, the edges of nonempty spans covering [0, samples),
    and a span's block and draw sizes, none of them aligned to 8."""
    samples = draw(st.integers(1, 3000))
    cuts = draw(st.sets(st.integers(0, samples), max_size=4))
    rows = draw(st.sampled_from([1, 7, 8, 9, 100, 1000, 4096]))
    return samples, sorted(cuts | {0, samples}), rows, draw(st.sampled_from([1, 3, 8, 50, 4096]))


def force_cpus(monkeypatch, count, cpu_max="max 100000"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(measure, "_cgroup_cpu_max", lambda: cpu_max)


class TestMuExact:
    def test_principal_pair(self):
        up = UpperSet(4, [0b0011])
        assert mu(up, 0.5).value == pytest.approx(0.25, abs=1e-15)

    def test_k3_connectivity_half(self):
        up = graph_connectivity(3)
        est = mu(up, 0.5)
        assert est.value == pytest.approx(0.5, abs=1e-15)
        # analytic form 3p^2 - 2p^3 against the brute-force oracle
        for p in P_GRID:
            expected = brute_mu(list(up.minimal_bits), 3, p)
            assert expected == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-12)
            assert mu(up, p).value == pytest.approx(expected, abs=1e-12)

    @given(upper_sets(max_ground=8))
    @settings(max_examples=60)
    def test_full_set_certain(self, up):
        assert mu(up, 1.0).value == 1.0
        assert mu(up, 0.0).value == 0.0

    @given(upper_sets(max_ground=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, up):
        bits = list(up.minimal_bits)
        for p in (0.2, 0.6):
            expected = brute_mu(bits, up.ground_size, p)
            assert mu(up, p, "enumeration").value == pytest.approx(expected, abs=1e-12)

    @given(upper_sets(max_ground=10))
    @settings(max_examples=60, deadline=None)
    def test_method_agreement(self, up):
        for p in P_GRID:
            a = mu(up, p, "enumeration").value
            b = mu(up, p, "inclusion_exclusion").value
            assert abs(a - b) <= 1e-12

    @given(upper_sets(max_ground=10), st.integers(0, 1_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_p(self, up, step):
        p1 = step / 1001.0
        p2 = p1 + 1.0 / 1001.0
        assert mu(up, p1).value <= mu(up, p2).value + 1e-12

    @given(upper_sets(max_ground=10))
    @settings(max_examples=60, deadline=None)
    def test_largest_non_member(self, up):
        n, bits = up.ground_size, up.minimal_bits
        profile = _enumeration_profile(up)
        outside = [s for s in range(1 << n) if not any(m & s == m for m in bits)]
        top = max(s.bit_count() for s in outside)
        assert profile.largest_non_member == min(s for s in outside if s.bit_count() == top)
        assert top == max(k for k, c in enumerate(profile.counts) if c < math.comb(n, k))

    def test_enumeration_cap(self):
        up = UpperSet(25, [1])
        with pytest.raises(SizeLimitExceeded):
            mu(up, 0.5, "enumeration")

    def test_inclusion_exclusion_cap(self):
        up = UpperSet(26, [1 << i for i in range(25)])
        with pytest.raises(SizeLimitExceeded):
            mu(up, 0.5, "inclusion_exclusion")

    def test_unknown_method(self):
        up = UpperSet(3, [1])
        with pytest.raises(ValueError):
            mu(up, 0.5, "guesswork")


def oracle_profile(up):
    return per_minimal_profile(list(up.minimal_bits), up.ground_size)


def kernel_profile(up):
    profile = _enumeration_profile(up)
    return profile.counts, profile.largest_non_member


def family_instances(max_ground):
    """Every FAMILIES instance on at most ``max_ground`` elements."""
    out = []
    for name in FAMILIES:
        for n in range(1, max_ground + 1):
            try:
                up = make_family_instance(name, n)
            except (OutOfRange, TrivialUpperSet, SizeLimitExceeded):
                continue
            if up.ground_size <= max_ground:
                out.append(up)
    return out


@st.composite
def wide_antichains(draw, min_ground, max_ground, max_gens):
    n = draw(st.integers(min_ground, max_ground))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens))
    return UpperSet(n, gens)


class TestEnumerationProfile:
    """The slice kernel against the per-minimal oracle, brute force,
    inclusion-exclusion and closed forms."""

    def test_battery_matches_oracle(self):
        for name, up in builtin_battery():
            assert kernel_profile(up) == oracle_profile(up), name

    def test_families_match_oracle(self):
        instances = family_instances(20)
        assert {up.ground_size for up in instances} >= {2, 3, 6, 10, 15, 20}
        for up in instances:
            assert kernel_profile(up) == oracle_profile(up), up.minimal_bits[:4]

    @pytest.mark.parametrize("k", range(1, 21))
    def test_principal_matches_oracle(self, k):
        up = make_family_instance("principal", k)
        assert kernel_profile(up) == oracle_profile(up)

    # n < 3 fits in under one byte, n = 16 is one 2^16-bit slice and n = 17-18
    # spans several; UpperSet(18, [1]) has its largest non-member in slice 3
    @given(wide_antichains(1, 18, 10))
    @example(UpperSet(1, [1]))
    @example(UpperSet(2, [1, 2]))
    @example(UpperSet(2, [3]))
    @example(UpperSet(16, [0b11 << 14, 1 << 3]))
    @example(UpperSet(17, [1 << 16, 0b101]))
    @example(UpperSet(18, [1]))
    @settings(max_examples=60, deadline=None)
    def test_random_antichains_match_brute_force(self, up):
        n, bits = up.ground_size, up.minimal_bits
        counts, largest = kernel_profile(up)
        assert (counts, largest) == oracle_profile(up)
        if n <= 10:
            outside = [s for s in range(1 << n) if not any(m & s == m for m in bits)]
            top = max(s.bit_count() for s in outside)
            assert largest == min(s for s in outside if s.bit_count() == top)

    @given(wide_antichains(21, 24, 12))
    @example(UpperSet(24, [0b111 << i for i in range(0, 22, 2)] + [1 << 23]))
    @settings(max_examples=8, deadline=None)
    def test_past_auto_cap_matches_inclusion_exclusion(self, up):
        n = up.ground_size
        profile = _enumeration_profile(up)
        assert coeffs_from_profile(profile.counts, n) == _inclusion_exclusion_coeffs(up)

    def test_connectivity_7_closed_forms(self):
        up = graph_connectivity(7)
        profile = _enumeration_profile(up)
        counts = profile.counts
        assert sum(counts) == 1_866_256  # connected labeled graphs on 7 vertices, OEIS A001187
        assert counts[6] == 7**5  # spanning trees, Cayley
        assert counts[:6] == (0,) * 6
        # a disconnected graph on 15 edges is K_6 plus one of 7 isolated
        # vertices, and every graph on more edges is connected
        assert counts[15] == math.comb(21, 15) - 7
        assert counts[16:] == tuple(math.comb(21, k) for k in range(16, 22))
        # K_6 on vertices 0..5 plus an isolated vertex 6: the edges of
        # vertex 6 come last in the numbering, so this is the smallest mask
        k6 = sum(1 << i for i, (u, v) in enumerate(k_n_edges(7)) if v < 6)
        assert profile.largest_non_member == k6
        assert k6.bit_count() == 15

    def test_traced_peak_bounded(self):
        up = UpperSet(24, [0b1111 << i for i in range(0, 21, 3)])
        _enumeration_profile.cache_clear()
        tracemalloc.start()
        try:
            _enumeration_profile(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000


class TestNumpyOffTheExactPath:
    SCRIPT = """
import contextlib, io, sys
from upsetkit.cli import main
for extra in ([], ["--method", "ie"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["compute", "--instance", sys.argv[1], *extra])
    print(code, "numpy" in sys.modules)
"""

    def test_compute_runs_without_numpy(self, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(graph_connectivity(4).to_instance_json())
        src = os.path.dirname(os.path.dirname(upsetkit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        # enumeration leaves numpy unloaded; inclusion-exclusion loads it
        assert done.stdout.splitlines() == ["0 False", "0 True"]


class TestAutoExactMethod:
    def test_enumerates_up_to_the_cap(self):
        up = UpperSet(20, [1 << i for i in range(20)])
        assert measure.auto_exact_method(up) == "enumeration"

    def test_inclusion_exclusion_past_the_ground_cap(self):
        up = UpperSet(21, [1 << i for i in range(20)])
        assert measure.auto_exact_method(up) == "inclusion_exclusion"

    def test_no_exact_method_past_both_caps(self):
        up = UpperSet(25, [1 << i for i in range(25)])
        with pytest.raises(SizeLimitExceeded) as exc:
            measure.auto_exact_method(up)
        assert str(exc.value) == (
            "auto picks no exact method for ground_size 25 > 20 and |F0| 25 > 24; named "
            "explicitly, enumeration takes ground_size <= 24"
        )

    def test_bounds_reexports_it(self):
        assert bounds.auto_exact_method is measure.auto_exact_method


class TestMuMonteCarlo:
    def test_missing_params(self):
        up = UpperSet(3, [1])
        with pytest.raises(MissingMcParams):
            mu(up, 0.5, "monte_carlo")
        with pytest.raises(MissingMcParams):
            mu(up, 0.5, "monte_carlo", samples=100)
        with pytest.raises(MissingMcParams):
            mu(up, 0.5, "monte_carlo", samples=0, seed=1)

    def test_negative_seed(self):
        # checked before numpy, which would name neither argument nor function
        with pytest.raises(MissingMcParams, match=r"^seed must be >= 0, got -1$"):
            mu(graph_connectivity(3), 0.5, "monte_carlo", samples=10, seed=-1)

    def test_seed_determinism(self):
        up = graph_connectivity(3)
        a = mu(up, 0.4, "monte_carlo", samples=5000, seed=99)
        b = mu(up, 0.4, "monte_carlo", samples=5000, seed=99)
        assert a == b
        c = mu(up, 0.4, "monte_carlo", samples=5000, seed=100)
        assert a.value != c.value  # astronomically unlikely to collide

    def test_within_four_sigma_of_exact(self):
        up = graph_connectivity(3)
        exact = mu(up, 0.5).value
        est = mu(up, 0.5, "monte_carlo", samples=100_000, seed=7)
        assert abs(est.value - exact) <= 4 * est.std_error

    def test_chunked_draws_match_one_array(self):
        # several full chunks plus a ragged last one
        up = UpperSet(5, [0b00011, 0b01100, 0b10101])
        samples = 3 * MC_CHUNK_ROWS + 1234
        est = mu(up, 0.45, "monte_carlo", samples=samples, seed=2024)
        value = one_array_hits(up, 0.45, samples, 2024) / samples
        assert est.value == value
        assert est.std_error == math.sqrt(value * (1.0 - value) / samples)

    @given(
        mc_instances(),
        st.sampled_from(
            [1, 7, 8, 9, MC_CHUNK_ROWS - 1, MC_CHUNK_ROWS, MC_CHUNK_ROWS + 1]
        ),
        st.sampled_from([0.0, 1.0, 0.37]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_parallel_matches_one_array(self, up, samples, p, seed):
        # padding lanes past the last sample must never count as hits
        est = _mu_monte_carlo(up, p, samples, seed)
        assert est.value == one_array_hits(up, p, samples, seed) / samples
        if p in (0.0, 1.0):
            assert est.value == p

    @given(mc_instances(), span_splits(), st.sampled_from([0.0, 1.0, 0.37]),
           st.integers(0, 2**32 - 1))
    @example(
        UpperSet(5, [0b00011, 0b01100, 0b10101]),
        (2 * MC_CHUNK_ROWS + 9, [0, 7, MC_CHUNK_ROWS, MC_CHUNK_ROWS + 1, 2 * MC_CHUNK_ROWS + 9],
         MC_CHUNK_ROWS // 3, MC_DRAW_ROWS // 3),
        0.37,
        2024,
    )
    @settings(max_examples=60, deadline=None)
    def test_spans_sum_to_one_array(self, up, split, p, seed):
        # each span starts its own stream at an offset; spans, blocks and
        # draws need not align to a word of 8 samples or to each other
        samples, edges, rows, draw = split
        columns = [m.indices() for m in up.minimals]
        n = up.ground_size
        total = sum(
            _mc_span_hits(columns, p, b - a, _mc_span(n, seed, a, min(rows, b - a), draw))
            for a, b in zip(edges, edges[1:])
        )
        assert total == one_array_hits(up, p, samples, seed)

    def test_worker_count_does_not_change_estimate(self, monkeypatch):
        up = UpperSet(5, [0b00011, 0b01100, 0b10101])
        samples = 3 * MC_CHUNK_ROWS + 1234  # room for MC_MAX_WORKERS workers
        expected = one_array_hits(up, 0.45, samples, 2024) / samples
        interval = sys.getswitchinterval()
        for count in (1, 2, 3, 8):
            force_cpus(monkeypatch, count)
            tracemalloc.start()
            sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
            try:
                est = _mu_monte_carlo(up, 0.45, samples, 2024)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                sys.setswitchinterval(interval)
                tracemalloc.stop()
            assert est.value == expected
            assert peak <= 4_000_000

    @pytest.mark.parametrize("cpus, samples", [(8, MC_CHUNK_ROWS), (8, 1), (1, 3 * MC_CHUNK_ROWS)])
    def test_inline_without_threads(self, monkeypatch, cpus, samples):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        up = UpperSet(5, [0b00011, 0b01100, 0b10101])
        force_cpus(monkeypatch, cpus)
        monkeypatch.setattr(threading, "Thread", no_thread)
        est = _mu_monte_carlo(up, 0.45, samples, 2024)
        assert est.value == one_array_hits(up, 0.45, samples, 2024) / samples

    def test_worker_error_reaches_caller(self, monkeypatch):
        # a lost span would otherwise count as 0 hits
        def fail_in_worker(columns, p, samples, span):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("span")
            return 0

        force_cpus(monkeypatch, 2)
        monkeypatch.setattr(measure, "_mc_span_hits", fail_in_worker)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError):
            _mu_monte_carlo(UpperSet(3, [1]), 0.5, 2 * MC_CHUNK_ROWS, 1)
        assert set(threading.enumerate()) == before

    def test_inline_error_joins_workers(self, monkeypatch):
        # span 0 fails in the calling thread while the other spans still run;
        # the error comes out only once they have finished
        finished = []

        def fail_inline(columns, p, samples, span):
            if threading.current_thread() is threading.main_thread():
                raise MemoryError("span 0")
            time.sleep(0.05)
            finished.append(samples)
            return 0

        force_cpus(monkeypatch, 4)
        monkeypatch.setattr(measure, "_mc_span_hits", fail_inline)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError, match="span 0"):
            _mu_monte_carlo(UpperSet(3, [1]), 0.5, 4 * MC_CHUNK_ROWS, 1)
        assert len(finished) == 3
        assert set(threading.enumerate()) == before

    def test_traced_peak_bounded(self):
        # numpy reports its buffers to tracemalloc; one (samples, n) draw
        # would take 2e6 * 15 * 9 bytes
        up = make_family_instance("triangle", 6)
        tracemalloc.start()
        try:
            _mu_monte_carlo(up, 0.3, 2_000_000, 20240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

    @pytest.mark.parametrize("cpus", [4, 8, 64])
    def test_traced_peak_bounded_any_cpu_count(self, monkeypatch, cpus):
        # the workers share one block budget, so more CPUs add no memory
        force_cpus(monkeypatch, cpus)
        self.test_traced_peak_bounded()

    def test_usable_cpus(self):
        assert measure._usable_cpus() >= 1

    @pytest.mark.parametrize("cpu_max, usable", [
        ("200000 100000\n", 2), ("150000 100000\n", 2), ("50000 100000\n", 1),
        ("800000 100000\n", 4), ("max 100000\n", 4),
    ])
    def test_usable_cpus_honours_cgroup_quota(self, monkeypatch, cpu_max, usable):
        force_cpus(monkeypatch, 4, cpu_max)
        assert measure._usable_cpus() == usable

    @pytest.mark.parametrize("error", [FileNotFoundError, PermissionError])
    def test_usable_cpus_without_readable_quota(self, monkeypatch, error):
        def unreadable():
            raise error("cpu.max")

        force_cpus(monkeypatch, 4)
        monkeypatch.setattr(measure, "_cgroup_cpu_max", unreadable)
        assert measure._usable_cpus() == 4


@st.composite
def same_size_antichains(draw):
    """Up to 12 distinct masks of one popcount: an antichain as drawn."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    pool = [b for b in range(1 << n) if b.bit_count() == k]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return UpperSet(n, gens)


class TestInclusionExclusion:
    @given(st.one_of(upper_sets(max_ground=12, max_gens=12), same_size_antichains()))
    @example(UpperSet(12, [0b111 << i for i in range(10)] + [0b1011, 0b10101]))
    @settings(max_examples=60, deadline=None)
    def test_matches_signed_union_counts(self, up):
        expected = signed_union_counts(list(up.minimal_bits), up.ground_size)
        assert _inclusion_exclusion_coeffs(up) == expected

    def test_traced_peak_bounded(self):
        up = make_family_instance("triangle", 6)  # 20 minimals: 2^20 union terms
        _inclusion_exclusion_coeffs.cache_clear()
        tracemalloc.start()
        try:
            _inclusion_exclusion_coeffs(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9_000_000


class TestCriticalProbability:
    def test_principal_cube_root(self):
        up = UpperSet(5, [0b00111])
        res = critical_probability(up)
        assert res.p_c == pytest.approx(2 ** (-1 / 3), abs=1e-9)
        assert res.residual <= 1e-9

    def test_k3_connectivity(self):
        res = critical_probability(graph_connectivity(3))
        assert res.p_c == pytest.approx(0.5, abs=1e-9)

    def test_k4_connectivity_golden(self):
        # independent oracle: connected-subgraph profile + bisection
        profile = connectivity_profile(4)
        oracle = brute_pc(list(graph_connectivity(4).minimal_bits), 6)
        assert sum(profile) == 16 + 15 + 6 + 1
        res = critical_probability(graph_connectivity(4))
        assert res.p_c == pytest.approx(K4_CONNECTIVITY_PC, abs=1e-9)
        assert res.p_c == pytest.approx(oracle, abs=1e-9)

    def test_methods_agree(self):
        up = UpperSet(6, [0b000011, 0b001100, 0b110000])
        a = critical_probability(up, method="enumeration").p_c
        b = critical_probability(up, method="inclusion_exclusion").p_c
        assert a == pytest.approx(b, abs=2e-9)

    def test_monte_carlo_rejected(self):
        with pytest.raises(ValueError):
            critical_probability(UpperSet(3, [1]), method="monte_carlo")

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            critical_probability(UpperSet(3, [1]), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            critical_probability(UpperSet(3, [1]), tol=tol)

    def test_tol_below_float_resolution(self):
        # mu = p^2 crosses 1/2 between two floats, each 2^-53 off in mu
        with pytest.raises(ValueError, match=r"adjacent floats .* residual 1\.110e-16"):
            critical_probability(UpperSet(2, [0b11]), tol=1e-17)

    def test_exact_crossing_meets_any_tol(self):
        # mu = p crosses 1/2 at a float: no bracket is that narrow, but the
        # residual there is 0
        res = critical_probability(UpperSet(1, [1]), tol=1e-300)
        assert (res.p_c, res.residual) == (0.5, 0.0)

    @given(upper_sets(max_ground=9))
    @settings(max_examples=30, deadline=None)
    def test_residual_within_tolerance(self, up):
        res = critical_probability(up, tol=1e-9)
        assert res.residual <= 1e-9
        assert 0.0 < res.p_c < 1.0

    def test_battery_within_1e_14_of_exact_root(self):
        for name, up in builtin_battery():
            n = up.ground_size
            lo, hi = exact_root_bracket(profile_sign(member_counts(list(up.minimal_bits), n), n))
            p_c = critical_probability(up, 1e-9, measure.auto_exact_method(up)).p_c
            assert lo - 1e-14 <= p_c <= hi + 1e-14, name

    @given(st.one_of(upper_sets(max_ground=12, max_gens=12), same_size_antichains()))
    @settings(max_examples=60, deadline=None)
    def test_both_methods_within_1e_14_of_exact_root(self, up):
        n, bits = up.ground_size, list(up.minimal_bits)
        lo, hi = exact_root_bracket(profile_sign(member_counts(bits, n), n))
        # the same polynomial in its other basis crosses 1/2 between the same floats
        assert exact_root_bracket(coeffs_sign(signed_union_counts(bits, n))) == (lo, hi)
        for method in EXACT_METHODS:
            p_c = critical_probability(up, 1e-9, method).p_c
            assert lo - 1e-14 <= p_c <= hi + 1e-14, method

    def test_principal_within_1e_14_of_inverse_root_of_two(self):
        # mu = p^k for a principal upper set with a k-element generator
        principals = [up for name, up in builtin_battery() if name.startswith("principal")]
        principals += [make_family_instance("principal", k) for k in range(1, 21)]
        for up in principals:
            k = up.ell0
            assert abs(critical_probability(up).p_c - 2 ** (-1 / k)) <= 1e-14, k

    def test_battery_within_eval_budget(self, monkeypatch):
        calls = []
        for name in ("_eval_enumeration", "_eval_inclusion_exclusion"):
            def counted(*args, _original=getattr(measure, name)):
                calls.append(args[-1])
                return _original(*args)

            monkeypatch.setattr(measure, name, counted)
        for _, up in builtin_battery():
            critical_probability(up, 1e-9, measure.auto_exact_method(up))
        # the exact count over the 203 battery instances
        assert len(calls) <= 1677
