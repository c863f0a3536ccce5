"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Expected values are produced by the independent oracles in oracles.py
(direct 2^n sums, per-minimal assignment search, combination enumeration),
never assumed from the implementation under test.
"""

import functools
import math
import operator
import time

import numpy as np

import upsetkit
from oracles import brute_pc, naive_min_cover_cost, naive_q, naive_sigma
from upsetkit import (
    BoundVariant,
    fmt,
    graph_connectivity,
    information_classification,
    min_cover_cost,
    mu,
    records_to_csv,
    sigma_k,
    sweep,
    verify_instance,
)
from upsetkit.core import UpperSet

BELL = BoundVariant(8.0)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_sandwich_left(battery_results):
    results, seconds = battery_results
    violations = [r.name for r in results if r.q > r.p_c + 2e-9]
    ok = len(results) >= 200 and not violations and seconds <= 60.0
    report(
        1,
        ok,
        f"q <= p_c + 2e-9 on {len(results)} instances, "
        f"{len(violations)} violations, q+p_c wall time {seconds:.2f}s (limit 60s)",
    )


def test_criterion_2_sandwich_right(battery_results):
    results, _ = battery_results
    violations = [
        r.name
        for r in results
        if r.p_c > 8.0 * r.q * math.log2(2 * r.upper.ell0) + 1e-9
    ]
    report(2, not violations, f"p_c <= 8 q log2(2 ell0): {len(violations)} violations")


def test_criterion_3_dimension_interval(battery_results):
    results, _ = battery_results
    checked = 0
    violations = []
    for r in results:
        checked += 1
        lo = (2.0 * r.dim_unrestricted) ** -1.0
        hi = (2.0 * r.dim_unrestricted) ** (-1.0 / r.upper.ell)
        if not (lo - 1e-9 <= r.q <= hi + 1e-9):
            violations.append(r.name)
    by_name = {r.name: r for r in results}
    upper_case = by_name["principal-k3-n4"]
    hi_slack = abs(upper_case.q - (2.0 * upper_case.dim_unrestricted) ** (-1.0 / upper_case.upper.ell))
    lower_case = by_name["singletons-m2-n3"]
    lo_slack = abs(lower_case.q - (2.0 * lower_case.dim_unrestricted) ** -1.0)
    ok = not violations and hi_slack <= 1e-9 and lo_slack <= 1e-9
    report(
        3,
        ok,
        f"(2 dim)^-1 <= q <= (2 dim)^(-1/ell) on {checked} instances; "
        f"boundary slacks {hi_slack:.2e} (upper), {lo_slack:.2e} (lower)",
    )


def test_criterion_4_exact_values():
    failures = []
    for k in range(1, 7):
        up = UpperSet(k + 1, [(1 << k) - 1])
        oracle_q = naive_q(list(up.minimal_bits))
        oracle_pc = brute_pc(list(up.minimal_bits), up.ground_size)
        closed = 2 ** (-1.0 / k)
        got_q = upsetkit.expectation_threshold(up).q
        got_pc = upsetkit.critical_probability(up).p_c
        for label, got, want in (
            (f"q(principal {k}) vs oracle", got_q, oracle_q),
            (f"q(principal {k}) vs closed form", got_q, closed),
            (f"p_c(principal {k}) vs oracle", got_pc, oracle_pc),
            (f"p_c(principal {k}) vs closed form", got_pc, closed),
        ):
            if abs(got - want) > 1e-8:
                failures.append(label)
    k3 = graph_connectivity(3)
    got_pc = upsetkit.critical_probability(k3).p_c
    got_q = upsetkit.expectation_threshold(k3).q
    if abs(got_pc - brute_pc(list(k3.minimal_bits), 3)) > 1e-9 or abs(got_pc - 0.5) > 1e-9:
        failures.append("p_c(K_3 connectivity)")
    if abs(got_q - naive_q(list(k3.minimal_bits))) > 1e-8 or abs(got_q - 6**-0.5) > 1e-8:
        failures.append("q(K_3 connectivity)")
    report(4, not failures, f"principal k=1..6 and K_3 exact values; failures: {failures}")


def test_criterion_5_sigma_oracle():
    rng = np.random.Generator(np.random.PCG64(555))
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 13))
        bits = [int(rng.integers(0, 1 << n)) for _ in range(m)]  # 0 included
        for k in range(1, m + 1):
            if sigma_k(bits, k) != naive_sigma(bits, k, n):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 10.0
    report(5, ok, f"1000 random sigma inputs, {mismatches} mismatches, {elapsed:.2f}s (limit 10s)")


def test_criterion_6_dimension_inequalities(battery_results):
    results, _ = battery_results
    checked = 0
    violations = []
    for r in results:
        m = len(r.upper.minimal_bits)
        if m > 10:
            continue
        checked += 1
        if r.dim_unrestricted > m + 1 - r.sigma_top:
            violations.append((r.name, "sigma_index_bound"))
        for j in range(1, m + 1):
            nonempty = sigma_k(r.upper.minimal_bits, j) != 0
            if nonempty and r.dim_unrestricted > m - j + 1:
                violations.append((r.name, f"sigma_{j}"))
    report(
        6,
        not violations,
        f"dim <= |F0|+1-t and the sigma implication for all k on {checked} instances; "
        f"{len(violations)} violations",
    )


def test_criterion_7_intersecting_minimals(battery_results):
    results, _ = battery_results
    variants = [BELL, BoundVariant(4.5), BoundVariant(2.0, argument="ell"),
                BoundVariant(3.998, argument="ell")]
    counterexamples = []
    tested = 0
    for r in results:
        if functools.reduce(operator.and_, r.upper.minimal_bits) == 0:
            continue
        for v in variants:
            tested += 1
            bound = v.K * r.q * v.log_argument(r.upper)
            if bound < 1.0 - 1e-8:
                counterexamples.append((r.name, v.name))
    records = sweep("principal", range(2, 8), BELL)
    classification = information_classification(records)
    never = classification.never_nontrivial and classification.kind == "inconclusive"
    ok = not counterexamples and never
    report(
        7,
        ok,
        f"bound >= 1 on {tested} (instance, K>=2 variant) pairs with intersecting "
        f"minimals; principal sweep classified never-nontrivial: {never}",
    )


def test_criterion_8_cayley():
    expected = {3: 3, 4: 16, 5: 125, 6: 1296}
    bad = []
    for n, count in expected.items():
        up = graph_connectivity(n)
        if len(up.minimals) != count or up.ell0 != n - 1:
            bad.append(n)
    report(8, not bad, f"spanning-tree counts 3,16,125,1296 and ell0 = n-1 for n=3..6; bad: {bad}")


def test_criterion_9_mu_methods(battery_results):
    results, _ = battery_results
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    agree_checked = 0
    agree_bad = []
    for r in results:
        up = r.upper
        if up.ground_size > 12 or len(up.minimals) > 10:
            continue
        agree_checked += 1
        for p in grid:
            a = mu(up, p, "enumeration").value
            b = mu(up, p, "inclusion_exclusion").value
            if abs(a - b) > 1e-12:
                agree_bad.append((r.name, p))
    mc_instances = [
        graph_connectivity(3),
        UpperSet(4, [0b0011]),
        UpperSet(3, [0b001, 0b010]),
        UpperSet(6, [0b000111, 0b111000]),
    ]
    trials = 0
    hits = 0
    for idx, up in enumerate(mc_instances):
        exact = mu(up, 0.5).value
        for seed in range(25):
            est = mu(up, 0.5, "monte_carlo", samples=100_000, seed=1000 * idx + seed)
            trials += 1
            if abs(est.value - exact) <= 4 * est.std_error:
                hits += 1
    ok = not agree_bad and trials == 100 and hits >= 99
    report(
        9,
        ok,
        f"enum vs incl-excl <= 1e-12 on {agree_checked} instances x 5 p-values "
        f"({len(agree_bad)} bad); Monte Carlo within 4 sigma in {hits}/{trials} trials",
    )


def test_criterion_10_cover_oracle(battery_results):
    results, _ = battery_results
    checked = 0
    mismatches = []
    for r in results:
        up = r.upper
        if len(up.minimals) > 5 or up.ell0 > 4:
            continue
        checked += 1
        for p in (0.1, 0.3, 0.5):
            got = min_cover_cost(up, p).cost
            want = naive_min_cover_cost(list(up.minimal_bits), p)
            if abs(got - want) > 1e-10:
                mismatches.append((r.name, p))
    ok = checked >= 20 and not mismatches
    report(
        10,
        ok,
        f"exact cover cost equals assignment-exhaustion oracle on {checked} instances "
        f"x 3 p-values; {len(mismatches)} mismatches",
    )


def test_criterion_11_dim_convention_disclosure():
    up = graph_connectivity(3)
    got = verify_instance(up, BELL)
    dim_u, dim_f = got.dim_unrestricted, got.dim_within_family
    # independent oracles: exhaust covers over all nonempty masks, then over
    # members of F only (supersets of some minimal element)
    from oracles import naive_dim

    members = [
        s for s in range(1, 1 << 3)
        if any(m & s == m for m in up.minimal_bits)
    ]
    oracle_u = naive_dim(list(up.minimal_bits), 3)
    oracle_f = naive_dim(list(up.minimal_bits), 3, candidate_bits=members)
    ok = dim_u == oracle_u == 2 and dim_f == oracle_f == 3 == 3 ** (3 - 2)
    report(
        11,
        ok,
        "declared not reproducible at desk scale: asymptotic perfect-information "
        "statements (checked only as finite diagnostics); the n^(n-2) connectivity "
        f"dimension appears under within_family only (got {dim_f}, oracle {oracle_f}) "
        f"with unrestricted dim {dim_u} (oracle {oracle_u}) reported alongside",
    )


def _battery_outputs() -> tuple[str, str]:
    upsetkit.clear_caches()
    battery = upsetkit.builtin_battery()
    reports = "\n".join(fmt.dumps(verify_instance(f, BELL).to_json_dict()) for _, f in battery)
    csv_text = records_to_csv(sweep("principal", range(2, 7), BELL), 2)
    csv_text += records_to_csv(sweep("connectivity", range(3, 6), BELL), 2)
    return reports, csv_text


def test_criterion_12_determinism():
    json_a, csv_a = _battery_outputs()
    json_b, csv_b = _battery_outputs()
    ok = json_a == json_b and csv_a == csv_b
    report(
        12,
        ok,
        f"two full battery runs: JSON identical {json_a == json_b}, "
        f"CSV identical {csv_a == csv_b} ({len(json_a)} JSON bytes)",
    )
