"""Correctness checks on the outputs of one pass, run outside the timed region.

Every command's output is checked three ways:

* by definition, with code that shares nothing with upsetkit: the q witness
  covers F and costs <= 1/2 at q - tol, |mu(p_c) - 1/2| <= tol by brute force
  for n <= 15, the bound formula, ell, |F0|, the sigma flags, dim_u as a
  minimum hitting set and dim_f = |F0|;
* against the independent oracles in tests/oracles.py (naive_q, brute_pc) to
  1e-7 for instances with n <= 12 and |F0| <= 10;
* against perfbench/reference.json to 1e-7, so a change that moves a value by
  up to tol still passes. A value that has no reference (it became exact
  after the reference was taken) is checked by definition only, and a value
  the reference has but the output lacks is lost reach, counted by the
  exact_fields metric rather than as a failure.

One exception: a ``verify`` that exits 3 (a cap) fails when its instance
has reference rows or is small enough for the oracles. That covers every
battery instance, none of which reaches a cap at the seed commit; one lost
battery instance is too small a share of exact_fields to cross its bound.

The witness and the unrounded q and p_c come from recomputing them with the
library, after checking that they print exactly as the command printed them.
The Monte Carlo estimate must equal an independent chunked PCG64 recount
exactly, and at the default seed also the reference.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from oracles import brute_mu, brute_pc, naive_q
from workloads import DEFAULT_SEED, MC_SAMPLES, Command

TOL = 1e-9  # the CLI's default --tol
REF_TOL = 1e-7
K = 8.0  # the CLI's default variant: Bell, K = 8, log base 2, argument 2*ell0
# Oracle bisection steps: 2^-31 is far below REF_TOL and keeps the oracles
# (pure-Python 2^n sums) to a few seconds per battery pass.
ORACLE_ITERS = 31
ORACLE_MAX_N, ORACLE_MAX_MINIMALS = 12, 10
BRUTE_MU_MAX_N = 15
# Quantities a cap can leave absent; losing one is lost reach, not a failure.
LOSABLE = {"q", "p_c", "dim_u", "dim_f", "bound", "width", "nontrivial", "ratio",
           "dim_unrestricted", "dim_within_family", "bound_value", "nontrivial_info"}
EXACT_CSV_COLUMNS = ("q", "p_c", "dim_u", "dim_f")
EXACT_JSON_FIELDS = ("q", "p_c", "dim_unrestricted", "dim_within_family")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def rounded(x: float) -> float:
    """A float as the CLI prints it (%.12g)."""
    return float(f"{x:.12g}")


# --- definitions, independent of upsetkit -----------------------------------

def _bits_of(upper) -> tuple[int, list[int]]:
    return upper.ground_size, [sum(1 << i for i in e) for e in upper.to_instance_dict()["minimal_elements"]]


def _covers(witness: list[int], minimals: list[int]) -> bool:
    return all(any(w & m == w for w in witness) for m in minimals)


def _top_sigma(minimals: list[int], n: int) -> int:
    """Largest k such that some ground element lies in k minimal elements."""
    return max(sum(m >> x & 1 for m in minimals) for x in range(n))


def _min_hitting_set(minimals: list[int], n: int) -> int:
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            hit = sum(1 << x for x in combo)
            if all(m & hit for m in minimals):
                return r
    raise AssertionError("unreachable: the full ground set hits every minimal")


def _bound(q: float, ell0: int) -> float:
    return K * q * math.log2(2 * ell0)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- per-instance quantity checks --------------------------------------------

class Instance:
    """One instance as the checks see it: raw bits plus library recomputes."""

    def __init__(self, upper, pc_method: str | None = None):
        self.upper = upper
        self.n, self.minimals = _bits_of(upper)
        self.m = len(self.minimals)
        self.ell0 = max(bin(b).count("1") for b in self.minimals)
        self.ell = max(self.ell0, 2)
        self.t_star = _top_sigma(self.minimals, self.n)
        self.pc_method = pc_method

    @property
    def oracle_sized(self) -> bool:
        return self.n <= ORACLE_MAX_N and self.m <= ORACLE_MAX_MINIMALS

    @functools.cached_property
    def threshold(self):
        from upsetkit.expectation import expectation_threshold

        return expectation_threshold(self.upper, TOL)

    @functools.cached_property
    def p_c(self) -> float:
        from upsetkit.bounds import auto_exact_method
        from upsetkit.measure import critical_probability

        method = self.pc_method or auto_exact_method(self.upper)
        return critical_probability(self.upper, TOL, method).p_c

    def check_q(self, printed: float, fails: list[str]) -> float:
        """Check a printed q by its witness and the oracle; returns the unrounded q."""
        q = self.threshold.q
        if rounded(q) != printed:
            fails.append(f"q {printed!r} is not the library's q {q!r}")
        witness = [e.bits for e in self.threshold.witness_cover.elements]
        if not _covers(witness, self.minimals):
            fails.append("q witness does not cover F")
        cost = math.fsum(max(q - TOL, 0.0) ** bin(w).count("1") for w in witness)
        if cost > 0.5:
            fails.append(f"q witness costs {cost!r} > 1/2 at q - tol")
        if self.oracle_sized:
            ref = naive_q(self.minimals, ORACLE_ITERS)
            if abs(ref - q) > REF_TOL:
                fails.append(f"q {q!r} differs from naive_q {ref!r}")
        return q

    def check_pc(self, printed: float, fails: list[str]) -> float:
        """Check a printed p_c by brute force and the oracle; returns the unrounded p_c."""
        pc = self.p_c
        if rounded(pc) != printed:
            fails.append(f"p_c {printed!r} is not the library's p_c {pc!r}")
        if self.n <= BRUTE_MU_MAX_N:
            gap = abs(brute_mu(self.minimals, self.n, pc) - 0.5)
            if gap > TOL:
                fails.append(f"|brute_mu(p_c) - 1/2| = {gap!r} > tol")
        if self.oracle_sized:
            ref = brute_pc(self.minimals, self.n, ORACLE_ITERS)
            if abs(ref - pc) > REF_TOL:
                fails.append(f"p_c {pc!r} differs from brute_pc {ref!r}")
        return pc

    def check_dims(self, dim_u, dim_f, fails: list[str]) -> None:
        if dim_u is not None and dim_u != _min_hitting_set(self.minimals, self.n):
            fails.append(f"dim_u {dim_u} is not the minimum hitting set size")
        if dim_f is not None and dim_f != self.m:
            fails.append(f"dim_f {dim_f} != |F0| = {self.m}")

    def check_derived(self, q: float, bound, width, nontrivial, fails: list[str]) -> None:
        b = _bound(q, self.ell0)
        if bound is not None and not _close(bound, b, 1e-9):
            fails.append(f"bound {bound!r} != K q log2(2 ell0) = {b!r}")
        if width is not None and not _close(width, b - q, 1e-9):
            fails.append(f"width {width!r} != bound - q")
        if nontrivial is not None and nontrivial != (b < 1.0):
            fails.append("nontrivial flag disagrees with bound < 1")


# --- reference comparison ----------------------------------------------------

def _compare(new, ref, path: str, fails: list[str]) -> None:
    """new == ref, floats to REF_TOL; a None in ref is checked by definition only."""
    if ref is None:
        return
    leaf = path.rsplit(".", 1)[-1]
    if new is None:
        if leaf not in LOSABLE:
            fails.append(f"{path}: missing, reference {ref!r}")
        return
    if isinstance(ref, (bool, str)) or isinstance(new, (bool, str)):
        if new != ref:
            fails.append(f"{path}: {new!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if not isinstance(new, (int, float)) or abs(new - ref) > REF_TOL:
            fails.append(f"{path}: {new!r} != reference {ref!r}")
    elif isinstance(ref, dict):
        for key, value in ref.items():
            _compare(new.get(key) if isinstance(new, dict) else None, value, f"{path}.{key}", fails)
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            fails.append(f"{path}: length differs from the reference")
            return
        for i, (a, b) in enumerate(zip(new, ref)):
            _compare(a, b, f"{path}[{i}]", fails)


def _cell(text: str):
    """A CSV cell as a value: None, bool, int or float."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --- per-command checks ------------------------------------------------------

def _oracle_sized(path: str) -> bool:
    from upsetkit.core import parse_instance

    return Instance(parse_instance(Path(path).read_text())).oracle_sized


def _check_verify(cmd: Command, rc: int, out: str, err: str, ref: dict | None,
                  fails: list[str]) -> None:
    from upsetkit.core import parse_instance

    if rc != 0:
        fails.append(f"exit code {rc}")
        return
    lines = out.splitlines()
    if not lines or lines[0] != "instance,check,holds,slack":
        fails.append("verify CSV header is wrong")
        return
    rows = {}
    for line in lines[1:]:
        instance, check, holds, slack = line.split(",")
        if instance != cmd.path:
            fails.append(f"row names instance {instance!r}")
        if holds != "true":
            fails.append(f"check {check} failed")
        rows[check] = (holds == "true", _cell(slack))
    if err != f"checks: {len(lines) - 1}  failed: 0\n":
        fails.append(f"unexpected stderr {err!r}")
    if ref is not None:
        for check, holds, slack in ref:
            if check not in rows:
                fails.append(f"check {check} of the reference is missing")
                continue
            _compare(rows[check][0], holds, f"{check}.holds", fails)
            _compare(rows[check][1], slack, f"{check}.slack", fails)

    inst = Instance(parse_instance(Path(cmd.path).read_text()))
    q, pc = inst.threshold.q, inst.p_c
    slack = rows.get("sandwich_left_q_le_pc", (None, None))[1]
    if slack is None or abs(slack - (pc - q)) > 1e-10:
        fails.append("sandwich_left slack is not p_c - q of the recomputed q and p_c")
    inst.check_q(rounded(q), fails)
    inst.check_pc(rounded(pc), fails)


def _check_sweep(cmd: Command, rc: int, out: str, err: str, ref: dict | None,
                 fails: list[str]) -> None:
    from upsetkit.families import make_family_instance

    if rc != 0:
        fails.append(f"exit code {rc}")
        return
    rows = _read_csv(out)
    if [int(r["n"]) for r in rows] != list(range(cmd.first, cmd.last + 1)):
        fails.append("sweep rows do not cover the range")
        return
    ref_rows = _read_csv(ref["stdout"]) if ref else None
    if ref_rows is not None and out.partition("\n")[0] != ref["stdout"].partition("\n")[0]:
        fails.append("sweep CSV header differs from the reference")
    same_presence = ref_rows is not None
    for i, row in enumerate(rows):
        n = int(row["n"])
        vals = {k: _cell(v) for k, v in row.items()}
        if ref_rows is not None:
            ref_vals = {k: _cell(v) for k, v in ref_rows[i].items()}
            _compare(vals, ref_vals, f"n={n}", fails)
            same_presence &= all((vals.get(k) is None) == (v is None) for k, v in ref_vals.items())
        if vals["min_count"] is None:
            continue
        inst = Instance(make_family_instance(cmd.family, n))
        if (vals["min_count"], vals["ell0"], vals["ell"]) != (inst.m, inst.ell0, inst.ell):
            fails.append(f"n={n}: min_count/ell0/ell disagree with the instance")
        for t in range(3):
            key = f"sigma_empty_t{t}"
            want = (inst.m - t > inst.t_star) if inst.m - t >= 1 else None
            if key in vals and vals[key] != want:
                fails.append(f"n={n}: {key} is {vals[key]!r}, expected {want!r}")
        inst.check_dims(vals["dim_u"], vals["dim_f"], fails)
        if vals["q"] is not None:
            q = inst.check_q(vals["q"], fails)
            inst.check_derived(q, vals["bound"], vals["width"], vals["nontrivial"], fails)
            if vals["ratio"] is not None and not _close(vals["ratio"], q * math.log2(inst.ell), 1e-9):
                fails.append(f"n={n}: ratio != q log2(ell)")
        if vals["p_c"] is not None:
            inst.check_pc(vals["p_c"], fails)
    summary = json.loads(err)
    if summary.get("family") != cmd.family or summary.get("range") != [cmd.first, cmd.last]:
        fails.append("sweep summary names another family or range")
    elif same_presence:
        # The summary is a function of the rows; compare it only while every
        # row has the same fields present as the reference.
        _compare(summary, json.loads(ref["stderr"]), "summary", fails)


def mc_recount(minimals: list[int], n: int, p: float, samples: int, seed: int) -> float:
    """Monte Carlo hit fraction from the PCG64 stream, drawn in row chunks.

    PCG64 fills (rows, n) arrays row-major, so chunked draws consume the
    same stream as one (samples, n) draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = [[x for x in range(n) if m >> x & 1] for m in minimals]
    hits = done = 0
    while done < samples:
        rows = min(1 << 16, samples - done)
        draws = rng.random((rows, n)) < p
        hit = np.zeros(rows, dtype=bool)
        for c in cols:
            hit |= draws[:, c].all(axis=1)
        hits += int(hit.sum())
        done += rows
    return hits / samples


def _check_compute(cmd: Command, seed: int, rc: int, out: str, err: str, ref: dict | None,
                   fails: list[str]) -> None:
    from upsetkit.core import parse_instance

    if rc != 0:
        fails.append(f"exit code {rc}")
        return
    doc = json.loads(out)
    method = "inclusion_exclusion" if "ie" in cmd.argv else None  # --method mc uses auto
    inst = Instance(parse_instance(Path(cmd.path).read_text()), method)
    if (doc["ground_size"], doc["min_count"], doc["ell0"], doc["ell"]) != (inst.n, inst.m, inst.ell0, inst.ell):
        fails.append("ground_size/min_count/ell0/ell disagree with the instance")
    if doc["sigma_profile"] != [[k, k > inst.t_star] for k in range(1, inst.m + 1)]:
        fails.append("sigma_profile disagrees with the instance")
    inst.check_dims(doc["dim_unrestricted"], doc["dim_within_family"], fails)
    for check in doc["inequality_checks"]:
        if not check["holds"]:
            fails.append(f"check {check['name']} failed")
    q = inst.check_q(doc["q"], fails)
    inst.check_derived(q, doc["bound_value"], doc["width"], doc["nontrivial_info"], fails)
    pc = inst.check_pc(doc["p_c"], fails)
    mc = doc.pop("mu_monte_carlo_at_p_c", None)
    if "mc" in cmd.argv:
        value = mc_recount(inst.minimals, inst.n, pc, MC_SAMPLES, seed)
        want = {"value": rounded(value), "std_error": rounded(math.sqrt(value * (1 - value) / MC_SAMPLES)),
                "samples": MC_SAMPLES, "seed": seed}
        if mc != want:
            fails.append(f"Monte Carlo block {mc!r} != PCG64 recount {want!r}")
        if ref and seed == DEFAULT_SEED and mc != json.loads(ref["stdout"])["mu_monte_carlo_at_p_c"]:
            fails.append("Monte Carlo block differs from the reference at the default seed")
    if ref:
        ref_doc = json.loads(ref["stdout"])
        ref_doc.pop("mu_monte_carlo_at_p_c", None)
        ref_checks = {c["name"]: c for c in ref_doc.pop("inequality_checks")}
        new_checks = {c["name"]: c for c in doc.pop("inequality_checks")}
        for name, c in ref_checks.items():
            if name in new_checks:
                _compare(new_checks[name], c, name, fails)
        _compare(doc, ref_doc, "compute", fails)


def check_pass(workload: str, seed: int, cmds: list[Command],
               outputs: list[tuple[int, str, str]]) -> list[list[str]]:
    """Failure reasons per command (an empty list means the output is correct)."""
    reference = load_reference()[workload]
    result = []
    for cmd, (rc, out, err) in zip(cmds, outputs):
        fails: list[str] = []
        ref = reference.get(cmd.label)
        if rc == 3:  # a cap: lost reach, not a failure, unless the values are known
            if cmd.kind == "verify" and (ref is not None or _oracle_sized(cmd.path)):
                fails.append("exit code 3 on an instance whose values the reference or oracles give")
            result.append(fails)
            continue
        try:
            if cmd.kind == "verify":
                _check_verify(cmd, rc, out, err, ref, fails)
            elif cmd.kind == "sweep":
                _check_sweep(cmd, rc, out, err, ref, fails)
            else:
                _check_compute(cmd, seed, rc, out, err, ref, fails)
        except Exception as exc:  # an output the checks cannot read is a failed output
            fails.append(f"output could not be checked: {type(exc).__name__}: {exc}")
        result.append(fails)
    return result


def exact_fields(cmd: Command, rc: int, out: str) -> int:
    """Exact quantities in one output: non-vacuous verify checks, non-empty
    q/p_c/dim cells of a sweep, non-null q/p_c/dim fields of a report."""
    if rc != 0:
        return 0
    if cmd.kind == "verify":
        return sum(1 for line in out.splitlines()[1:] if not line.endswith(","))
    if cmd.kind == "sweep":
        return sum(1 for row in _read_csv(out) for k in EXACT_CSV_COLUMNS if row[k] != "")
    doc = json.loads(out)
    return sum(1 for k in EXACT_JSON_FIELDS if doc.get(k) is not None)
