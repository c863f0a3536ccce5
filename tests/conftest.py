from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import upsetkit as uk
from upsetkit.bounds import auto_exact_method
from upsetkit.expectation import expectation_threshold
from upsetkit.measure import critical_probability
from upsetkit.structure import covering_dimension, max_nonempty_sigma_index


@dataclass(frozen=True)
class InstanceResult:
    name: str
    upper: uk.UpperSet
    q: float
    p_c: float
    dim_unrestricted: int
    sigma_top: int  # largest k with sigma_k nonempty


@pytest.fixture(scope="session")
def battery():
    return uk.builtin_battery()


@pytest.fixture(scope="session")
def battery_results(battery):
    """All battery quantities, with the q + p_c wall time recorded."""
    t0 = time.perf_counter()
    q_pc = [
        (expectation_threshold(f).q, critical_probability(f, 1e-9, auto_exact_method(f)).p_c)
        for _, f in battery
    ]
    q_pc_seconds = time.perf_counter() - t0
    results = []
    for (name, f), (q, p_c) in zip(battery, q_pc):
        results.append(
            InstanceResult(
                name=name,
                upper=f,
                q=q,
                p_c=p_c,
                dim_unrestricted=covering_dimension(f).dim,
                sigma_top=max_nonempty_sigma_index(f),
            )
        )
    return results, q_pc_seconds
