"""Exact threshold quantities for monotone properties of small ground sets.

Core objects: subsets are plain int bitmasks (bit i set = element i
present); nontrivial upper sets are stored as the int masks of their
minimal antichains (UpperSet); covers (Cover) hand out their witness
elements as SubsetMask values. On top of them:

* measure: mu_p(F) by enumeration / inclusion-exclusion / Monte Carlo,
  and the critical probability p_c with mu = 1/2;
* expectation: p-smallness via exact weighted set cover and the
  expectation threshold q(F);
* structure: covering dimension and the lattice symmetric polynomials
  sigma_k;
* bounds: the K * q * log(ell) bound family and per-instance inequality
  verification;
* families / sweep: instance generators and finite-n trend diagnostics;
* cli: the `upsetkit` command.
"""

from . import errors
from .bounds import (
    BoundReport,
    BoundVariant,
    InequalityCheck,
    verify_instance,
)
from .core import (
    Cover,
    SubsetMask,
    UpperSet,
    parse_instance,
)
from .expectation import (
    CoverSolution,
    ExpectationThreshold,
    candidate_cover_elements,
    expectation_threshold,
    is_p_small,
    min_cover_cost,
)
from .families import (
    builtin_battery,
    graph_connectivity,
    hamiltonian_cycle,
    principal,
    random_upper_set,
    subgraph_containment,
)
from .measure import CriticalProbability, MuEstimate, critical_probability, mu
from .structure import (
    DimensionResult,
    covering_dimension,
    dim_upper_bound_via_sigma,
    max_nonempty_sigma_index,
    sigma_k,
)
from .sweep import (
    Classification,
    NecessaryConditionsReport,
    SweepRecord,
    information_classification,
    necessary_conditions_report,
    records_to_csv,
    sweep,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Reset all instance-level memo caches (profiles, q, dimensions)."""
    from . import expectation, measure, structure

    measure.clear_caches()
    expectation.clear_caches()
    structure.clear_caches()
