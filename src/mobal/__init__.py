"""Interval balancing of integer vector sequences and 1/2-approximate
Pareto sets for multi-objective MaxSAT and MaxATSP, with brute-force
oracles and a certification harness."""

from .balancing import (
    BalanceResult,
    BalancingInstance,
    IntervalFamily,
    balance_combinatorial,
    balance_integer,
    balance_paired,
    verify_balance,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InstanceFormatError,
    MobalError,
    PreconditionError,
    SearchInvariantError,
)
from .graphs import (
    ContractionRecord,
    LabeledDigraph,
    contract,
    expand,
    is_hamiltonian_cycle,
    is_matching,
)
from .instances import (
    GeneratorSpec,
    detect_kind,
    digest,
    generate,
    parse_balance,
    parse_cnf,
    parse_graph,
    serialize_balance,
    serialize_cnf,
    serialize_graph,
)
from .matching import ExactMatchingBackend, MatchingBackend
from .maxatsp import (
    ClaimWitness,
    extend_matching,
    matching_claim_witness,
    maxatsp_approx,
    tsp_oracle,
)
from .maxsat import (
    CnfInstance,
    SatState,
    assignment_weight,
    maxsat_approx,
    maxsat_oracle,
)
from .pareto import (
    ApproxCertificate,
    SolutionSet,
    Weight,
    cover_ratio,
    is_alpha_approx_set,
    pareto_filter,
)
from .rng import SplitMix64

__version__ = "0.1.0"
