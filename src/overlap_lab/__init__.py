"""Borders, mutual overlaps, exact pair counts, and their limits.

The package splits into small layers: wordcore holds the word-level
definitions and linear-time border machinery, counting the exact
recurrences, oracle the brute-force enumerations that cross-check them,
asymptotics the certified interval arithmetic for the limiting
constants, and cli the command-line front end.
"""

from .asymptotics import (
    QUANTITIES,
    LimitReport,
    RatInterval,
    expected_lso_limit,
    format_decimal,
    limit_M,
    limit_R,
    limit_U,
    limit_report,
    unbordered_density_limit,
)
from .counting import (
    CountCache,
    bordered_count,
    expected_lso_finite,
    mutually_bordered_count,
    mutually_unbordered_count,
    right_bordered_count,
    s_count,
    unbordered_count,
)
from .errors import BudgetExceededError, InvalidInputError
from .oracle import (
    DEFAULT_PAIR_BUDGET,
    PairCensus,
    ViolationReport,
    census_by_lso,
    ensure_within_budget,
    enumerate_pair_census,
    extremal_pair,
    max_overlap_sum,
    verify_decomposition,
    verify_shortest_unbordered,
)
from .wordcore import (
    Alphabet,
    OverlapProfile,
    PairClass,
    Word,
    overlap_profile,
)

__version__ = "0.2.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "CountCache",
    "DEFAULT_PAIR_BUDGET",
    "InvalidInputError",
    "LimitReport",
    "OverlapProfile",
    "PairCensus",
    "PairClass",
    "QUANTITIES",
    "RatInterval",
    "ViolationReport",
    "Word",
    "bordered_count",
    "census_by_lso",
    "ensure_within_budget",
    "enumerate_pair_census",
    "expected_lso_finite",
    "expected_lso_limit",
    "extremal_pair",
    "format_decimal",
    "limit_M",
    "limit_R",
    "limit_U",
    "limit_report",
    "max_overlap_sum",
    "mutually_bordered_count",
    "mutually_unbordered_count",
    "overlap_profile",
    "right_bordered_count",
    "s_count",
    "unbordered_count",
    "unbordered_density_limit",
    "verify_decomposition",
    "verify_shortest_unbordered",
    "__version__",
]
