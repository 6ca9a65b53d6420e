"""Monochromatic domination in 3-edge-coloured tournaments.

Verification and search tooling: domination relations and covers, rainbow
triangle detection, structural audits of would-be minimal counterexamples,
and exhaustive or sampled enumeration campaigns.
"""

from .auditor import (
    AuditReport,
    CheckResult,
    ColourProfilePartition,
    CycleView,
    DescentPreconditionError,
    DescentRound,
    DescentTrace,
    GenHamiltonResult,
    audit,
    colour_profile_partition,
    descent_check,
    genhamilton_check,
    is_qualifying_cycle,
)
from .campaigns import (
    CampaignResult,
    estimate_f,
    merge_results,
    run_parallel,
    screen_and_audit,
    search_pattern,
    verify_conjecture,
)
from .core import (
    COLOURS,
    Colour,
    ColouredTournament,
    TournamentFormatError,
    canonical_json,
    parse,
    serialize,
)
from .domination import (
    DominationCover,
    DominationRelation,
    RainbowTriangle,
    at_most_two_everywhere,
    dominated_by_all,
    dominates,
    dominating_vertices,
    domination_relation,
    find_rainbow_triangle,
    min_cover,
    vertex_colour_profile,
)
from .enumeration import (
    BudgetExceededError,
    EnumerationSpec,
    enumerate_instances,
    pattern_pinned_codes,
    sample_codes,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BudgetExceededError",
    "COLOURS",
    "CampaignResult",
    "CheckResult",
    "Colour",
    "ColourProfilePartition",
    "ColouredTournament",
    "CycleView",
    "DescentPreconditionError",
    "DescentRound",
    "DescentTrace",
    "DominationCover",
    "DominationRelation",
    "EnumerationSpec",
    "GenHamiltonResult",
    "RainbowTriangle",
    "TournamentFormatError",
    "at_most_two_everywhere",
    "audit",
    "canonical_json",
    "colour_profile_partition",
    "descent_check",
    "dominated_by_all",
    "dominates",
    "dominating_vertices",
    "domination_relation",
    "enumerate_instances",
    "estimate_f",
    "find_rainbow_triangle",
    "genhamilton_check",
    "is_qualifying_cycle",
    "merge_results",
    "min_cover",
    "parse",
    "pattern_pinned_codes",
    "run_parallel",
    "sample_codes",
    "screen_and_audit",
    "search_pattern",
    "serialize",
    "verify_conjecture",
    "vertex_colour_profile",
]
