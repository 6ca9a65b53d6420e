"""Monochromatic domination in 3-edge-coloured tournaments.

Verification and search tooling: domination relations and covers, rainbow
triangle detection, structural audits of would-be minimal counterexamples,
and exhaustive or sampled enumeration campaigns.
"""

__version__ = "0.1.0"
