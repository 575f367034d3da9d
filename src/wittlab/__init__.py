"""Exact arithmetic for Witt rings, Lubin-Tate exponentials and Gauss sums."""

from .characters import CharParams, CharacterSystem, check_splitting, mu_ppow_table
from .fields import finite_field
from .gausstrace import GaussConfig, bench_report, trace_formula_check
from .rings import LubinTateSeries, RingElem, RingSpec, make_ring, ring_of
from .series import artin_hasse_E, pulita_theta_ms, robba, varpi
from .upoly import ghost_poly, structural_polys
from .wittvec import WittVec, frob, ghost_map, tau, versch, witt_add, witt_mul

__version__ = "0.1.0"

__all__ = [
    "CharParams",
    "CharacterSystem",
    "GaussConfig",
    "LubinTateSeries",
    "RingElem",
    "RingSpec",
    "WittVec",
    "artin_hasse_E",
    "bench_report",
    "check_splitting",
    "finite_field",
    "frob",
    "ghost_map",
    "ghost_poly",
    "make_ring",
    "mu_ppow_table",
    "pulita_theta_ms",
    "ring_of",
    "robba",
    "structural_polys",
    "tau",
    "trace_formula_check",
    "varpi",
    "versch",
    "witt_add",
    "witt_mul",
]
