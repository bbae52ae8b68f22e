"""Similarity classes of planar arithmetic lattices: classification,
enumeration, counting, heights, and j-invariants."""

from .arith import (SieveTables, build_sieve, coprime_count_range,
                    phi_restricted)
from .census import (ClassSetId, CountReport, census_report, count_bruteforce,
                     count_fast, enumerate_classes, haar_volumes, main_terms)
from .classes import (ClassKind, CoprimalityError, DomainError,
                      QuadrupleError, RangeError, TauQuadruple, WrPair,
                      classify, max_height, weil_height_bound,
                      wr_pair_to_quadruple)
from .lattice import (CanonicalTau, GramForm, HalfPlanePoint, PlanarLattice,
                      UnimodularMatrix, canonical_tau, gram,
                      is_semistable, is_stable, is_well_rounded, modular_act,
                      tau_gram)
from .modular import (JValue, boundary_realness_report, classify_by_j,
                      j_invariant, j_normalized)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
