"""Fell bundles over finite groupoids, executable and checkable.

Section *-algebras with their C*-norms via the regular representation,
twisted partial actions compiled to bundles and recovered from them,
ideal/quotient exactness, dual-groupoid quasi-orbits, and representation
integration/disintegration round trips.  Every Haar integral is a finite
sum (counting measures throughout).
"""

from .config import DEFAULT, Tolerances
from .groupoid import (FiniteGroupoid, PartialActionOnSet, composable_pairs,
                       composable_triples, transformation_groupoid, validate_groupoid)
from .bundle import (BundleHom, FellBundle, MatrixModelBundle, UnitFiberAlgebra,
                     range_source_ideals, saturation_check,
                     validate_bundle_hom, validate_fell_bundle)
from .sections import (Section, convolve, delta_section, factor, i_norm,
                       induced_hom, involute, unit_section)
from .envelope import (EnvelopeAlgebra, cstar_norm, coefficient_embedding_check,
                       envelope_algebra, regular_rep_matrix, sharper_norm_bound)
from .actions import (TwistedPartialAction, compile_to_fell_bundle,
                      line_bundle_from_cocycle, reconstruct_action,
                      restrict_action, validate_action)
from .ideals import (FellIdeal, InvariantFamily, SplitExtension,
                     enumerate_fell_ideals, exactness_verify,
                     hereditary_from_family, ideal_from_invariant_family,
                     invariant_family_from_ideal, quotient_bundle,
                     split_exactness_verify, split_extension_from_hom,
                     validate_fell_ideal, validate_invariant_family)
from .spectrum import (DualGroupoid, FiberSpectrum, dual_arrow_action,
                       dual_groupoid, fiber_spectrum, galois_check,
                       ideal_bijection_check, incidence, invariant_subsets, lattice,
                       quasi_orbits)
from .reps import (FellRep, disintegrate, integrate, intertwiner_check,
                   random_fellrep, regular_fellrep, validate_rep)
from .trafo import assemble_over_base, trafo_isomorphism_check
from .workspace import Workspace, WorkspaceError

__all__ = [
    "DEFAULT", "Tolerances",
    "FiniteGroupoid", "PartialActionOnSet", "composable_pairs", "composable_triples",
    "transformation_groupoid", "validate_groupoid",
    "BundleHom", "FellBundle", "MatrixModelBundle", "UnitFiberAlgebra",
    "range_source_ideals", "saturation_check",
    "validate_bundle_hom", "validate_fell_bundle",
    "Section", "convolve", "delta_section", "factor", "i_norm", "induced_hom",
    "involute", "unit_section",
    "EnvelopeAlgebra", "cstar_norm", "coefficient_embedding_check",
    "envelope_algebra", "regular_rep_matrix", "sharper_norm_bound",
    "TwistedPartialAction", "compile_to_fell_bundle", "line_bundle_from_cocycle",
    "reconstruct_action", "restrict_action", "validate_action",
    "FellIdeal", "InvariantFamily", "SplitExtension", "enumerate_fell_ideals",
    "exactness_verify", "hereditary_from_family", "ideal_from_invariant_family",
    "invariant_family_from_ideal", "quotient_bundle", "split_exactness_verify",
    "split_extension_from_hom", "validate_fell_ideal", "validate_invariant_family",
    "DualGroupoid", "FiberSpectrum", "dual_arrow_action", "dual_groupoid",
    "fiber_spectrum", "galois_check", "ideal_bijection_check", "incidence",
    "invariant_subsets", "lattice", "quasi_orbits",
    "FellRep", "disintegrate", "integrate", "intertwiner_check",
    "random_fellrep", "regular_fellrep", "validate_rep",
    "assemble_over_base", "trafo_isomorphism_check",
    "Workspace", "WorkspaceError",
]

__version__ = "0.1.0"
