"""Indecomposable involutive Yang-Baxter solutions of size p^2, via cycle sets."""

from types import ModuleType as _ModuleType

from .errors import (
    BoundExceeded, CapExceeded, ConstantPhi, InducedTableIllDefined, InvariantViolation,
    NoMatch, NotAnAutomorphism, NotIndecomposable, NotSizePSquared, NotTransitive, RowsNotBijective, SizeTooLarge,
)
from .perms import Perm, block_systems, closure, cycle_type, identity, inverse, is_perm, is_transitive, orbits
from .cycleset import (
    CycleSet, ValidityReport, assert_valid, check_cycle_set, is_indecomposable, is_irretractable, is_simple,
    multipermutation_level, quotients, relabel, restrict, retraction, sigma_gens, sub_cycle_set,
)
from .solutions import Solution, SolutionReport, check_solution, from_solution, to_solution
from .brace import BraceSubset, PermBrace, build_perm_brace, verify_brace
from .counting import (
    CountReport, count_formula, count_irr_by_enumeration, count_mpl2_by_enumeration, divisors, euler_phi, is_prime,
    psi, two_adic_split,
)
from .families import (
    CyclicParams, FamilyParams, IrrParams, Mpl2Params, cable, co_params, co_simple_solution, cyclic_cycle_set,
    deform, irr_cycle_set, is_cycle_set_automorphism, mirror_perm, mpl2_cycle_set, mpl2_params, params_from_dict,
    params_to_dict, psi_iso_check, to_cycle_set,
)
from .classify import (
    automorphisms, canonical_phi, classify_size_p2, enumerate_classes, iso_cycle_sets, phi_stabilizer,
)
from .oracle import OracleResult, SearchOptions, brute_aut, brute_iso, canonical_form, enumerate_cycle_sets

__version__ = "0.1.0"

# the names imported above; the submodules bound by those imports are not exports
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
