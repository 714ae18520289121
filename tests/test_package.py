import cyclesets

EXPORTS = {
    "BoundExceeded", "BraceSubset", "CapExceeded", "ConstantPhi", "CountReport", "CycleSet",
    "CyclicParams", "FamilyParams", "InducedTableIllDefined",
    "InvariantViolation", "IrrParams", "Mpl2Params", "NoMatch", "NotAnAutomorphism",
    "NotIndecomposable", "NotSizePSquared", "NotTransitive", "OracleResult", "Perm", "PermBrace",
    "RowsNotBijective", "SearchOptions", "SizeTooLarge", "Solution", "SolutionReport", "ValidityReport",
    "assert_valid", "automorphisms", "block_systems", "brute_aut", "brute_iso", "build_perm_brace",
    "cable", "canonical_form", "canonical_phi", "check_cycle_set",
    "check_solution", "classify_size_p2", "closure", "co_params", "co_simple_solution", "count_formula",
    "count_irr_by_enumeration", "count_mpl2_by_enumeration", "cycle_type", "cyclic_cycle_set", "deform",
    "divisors", "enumerate_classes", "enumerate_cycle_sets", "euler_phi", "from_solution", "identity",
    "inverse", "irr_cycle_set", "is_cycle_set_automorphism", "is_indecomposable", "is_irretractable",
    "is_perm", "is_prime", "is_simple", "is_transitive", "iso_cycle_sets", "mirror_perm",
    "mpl2_cycle_set", "mpl2_params", "multipermutation_level", "orbits", "params_from_dict",
    "params_to_dict", "phi_stabilizer", "psi", "psi_iso_check", "quotients",
    "relabel", "restrict", "retraction", "sigma_gens", "sub_cycle_set", "to_cycle_set", "to_solution",
    "two_adic_split", "verify_brace"
}


def test_the_package_exports_exactly_its_public_names():
    assert set(cyclesets.__all__) == EXPORTS and len(cyclesets.__all__) == len(EXPORTS)
    assert all(hasattr(cyclesets, name) for name in EXPORTS)
