"""The public API: every exported name resolves, and nothing else is exported."""

import povmdt

#: The package's public names.  The readout functional has one definition
#: (``rt_coefficients``); no second estimator or joint-observable path is
#: exported beside it.
PUBLIC = {
    "__version__",
    "Povm", "make_sic_povm", "make_parametric_element",
    "povm_from_walk", "random_povm", "matrix_entry_oracle",
    "save_povm", "load_povm", "tensor",
    "BASES", "SETTINGS", "CouplingConfig", "JointState",
    "DeadPostSelectionError", "pointer_state_b0", "build_observables",
    "coupling_unitary", "evolve_joint", "prepare_entry_state",
    "meter_tables", "exact_entry_tables",
    "RtCoefficients", "EntryEstimate", "rt_coefficients",
    "estimate_from_tables",
    "error_transfer_variance", "analytic_variance",
    "completeness_refine",
    "Environment", "apply_dephasing", "apply_phase_rotation",
    "dephase_via_environment", "xi_from_environment", "wavepacket_overlap",
    "calibrate_xi", "calibrate_phase",
    "ShotModel", "EntryScenario", "TrialSummary", "SweepSpec",
    "RefinementStudy", "sample_counts", "run_trials", "variance_sweep",
    "refinement_trials",
}


def test_every_exported_name_resolves():
    missing = [name for name in povmdt.__all__ if not hasattr(povmdt, name)]
    assert missing == []


def test_exports_are_exactly_the_public_api():
    assert len(povmdt.__all__) == len(set(povmdt.__all__))
    assert set(povmdt.__all__) == PUBLIC
