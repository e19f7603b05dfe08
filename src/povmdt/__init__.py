"""Direct characterization of individual POVM matrix entries.

Simulates the sequential coupling of a d-dimensional system to two qubit
meters, post-selection by an unknown measurement, and the reconstruction
of single matrix entries <a_j| Pi_l |a_k> from the joint meter statistics,
with exact, shot-noise Monte Carlo and analytic precision treatments, plus
dephasing / phase-rotation noise scenarios and their calibrations.
"""

__version__ = "0.1.0"

from .estimator import (
    EntryEstimate,
    RtCoefficients,
    analytic_variance,
    completeness_refine,
    error_transfer_variance,
    estimate_from_tables,
    rt_coefficients,
)
from .linalg import tensor
from .montecarlo import (
    EntryScenario,
    RefinementStudy,
    ShotModel,
    SweepSpec,
    TrialSummary,
    refinement_trials,
    run_trials,
    sample_counts,
    variance_sweep,
)
from .noise import (
    Environment,
    apply_dephasing,
    apply_phase_rotation,
    calibrate_phase,
    calibrate_xi,
    dephase_via_environment,
    wavepacket_overlap,
    xi_from_environment,
)
from .povm import (
    Povm,
    load_povm,
    make_parametric_element,
    make_sic_povm,
    matrix_entry_oracle,
    povm_from_walk,
    random_povm,
    save_povm,
)
from .protocol import (
    BASES,
    SETTINGS,
    CouplingConfig,
    DeadPostSelectionError,
    JointState,
    build_observables,
    coupling_unitary,
    evolve_joint,
    exact_entry_tables,
    meter_tables,
    pointer_state_b0,
    prepare_entry_state,
)

__all__ = [
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
]
