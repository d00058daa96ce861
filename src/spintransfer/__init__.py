"""Spin-chain quantum state transfer: channels, fidelity distributions,
Monte Carlo validation and a brute-force reference.

The package splits along the physics pipeline: sector bases and chain
Hamiltonians -> spectral dynamics, whose amplitude rows feed both the
closed-form fidelity laws and the Kraus transfer channels -> sampling and
goodness-of-fit through the channels, with an independent
full-Hilbert-space oracle that certifies the shared rows and everything
built on them.
"""

from .chain import (
    Barrier,
    ChainSpec,
    Perfect,
    ProtocolKind,
    Weak,
    protocol_preset,
    sector_hamiltonian,
)
from .channel import (
    KrausSet,
    Scenario,
    apply_channel,
    fidelity,
    fidelity_many,
    kraus_for_scenario,
    kraus_one_qubit_uniform,
    kraus_one_qubit_vacuum,
    kraus_two_qubit_vacuum,
    pauli_transfer_matrix,
)
from .dynamics import (
    ChainDynamics,
    SpectralPropagator,
    amplitude_table_to_csv,
    diagonalize,
    dynamics_for,
    is_free_fermion,
    pair_rows,
    propagator_at,
    propagator_rows,
)
from .analytics import (
    FidelityLaw,
    MinBranch,
    MinFidelityResult,
    Mixture,
    PointMass,
    ProtocolTuning,
    QuadraticFidelity,
    ReadoutPlan,
    TwoQubitAffine,
    affine_from_kraus,
    avg_fidelity_curve,
    fidelity_law,
    find_optimal_time,
    min_fidelity_closed_form,
    phase_null_field,
    plan_readout,
    quadratic_reduce_one_qubit,
    time_for_target_avg,
    time_window_ladder,
    tune_with_ladder,
    vacuum_quadratic,
)
from .errors import (
    CapacityError,
    CertificationError,
    ModelError,
    NumericError,
    ParameterError,
    RangeError,
    SpinTransferError,
)
from .oracle import (
    FullState,
    block_hamiltonian,
    evolve_full,
    reduced_density,
    transfer_initial_state,
)
from .sampling import (
    Histogram,
    RandomStream,
    concurrence,
    default_bin_edges,
    ks_distance,
    mc_fidelity_histogram,
    sample_two_qubit_pure,
    schmidt_state,
)
from .sectors import SectorBasis, build_sector_basis
from .certify import run_certification

__version__ = "0.1.0"
