"""Spin-chain quantum state transfer: channels, fidelity distributions,
Monte Carlo validation and a brute-force reference.

The package splits along the physics pipeline: sector bases and chain
Hamiltonians -> spectral dynamics, whose amplitude rows feed the
closed-form fidelity laws; a full-Hilbert-space oracle, stored and evolved
per excitation-number block, builds the Kraus transfer channels -> sampling
and goodness-of-fit through the channels, which check the laws with no
amplitude code in common.
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
    fidelity_many,
    kraus_at_times,
    pauli_transfer_matrix,
)
from .dynamics import (
    SpectralPropagator,
    diagonalize,
    is_free_fermion,
    propagator_at,
    propagator_rows,
    sector_spectrum,
)
from .analytics import (
    FidelityLaw,
    ProtocolTuning,
    ReadoutPlan,
    affine_from_kraus,
    avg_fidelity_curve,
    fidelity_law,
    find_optimal_time,
    min_fidelity_closed_form,
    phase_null_field,
    plan_readout,
    quadratic_reduce_one_qubit,
    time_for_target_avg,
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
    evolve_many,
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
