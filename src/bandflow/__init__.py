"""Band-structure-preserving flow-equation diagonalization.

A sign-based generator eta_nm = sign(n - m) h_nm drives real symmetric
matrices to diagonal form by continuous unitary flow while exactly
preserving any band profile.  The package bundles the banded storage and
flow engine, Lipkin and spin-boson model builders with their reduced
flows, closed-form/asymptotic spectra, independent oracle eigensolvers,
and a CLI for reproducing the reference sweeps.
"""

from .band import (
    BandedSymmetricMatrix,
    IrreducibleBlock,
    make_banded,
    read_matrix,
    split_irreducible,
    write_matrix,
)
from .flow import (
    ConservationReport,
    FlowConfig,
    FlowResult,
    GeneratorKind,
    StiffFlowError,
    decay_rate_estimate,
    integrate_flow,
    mielke_eta,
    mielke_rhs,
    wegner_eta,
    wegner_rhs,
)
from .models import (
    LipkinParams,
    SpinBosonParams,
    TruncationError,
    build_lipkin_blocks,
    build_spinboson,
    certify_truncation,
    default_n_trunc,
    integrate_lipkin_reduced,
    integrate_spinboson_reduced,
    lipkin_reduced_conserved,
    lipkin_reduced_initial,
    lipkin_reduced_rhs,
    spinboson_delta0_flow,
    spinboson_reduced_rhs,
)
from .analytics import (
    AsymptoticEigenvalue,
    lipkin_rpa_gap,
    lipkin_rpa_spectrum,
    spinboson_eps_asym,
    spinboson_fnx,
)
from .oracle import SpectrumResult, eigenvalues_dense, eigenvalues_tridiag

__version__ = "0.1.0"
