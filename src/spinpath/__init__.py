"""Two-qubit spin-path decoherence toolkit.

Closed-form and numerically integrated master-equation dynamics for two
projector-valued decoherence modes, matching discrete Kraus maps,
Gaussian-fluctuating conditioned spin rotations (analytic and Monte
Carlo ensemble averages with coupling calibration), and simulated
two-qubit state tomography.
"""

from .interferometer import (
    EnsembleEstimate,
    FieldSetup,
    ensemble_average_analytic,
    ensemble_average_monte_carlo,
    lambda_from_sigma,
)
from .kraus import (
    lindblad_generators_from_kraus,
    trotter_evolve,
)
from .lindblad import (
    DecoherenceSpec,
    SystemHamiltonian,
    evolve,
    integrate_master,
)
from .measures import (
    MeasureReport,
    concurrence,
    concurrence_bell_diagonal,
    measure_report,
    mixedness,
)
from .states import (
    BellWeights,
    StateValidationError,
    bell_diagonal,
    bell_state,
    experiment_initial,
    from_pure,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    validate_density_matrix,
)
from .tomography import (
    Reconstruction,
    project_psd,
    reconstruct_linear,
    simulate_counts,
)

__version__ = "0.1.0"
