"""Shape-invariant rational extensions of the radial oscillator and
trigonometric Darboux-Poschl-Teller potentials, their exceptional-polynomial
eigenfunctions, and numerical certification of the defining identities.

Library modules log to the `isoshift` logger, which is silent until the
application configures logging.
"""

import logging

from .catalog import (
    Branch,
    Family,
    Function1D,
    RadialOscillator,
    TrigDPT,
    branches,
    get_branch,
    partner_potentials,
    potential,
    si_pair_check,
    superpotential,
    tau,
)
from .deform import (
    Deformation,
    ExtensionPair,
    certification_grid,
    extend,
    extend_general_R,
    seed_polynomial,
    w0_explicit,
    w0_from_ground_state,
    w0_partner_constant,
)
from .eop import (
    EOPSpec,
    WeightSpec,
    classical_ro_eigenfunction,
    eigenfunction_closed_form,
    eigenvalue,
    eop_eval,
    eop_polynomial_degree,
    gram_matrix,
    gram_offdiag_max,
    intertwine,
    ro_psi_plus,
    series_branch,
    weight_from_superpotential,
    weight_spec,
    zero_census,
)
from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    InternalInconsistencyError,
    IsoshiftError,
    QuadratureError,
    SingularExtensionError,
    SingularPotentialError,
)
from .spectral import (
    Grid,
    RegularityReport,
    SpectralReport,
    classify_regularity,
    default_grid,
    isospectrality_report,
    qhj_residual,
    schrodinger_residual,
    solve_bound_states,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
