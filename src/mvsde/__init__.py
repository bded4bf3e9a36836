"""Particle simulation and verification toolkit for mean-field SDEs whose
coefficients may be log-Lipschitz rather than Lipschitz: a coupled
Euler-Maruyama solver on dyadic grids plus moment, metric, increment-scaling
and strong-rate diagnostics."""

from .measure import (
    EmpiricalMeasure,
    default_dictionary,
    dirac,
    rho_lower,
    rho_upper,
    uniform_measure,
)
from .models import (
    MODELS,
    CoefficientModel,
    ModulusKappaEta,
    check_h2prime,
    check_linear_growth,
    gamma_log,
    kappa_eta,
    make_model,
    mf_ou,
    osgood,
    sznitman,
)
from .paths import (
    BrownianLattice,
    DyadicGrid,
    NoiseStreams,
    coarsen,
    make_grid,
    sample_lattice,
)
from .solver import (
    BlowUpError,
    GaussianLaw,
    ParticleEnsemble,
    PointMass,
    TrajectorySet,
    UniformBox,
    em_multilevel,
    em_run,
    run_single,
    sample_initial,
)
from .analysis import (
    bihari_ode_check,
    fit_rate,
    increment_scaling,
    law_gap_curve,
    moment_curve,
    osgood_integral,
    strong_error,
)

__version__ = "0.1.0"
