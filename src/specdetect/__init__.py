"""Optimal linear spectral statistics for detecting weak principal components.

The pipeline: solve the spectral fixed-point equation for a discrete
population bulk, differentiate the forward map toward a spike
distribution, solve the first-kind integral equation for the best test
function, and validate power by Monte Carlo against the top-eigenvalue
test.
"""

__version__ = "0.1.0"

from .classical import (
    catalog_ids,
    equivalent_lss,
    evaluate_statistic,
    omh_z,
)
from .kernel import (
    EfficacyReport,
    KernelMatrix,
    SolvedDerivative,
    assemble_diagreg,
    lss_moments,
    solve_collocation,
    solve_diagreg,
)
from .measures import AtomicMeasure
from .mp import (
    SilversteinError,
    StieltjesCurve,
    SupportSet,
    derivative_map,
    esd_expectation,
    esd_moment,
    forward_moments,
    solve_real_outside,
    solve_silverstein,
    stieltjes_grid,
    support_intervals,
)
from .optimal import (
    AlgoConfig,
    LssFunction,
    SpikedModel,
    epanechnikov,
    integrate_derivative,
    lss_above_pt,
    optimal_ls3,
    optimal_lss,
)
from .simulate import (
    PowerCurve,
    SimConfig,
    apply_lss,
    ar1_eigenvalues,
    power_experiment,
    sample_eigenvalues,
)
from .weak_derivative import (
    SignedMeasureCdf,
    SpikeRecord,
    classify_spikes,
    delta_diff,
    spike_forward_map,
    spike_forward_map_prime,
    weak_derivative_cdf,
    weak_derivative_st_at,
)

__all__ = [
    "catalog_ids", "equivalent_lss", "evaluate_statistic", "omh_z", "EfficacyReport",
    "KernelMatrix", "SolvedDerivative", "assemble_diagreg", "lss_moments", "solve_collocation",
    "solve_diagreg", "AtomicMeasure", "SilversteinError", "StieltjesCurve", "SupportSet",
    "derivative_map", "esd_expectation", "esd_moment", "forward_moments", "solve_real_outside",
    "solve_silverstein", "stieltjes_grid", "support_intervals", "AlgoConfig", "LssFunction",
    "SpikedModel", "epanechnikov", "integrate_derivative", "lss_above_pt", "optimal_ls3",
    "optimal_lss", "PowerCurve", "SimConfig", "apply_lss", "ar1_eigenvalues",
    "power_experiment", "sample_eigenvalues", "SignedMeasureCdf", "SpikeRecord",
    "classify_spikes", "delta_diff", "spike_forward_map", "spike_forward_map_prime",
    "weak_derivative_cdf", "weak_derivative_st_at",
]
