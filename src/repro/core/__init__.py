"""Analytical core: the paper's model, its optimum, and sensitivity tools.

This package is pure model code (numpy/scipy only, no netlist machinery)
implementing Sections 2–5 of Schuster et al., DATE 2006.
"""

from .architecture import ArchitectureParameters
from .bounded import (
    bounded_constrained_power,
    bounded_optimum,
    vth_ceiling_is_active,
)
from .calibration import PublishedRow, calibrate_row, calibrate_rows
from .closed_form import (
    ClosedFormBreakdown,
    InfeasibleConstraintError,
    closed_form_breakdown,
    closed_form_optimum,
    ptot_eq13,
    ptot_eq13_adaptive,
)
from .constants import DEFAULT_TEMPERATURE, UT_300K, thermal_voltage
from .energy import EnergyPoint, energy_point, energy_sweep, minimum_energy_point
from .constraint import (
    chi,
    chi_for_architecture,
    chi_from_operating_point,
    is_feasible_linearized,
    vth_exact,
    vth_linearized,
)
from .linearization import LinearFit, fit_vdd_root, paper_fit
from .numerical import (
    GridResult,
    constrained_total_power,
    grid_optimum,
    numerical_optimum,
    numerical_optimum_linearized,
)
from .optimum import OperatingPoint, OptimizationResult, approximation_error_percent
from .power_model import (
    critical_path_delay,
    dynamic_power,
    gate_delay,
    max_frequency,
    on_current,
    power_breakdown,
    static_power,
    total_power,
)
from .sensitivity import (
    crossover_frequency,
    elasticities,
    elasticity,
    frequency_sweep,
    sweep,
)
from .technology import (
    ST_CMOS09_FLAVOURS,
    ST_CMOS09_HS,
    ST_CMOS09_LL,
    ST_CMOS09_ULL,
    Technology,
    flavour,
    flavour_line,
)
from .transforms import (
    DIAGONAL_PIPELINE,
    HORIZONTAL_PIPELINE,
    PARALLELIZATION,
    SEQUENTIALIZATION,
    ParallelizationModel,
    PipelineModel,
    SequentializationModel,
    parallelize,
    pipeline,
    sequentialize,
)

__all__ = [
    "ArchitectureParameters",
    "ClosedFormBreakdown",
    "DEFAULT_TEMPERATURE",
    "DIAGONAL_PIPELINE",
    "EnergyPoint",
    "GridResult",
    "HORIZONTAL_PIPELINE",
    "InfeasibleConstraintError",
    "LinearFit",
    "OperatingPoint",
    "OptimizationResult",
    "PARALLELIZATION",
    "ParallelizationModel",
    "PipelineModel",
    "PublishedRow",
    "SEQUENTIALIZATION",
    "ST_CMOS09_FLAVOURS",
    "ST_CMOS09_HS",
    "ST_CMOS09_LL",
    "ST_CMOS09_ULL",
    "SequentializationModel",
    "Technology",
    "UT_300K",
    "approximation_error_percent",
    "bounded_constrained_power",
    "bounded_optimum",
    "calibrate_row",
    "calibrate_rows",
    "chi",
    "chi_for_architecture",
    "chi_from_operating_point",
    "closed_form_breakdown",
    "closed_form_optimum",
    "constrained_total_power",
    "critical_path_delay",
    "crossover_frequency",
    "dynamic_power",
    "elasticities",
    "elasticity",
    "energy_point",
    "energy_sweep",
    "fit_vdd_root",
    "flavour",
    "flavour_line",
    "frequency_sweep",
    "gate_delay",
    "grid_optimum",
    "is_feasible_linearized",
    "max_frequency",
    "minimum_energy_point",
    "numerical_optimum",
    "numerical_optimum_linearized",
    "on_current",
    "paper_fit",
    "parallelize",
    "pipeline",
    "power_breakdown",
    "ptot_eq13",
    "ptot_eq13_adaptive",
    "sequentialize",
    "static_power",
    "sweep",
    "thermal_voltage",
    "total_power",
    "vth_ceiling_is_active",
    "vth_exact",
    "vth_linearized",
]
