"""Capacity of constrained channels with weighted symbols.

Models discrete noiseless channels as branch systems (trees of weighted,
labeled branches), enumerates their weight spectra exactly, computes the
combinatorial capacity by characteristic roots, spectral radii, or abscissa
estimates, computes the maximum entropy rate from per-level optima, builds
maxentropic Markov sources for regular channels, and cross-checks that the
two capacity notions coincide.
"""

from .capacity import (
    abscissa_estimate,
    characteristic_root,
    fsm_capacity,
    gf_eval,
)
from .errors import (
    BudgetExceededError,
    EstimatorError,
    InvalidSystemError,
    SpecFileError,
)
from .estimates import CapacityEstimate
from .maxent import (
    LevelPmf,
    LevelSolution,
    entropy_and_avg_weight,
    kl_gap,
    level_report_tsv,
    maxent_pmf,
    maxent_rate_estimate,
    solve_level_rate,
)
from .sampler import (
    MaxentChain,
    SamplePath,
    SampleSet,
    empirical_entropy_rate,
    maxent_chain,
    sample_level_paths,
    sample_paths,
    samples_tsv,
)
from .specfile import load_system
from .spectrum import (
    DensityReport,
    WeightSpectrum,
    density_check,
    empirical_capacity,
    spectrum_tsv,
    weight_spectrum,
)
from .systems import (
    BranchSystem,
    Symbol,
    WeightedFsm,
    fsm_to_branch_system,
    make_dyck_prefix,
    make_golden_mean,
    make_memoryless,
    make_rll,
    symbols,
)
from .verify import VerifyReport, verify_equality

__version__ = "0.1.0"

__all__ = [
    "BranchSystem",
    "BudgetExceededError",
    "CapacityEstimate",
    "DensityReport",
    "EstimatorError",
    "InvalidSystemError",
    "LevelPmf",
    "LevelSolution",
    "MaxentChain",
    "SamplePath",
    "SampleSet",
    "SpecFileError",
    "Symbol",
    "VerifyReport",
    "WeightSpectrum",
    "WeightedFsm",
    "abscissa_estimate",
    "characteristic_root",
    "density_check",
    "empirical_capacity",
    "empirical_entropy_rate",
    "entropy_and_avg_weight",
    "fsm_capacity",
    "fsm_to_branch_system",
    "gf_eval",
    "kl_gap",
    "level_report_tsv",
    "load_system",
    "make_dyck_prefix",
    "make_golden_mean",
    "make_memoryless",
    "make_rll",
    "maxent_chain",
    "maxent_pmf",
    "maxent_rate_estimate",
    "sample_level_paths",
    "sample_paths",
    "samples_tsv",
    "solve_level_rate",
    "spectrum_tsv",
    "symbols",
    "verify_equality",
    "weight_spectrum",
]
