"""Exact harmonic analysis on bounded Vilenkin groups.

The package covers the truncated product group of cyclic levels: its
character system, fast and naive Fourier transforms, Dirichlet kernels and
Lebesgue constants, digit-variation bounds, the martingale H1 norm, and the
lacunary-block experiments around strong (non)convergence of partial sums.
"""

__version__ = "0.1.0"

from .radix import (
    RadixSystem,
    build_radix_system,
    decompose,
    parse_radix_spec,
)
from .spectral import (
    SpectralVector,
    StepFunction,
    character_block,
    cumulative_l1_norms,
    dirichlet_kernel,
    fejer_l1_norms,
    fejer_mean,
    forward_fast,
    forward_naive,
    inverse_transform,
    partial_sum,
    rademacher,
    vilenkin_char,
)
from .norms import (
    VariationProfile,
    l1_norm,
    lebesgue_constant,
    lebesgue_scan,
    max_lebesgue_log_ratio,
    variation_bound_arrays,
    variation_profile,
    variation_sum,
    variation_values,
)
from .hardy import (
    CounterexampleSpec,
    build_counterexample,
    check_norm_equivalence,
    counterexample_l1_norms,
    h1_norm,
    h1_pass,
    log_average,
    maximal_function,
    partial_sum_decomposition,
    strong_sum_average,
    verify_decomposition_norm,
    window_strong_average,
)
from .experiments import random_step_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
