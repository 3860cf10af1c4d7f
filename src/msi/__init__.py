"""Short-interval mean squares of sieved arithmetic functions.

The library tabulates f = g*1 for finitely supported g, forms the
triangular-weight short sums around each center x in (N, 2N], subtracts the
expected value, and measures the mean square: directly by a prefix-sum
sweep and independently through its spectral decomposition over reduced
fractions (Ramanujan coefficients, window-kernel values, closed-form
exponential sums). Verification suites check every identity, bound and
partition at desk scale; the majorant experiment compares the mean square
of g*1 against that of a pointwise majorant G*1 plus N*h.
"""

from .arith import (
    FunctionTable,
    SupportCutoff,
    apply_cutoff,
    dirichlet_convolve_unit,
    divisors,
    essential_bound_probe,
    mobius_invert,
    power_floor,
    preset_table,
    random_rational_table,
    read_csv,
    sieve_divisor_count,
    sieve_mobius,
    write_csv,
)
from .farey import (
    FareyFraction,
    FareySequence,
    PairPartition,
    delta_key,
    farey_enumerate,
    farey_full,
    min_gap,
    sigma_key,
    spaced_pair_partition,
)
from .integral import (
    DecompositionReport,
    FarPartReport,
    IntegralConfig,
    MajorantReport,
    ResourceBudgetError,
    diagonal_term,
    far_part_bound_check,
    majorant_compare,
    selberg_integral_decomposed,
    selberg_integral_direct,
)
from .short_sums import (
    FejerWindow,
    PrefixSums,
    averaged_double_sum,
    chi_tilde_direct,
    fejer_short_sum,
    mean_value,
)
from .spectral import (
    FejerCoefficient,
    RamanujanTable,
    chi_tilde_expansion,
    coefficient_square_sum,
    exp_sum_closed_form,
    fejer_coefficient,
    fejer_kernel_value,
    ramanujan_coefficient,
    ramanujan_table,
)

__version__ = "0.1.0"

__all__ = [
    "FunctionTable",
    "SupportCutoff",
    "FejerWindow",
    "PrefixSums",
    "FejerCoefficient",
    "RamanujanTable",
    "FareyFraction",
    "FareySequence",
    "PairPartition",
    "IntegralConfig",
    "DecompositionReport",
    "FarPartReport",
    "MajorantReport",
    "ResourceBudgetError",
    "sieve_mobius",
    "sieve_divisor_count",
    "dirichlet_convolve_unit",
    "mobius_invert",
    "apply_cutoff",
    "preset_table",
    "random_rational_table",
    "divisors",
    "power_floor",
    "essential_bound_probe",
    "write_csv",
    "read_csv",
    "fejer_short_sum",
    "averaged_double_sum",
    "mean_value",
    "chi_tilde_direct",
    "fejer_kernel_value",
    "fejer_coefficient",
    "chi_tilde_expansion",
    "coefficient_square_sum",
    "ramanujan_coefficient",
    "ramanujan_table",
    "farey_enumerate",
    "farey_full",
    "min_gap",
    "delta_key",
    "sigma_key",
    "spaced_pair_partition",
    "selberg_integral_direct",
    "selberg_integral_decomposed",
    "diagonal_term",
    "exp_sum_closed_form",
    "far_part_bound_check",
    "majorant_compare",
]
