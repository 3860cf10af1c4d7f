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
    farey_columns,
    farey_full,
    min_gap,
    pair_key,
    spaced_pair_partition,
)
from .integral import (
    IntegralConfig,
    ResourceBudgetError,
    diagonal_term,
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
    chi_tilde_expansion,
    coefficient_square_sum,
    exp_sum_closed_form,
    fejer_kernel_value,
    ramanujan_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "FunctionTable",
    "SupportCutoff",
    "FejerWindow",
    "PrefixSums",
    "IntegralConfig",
    "ResourceBudgetError",
    "sieve_mobius",
    "sieve_divisor_count",
    "dirichlet_convolve_unit",
    "mobius_invert",
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
    "chi_tilde_expansion",
    "coefficient_square_sum",
    "ramanujan_coefficient",
    "farey_columns",
    "farey_full",
    "min_gap",
    "pair_key",
    "spaced_pair_partition",
    "selberg_integral_direct",
    "selberg_integral_decomposed",
    "diagonal_term",
    "exp_sum_closed_form",
    "majorant_compare",
]
