"""Integers whose digits stay small in several bases at once.

The package splits into layers: exact digit bookkeeping (`digits`),
carry-free binomial arithmetic (`kummer`), threshold conditions
(`criteria`), exhaustive searches (`searcher`), explicit constructions
(`constructors`), digit-set exponential sums (`harmonic`), and
equidistribution experiments (`equidist`). The `smalldigits` console
script exposes each layer as a subcommand. The names imported below are
the package's public API.
"""

__version__ = "0.1.0"

from .constructors import (
    BlockConfig,
    BlockTrace,
    EgrsTrace,
    RepairMove,
    block_construct,
    block_find_shift,
    egrs_construct,
    stability_check,
)
from .criteria import (
    ConditionReport,
    EqualBaseThreshold,
    conjecture_sum,
    egrs_condition,
    equal_base_threshold,
    prop_sum,
    theorem_sum,
)
from .digits import (
    BaseSpec,
    DigitVector,
    from_digits,
    large_digit_count,
    multi_base_profile,
    render_digit_grid,
    to_digits,
)
from .equidist import (
    ExponentSystem,
    bad_n_census,
    discrepancy_estimate,
    frac_exponents,
    lattice_min_combination,
    power_sum_norm,
)
from .errors import BudgetExceededError
from .harmonic import (
    BumpParams,
    BumpReport,
    SmallDigitFamily,
    SpectrumQuery,
    bump_fourier_coeff,
    bump_property_report,
    exp_sum_direct,
    exp_sum_product,
    gamma_vectors,
    large_spectrum_enumerate,
    spectrum_bound,
)
from .kummer import GrahamSplit, central_binom_valuation, graham_split, is_prime
from .searcher import (
    DensityReport,
    SearchSpec,
    density_vs_heuristic,
    enumerate_small,
    graham_census,
    multi_base_search,
    resumable_search,
)
