"""Symbolic dynamics over residually finite amenable groups, at desk scale.

Exact Banach densities on coset unions, Weyl/Besicovitch-style pseudometrics
between shift configurations, empirical measures with an exact Prokhorov
metric, pattern-counting entropy with exact inequality certificates, and
Toeplitz configuration builders (regular tables, a path of configurations
with Lipschitz disagreement density, and a positive-entropy construction).
"""

from .configs import (
    Alphabet,
    BINARY,
    CosetSet,
    Oracle,
    Periodic,
    ToeplitzTable,
    block_alternating,
    champernowne_binary,
    evaluate,
    geometric_box_lengths,
    per_set,
    per_set_letter,
    shift,
)
from .densities import (
    IntervalEstimate,
    banach_density_exact,
    banach_density_windowed,
)
from .entropy import (
    EntropyEstimate,
    PatternSet,
    SampledSystem,
    binomial_tail,
    entropy_continuity_bound,
    entropy_estimates,
    es_binomial_bound_holds,
    es_entropy,
    pattern_counting_bound_holds,
    pattern_set,
    separated_max,
    spanning_min,
)
from .groups import (
    Box,
    SubgroupChain,
    ball,
    box,
    make_chain,
)
from .measures import (
    EmpiricalMeasure,
    OmegaProfile,
    empirical_measure,
    hausdorff_distance,
    omega_profile,
    prokhorov_distance,
    total_variation,
)
from .metrics import (
    BesicovitchTrace,
    PseudometricReport,
    WeylBound,
    besicovitch_estimate,
    delta_star_exact,
    dstar_distance,
    shearer_values,
    weyl_upper_bound,
)
from .toeplitz import (
    KriegerResult,
    PsiPath,
    RegularityProfile,
    SkeletonReport,
    krieger_construct,
    meets_power_bound,
    periodic_approximation,
    psi_path,
    regular_table,
    regularity_profile,
    toeplitz_interpolate,
    verify_skeleton,
)

__version__ = "0.1.0"
