"""Exact free-cumulant calculus on non-crossing partitions, free products of
*-probability spaces, and executable freeness/positivity verification."""

from .errors import (
    DimensionMismatchError,
    FactorMismatchError,
    NCProbError,
    OrderViolationError,
    SizeOutOfRangeError,
    SpecFormatError,
    TruncationError,
    ValidationError,
)
from .scalar import ComplexRational
from .nc_lattice import (
    Partition,
    catalan,
    enumerate_nc,
    is_noncrossing,
    leq,
    moebius,
    parse_partition,
)
from .moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
    Polynomial,
    Word,
    factor_state_from_json,
    parse_word,
)
from .cumulant_calculus import (
    CumulantTable,
    MomentSequence,
    cumulant_table_from_json,
    cumulants_from_moment_sequence,
    first_block_cumulant,
    first_block_moment,
    free_convolve_additive,
    kappa_n,
    kappa_words,
    moment_sequence_from_cumulants,
)
from .free_product import (
    FreeElement,
    ProductSpace,
    TensorWord,
    product_space_from_json,
)
from .verification import (
    ExplicitJointState,
    FreenessReport,
    GramMatrix,
    JointState,
    PositivityResult,
    check_freeness_cumulants,
    check_freeness_moments,
    check_positivity,
    ldlt_psd,
    variance_factorization,
)

__version__ = "0.1.0"
