"""Exact solvers for the minimum sum-rate problem in communication for
omniscience: the parametric Dilworth-truncation sweep, the principal
sequence of partitions, and successive-omniscience planning.

All arithmetic is exact: the core runs on ints over each model's entropy
scale, and the API returns `fractions.Fraction`s; breakpoints, partitions
and rate vectors carry no floating-point error.
"""

from .dilworth import (AlphaFunction, DilworthResult, coordinate_saturation,
                       dilworth_truncation, partition_value)
from .errors import (CapacityError, DecompositionError, DomainError,
                     InternalError, ModelFormatError, OmnirateError,
                     SolverError)
from .model import (BitPoolSource, EntropyTable, SourceModel, Violation,
                    as_rational, partition_entropy, validate)
from .modelfile import format_bitpool, format_table, load_model, parse_model
from .oracle import (brute_dilworth, brute_min_sum_rate, check_achievable,
                     partitions_of)
from .par import (MinimizerChain, ParState, PSPResult, extract_psp,
                  fusion_oracle_at, initial_state, iter_parametric,
                  mda_reference, parametric_iteration, run_parametric,
                  solve_chain_breakpoints)
from .partition import (AffineValue, Partition, Segmented)
from .sfm import (FusionOracle, SfmResult, minimize, minimize_brute,
                  minimize_cut, minimize_mnp)
from .so import (SOPlan, decompose_rates, find_complimentary,
                 lower_bound_alpha, plan_from_state, verify_complimentary)
from .verify import Check, Verification, fusion_gaps, verify_model

__version__ = "0.1.0"
