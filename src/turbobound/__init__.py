"""Weight-2 distance analysis and union bounds for punctured parallel
concatenations of recursive systematic convolutional codes.

The package computes the dominant bit-error bound term from closed-form
enumerators, generates and classifies puncturing patterns (including the
m-sequence derived rate-1/2 family), and cross-checks every closed form
against an exact trellis pass and brute-force encoding.
"""

__version__ = "0.1.0"

from .gf2 import BinaryPolynomial, is_irreducible, is_primitive, lfsr_sequence
from .rsc import RscCode, core_weight, encode, step, weight2_parity_response
from .puncture import (Classification, PcccPunctureSet, PuncturingPattern,
                       classify, code_rate, column_index, complement_row,
                       extend_row, probe_length, pseudo_random_pattern,
                       punctured_core_weights, row_from_string, row_to_string)
from .cwef import (Cwef, cwef_w2_punctured, cwef_w2_unpunctured,
                   group_multiplicity, min_weights, path_weights)
from .oracle import (DpResult, GridCase, VerificationReport, brute_force_cwef,
                     default_verification_grid, diff_cwefs, exact_cwef_dp,
                     run_case, run_verification)
from .pccc import (BoundCurve, BoundPoint, IowefSlice, PcccConfig,
                   TruncatedBound, combine_uniform_interleaver,
                   distance_spectrum, free_effective_distance, iowef_slice, p2_approximation,
                   p2_slice, q_function, truncated_union_bound,
                   union_bound_term)

__all__ = [
    "__version__",
    "BinaryPolynomial", "is_irreducible", "is_primitive", "lfsr_sequence",
    "RscCode", "core_weight", "encode", "step", "weight2_parity_response",
    "Classification", "PcccPunctureSet", "PuncturingPattern", "classify",
    "code_rate", "column_index", "complement_row", "extend_row",
    "probe_length", "pseudo_random_pattern", "punctured_core_weights",
    "row_from_string", "row_to_string",
    "Cwef", "cwef_w2_punctured", "cwef_w2_unpunctured", "group_multiplicity",
    "min_weights", "path_weights",
    "DpResult", "GridCase", "VerificationReport", "brute_force_cwef",
    "default_verification_grid", "diff_cwefs", "exact_cwef_dp", "run_case",
    "run_verification",
    "BoundCurve", "BoundPoint", "IowefSlice", "PcccConfig",
    "TruncatedBound", "combine_uniform_interleaver", "distance_spectrum",
    "free_effective_distance",
    "iowef_slice", "p2_approximation", "p2_slice", "q_function",
    "truncated_union_bound", "union_bound_term",
]
