"""Weight-2 distance analysis and union bounds for punctured parallel
concatenations of recursive systematic convolutional codes.

The package computes the dominant bit-error bound term from closed-form
enumerators, generates and classifies puncturing patterns (including the
m-sequence derived rate-1/2 family), and cross-checks every closed form
against an exact trellis pass and brute-force encoding.

The names below are the ones the README quick start and the demos
import; everything else lives in its module.
"""

__version__ = "0.1.0"

from .gf2 import lfsr_sequence
from .rsc import RscCode, weight2_parity_response
from .puncture import (PcccPunctureSet, classify, code_rate,
                       pseudo_random_pattern, punctured_core_weights,
                       row_from_string, row_to_string)
from .cwef import cwef_w2_punctured, cwef_w3_punctured
from .oracle import brute_force_cwef, diff_cwefs, exact_cwef_dp
from .pccc import PcccConfig, p2_approximation, truncated_union_bound
