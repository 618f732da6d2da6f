"""Exact enumeration of {+1,-1}^(r+1) lattice walks ending on a hyperplane.

Six families of walks (ending on the last-coordinate hyperplane, optionally
confined to the half-space above it, optionally avoiding backtracking or
repeated steps) counted by several independent methods that are cross-checked
against each other: brute-force enumeration, dynamic programming, binomial
closed forms, terminating hypergeometric sums, holonomic recurrences, and
generating-function expansion, plus singularity asymptotics and a run-length
bijection onto diagonal-step paths, each path a tuple of signed jumps.
"""

from .core import (
    ConsistencyError,
    DimensionMismatch,
    BudgetExceeded,
    LanguageSpec,
    PatternKind,
    StepFormatError,
    Word,
    parse_step,
    parse_word,
    step_alphabet,
)
from .automata import (
    accepts_halfspace,
    accepts_hyperplane,
    avoids_pattern,
    recognize,
)
from .oracle import (
    count_dp,
    count_dp_first_step,
    count_dp_multi,
    count_dp_seq,
    enumerate_words,
    naive_census,
)
from .formulas import (
    HypergeometricSpec,
    SingularParameterError,
    a_multi,
    a_multi_recurrence,
    catalan,
    central_binomial,
    closed_form,
    cross_ratio_check,
    hyper_form,
    hyper_terminating,
    recurrence_seq,
)
from .series import asymptotic_form, asymptotic_ratio, gf_series
from .bijection import (
    BijectionDomainError,
    count_E_double_prime,
    phi,
    phi_inverse,
    run_decompose,
    verify_bijection,
)
from .bfile import bfile_emit, bfile_parse, oeis_fetch
from .checks import run_check

__version__ = "0.1.0"

__all__ = [
    "BijectionDomainError",
    "BudgetExceeded",
    "ConsistencyError",
    "DimensionMismatch",
    "HypergeometricSpec",
    "LanguageSpec",
    "PatternKind",
    "SingularParameterError",
    "StepFormatError",
    "Word",
    "a_multi",
    "a_multi_recurrence",
    "accepts_halfspace",
    "accepts_hyperplane",
    "asymptotic_form",
    "asymptotic_ratio",
    "avoids_pattern",
    "bfile_emit",
    "bfile_parse",
    "catalan",
    "central_binomial",
    "closed_form",
    "count_E_double_prime",
    "count_dp",
    "count_dp_first_step",
    "count_dp_multi",
    "count_dp_seq",
    "cross_ratio_check",
    "enumerate_words",
    "gf_series",
    "hyper_form",
    "hyper_terminating",
    "naive_census",
    "oeis_fetch",
    "parse_step",
    "parse_word",
    "phi",
    "phi_inverse",
    "recognize",
    "recurrence_seq",
    "run_check",
    "run_decompose",
    "step_alphabet",
    "verify_bijection",
]
