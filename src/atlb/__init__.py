"""Alternation-trading lower-bound proofs with a generic slowdown parameter.

Exact rule engine and certificate verifier, LP-guided proof search with exact
certification, closed-form limit constants, and a quantitative model of the
quantum slowdown.
"""

from .analytics import (
    Cubic,
    emit_curve,
    largest_root_cubic,
    p_alpha,
    p_alpha_roots,
    real_roots_cubic,
    threshold_bounds,
)
from .grover import (
    SearchInstance,
    collapse_argmin,
    collapse_exponent,
    grover_cost,
    grover_exponent,
    random_iteration_success,
    simulate_grover,
    success_probability,
)
from .kernel import (
    BP_TS,
    BPTS_MODE,
    DET_TS,
    EXISTS,
    FORALL,
    TS_MODE,
    AltClass,
    AnnotationError,
    Block,
    ClassError,
    ValidityReport,
    check_orderly,
    enumerate_annotations,
    format_class,
    format_rational,
    parse_class,
    parse_rational,
    validate_annotation,
)
from .proofs import (
    annotation_certificate,
    bpts_grover_proof,
    bpts_proof,
    good_proof,
    good_proof_best_c,
    good_proof_contradicts,
    good_proof_limit,
    grover_certificate,
)
from .rules import (
    CertificateError,
    ProofCertificate,
    ProofReport,
    RuleError,
    RuleStep,
    apply_step,
    format_certificate,
    grover_collapse,
    grover_round,
    parse_certificate,
    slowdown_generic,
    speedup,
    speedup_first,
    speedup_randomized,
    squiggle,
    verify_proof,
)

# the float search loads numpy and scipy: its names resolve on first use
_SEARCH_NAMES = {
    "Feasibility",
    "ScanReport",
    "SearchResult",
    "best_exponent",
    "feasible",
    "optimality_scan",
    "search_best",
}


def __getattr__(name):
    if name in _SEARCH_NAMES:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# a star import takes the search names too, as it did before they were lazy
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _SEARCH_NAMES)
__version__ = "0.1.0"
