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
from .search import (
    Feasibility,
    ScanReport,
    SearchResult,
    annotation_certificate,
    best_exponent,
    bpts_grover_proof,
    bpts_proof,
    feasible,
    good_proof,
    good_proof_best_c,
    good_proof_contradicts,
    good_proof_limit,
    grover_certificate,
    optimality_scan,
    search_best,
)

__version__ = "0.1.0"
