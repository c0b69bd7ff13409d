"""repro — a full reproduction of *Classification of Annotation Semirings
over Query Containment* (Kostylev, Reutter, Salamon; PODS 2012).

The library implements annotated databases (K-relations) over
commutative positive semirings, conjunctive queries and unions thereof,
the homomorphism taxonomy (plain / covering / injective / surjective /
bijective), complete descriptions, CQ-admissible polynomials, the
tropical small-model procedure, and the Table-1 decision procedures for
query containment — plus a brute-force semantic oracle used to validate
every procedure.

Quickstart — the cached facade (recommended)::

    from repro import ContainmentEngine

    engine = ContainmentEngine()
    engine.decide("Q() :- R(u, v), R(u, w)",
                  "Q() :- R(u, v), R(u, v)", "B").result     # True
    engine.decide("Q() :- R(u, v), R(u, w)",
                  "Q() :- R(u, v), R(u, v)", "N[X]").result  # False

or the loose functions::

    from repro import B, NX, parse_cq, decide_cq_containment

    q1 = parse_cq("Q() :- R(u, v), R(u, w)")
    q2 = parse_cq("Q() :- R(u, v), R(u, v)")
    decide_cq_containment(q1, q2, B).unwrap()    # True  (set semantics)
    decide_cq_containment(q1, q2, NX).unwrap()   # False (provenance)
"""

from .algebra import RewriteCheck, check_rewrite, table
from .api import (ContainmentEngine, ContainmentRequest, EngineStats,
                  VerdictDocument)
from .core import (Classification, Undecided, Verdict, classify,
                   decide_containment, decide_cq_containment,
                   decide_ucq_containment, explain, k_equivalent,
                   small_model_contained)
from .data import CanonicalInstance, Instance, canonical_instance
from .homomorphisms import (CanonicalForm, HomKind, are_isomorphic,
                            automorphism_count, bi_count_infty, bi_count_k,
                            canonical_form, canonical_key, canonical_rename,
                            covering_2, covering_union, covers,
                            endomorphisms, find_homomorphism,
                            has_homomorphism, homomorphisms,
                            is_automorphism, isomorphism_classes,
                            local_condition, sur_infty)
from .polynomials import (Monomial, Polynomial, is_cq_admissible,
                          max_plus_poly_leq, min_plus_poly_leq)
from .queries import (CQ, UCQ, Atom, CQWithInequalities, Var, as_ucq,
                      complete_description, complete_description_ucq,
                      evaluate, evaluate_all, parse_cq, parse_ucq,
                      valuations)
from .semirings import (ACCESS, ALL_SEMIRINGS, B, BX, DEFAULT_REGISTRY,
                        EVENTS, FUZZY, LIN, LUKASIEWICZ, N, N2X,
                        N2_SATURATING, N3X, N3_SATURATING, NX, POSBOOL,
                        RPLUS, SORP, TMINUS, TPLUS, TRIO, VITERBI, WHY,
                        Semiring, SemiringProperties, SemiringRegistry,
                        get_semiring)
from .oracle import Counterexample, find_counterexample, refutes

__version__ = "1.0.0"

__all__ = [
    "ACCESS", "ALL_SEMIRINGS", "Atom", "B", "BX", "CQ",
    "CQWithInequalities", "CanonicalForm", "CanonicalInstance",
    "Classification", "ContainmentEngine", "ContainmentRequest",
    "Counterexample", "DEFAULT_REGISTRY", "EVENTS", "EngineStats",
    "FUZZY", "HomKind", "Instance", "LIN",
    "LUKASIEWICZ", "Monomial", "N", "N2X", "N2_SATURATING", "N3X",
    "N3_SATURATING", "NX", "POSBOOL", "Polynomial", "RPLUS", "SORP",
    "Semiring", "SemiringProperties", "SemiringRegistry", "TMINUS",
    "TPLUS", "TRIO", "UCQ",
    "Undecided", "VITERBI", "Var", "Verdict", "VerdictDocument", "WHY",
    "are_isomorphic",
    "as_ucq", "automorphism_count", "bi_count_infty", "bi_count_k",
    "canonical_form", "canonical_instance", "canonical_key",
    "canonical_rename", "classify", "complete_description",
    "complete_description_ucq", "covering_2", "covering_union", "covers",
    "decide_containment", "decide_cq_containment",
    "decide_ucq_containment", "endomorphisms",
    "evaluate", "evaluate_all", "find_counterexample", "find_homomorphism",
    "get_semiring", "has_homomorphism", "homomorphisms",
    "is_automorphism", "is_cq_admissible", "isomorphism_classes",
    "k_equivalent", "local_condition",
    "max_plus_poly_leq", "min_plus_poly_leq", "parse_cq", "parse_ucq",
    "refutes", "small_model_contained", "sur_infty", "valuations",
    "RewriteCheck", "check_rewrite", "explain", "table",
]
