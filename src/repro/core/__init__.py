"""Classification and containment decision procedures (Table 1)."""

from .axiom_search import (AxiomViolation, admissible_probe_polynomials,
                           falsify_nhcov, falsify_nin, falsify_nk_bi,
                           falsify_nk_hcov, falsify_nsur,
                           probe_polynomials)
from .classes import Classification, classify
from .containment import (decide_containment, decide_cq_containment,
                          decide_ucq_containment, k_equivalent)
from .context import DecisionContext
from .explain import (Explanation, check_homomorphism_certificate, explain)
from .small_model import small_model_contained, small_model_tests
from .verdict import Undecided, Verdict

__all__ = [
    "AxiomViolation", "Classification", "DecisionContext",
    "Undecided", "Verdict", "Explanation", "admissible_probe_polynomials",
    "check_homomorphism_certificate", "classify", "explain",
    "falsify_nhcov", "falsify_nin", "falsify_nk_bi", "falsify_nk_hcov",
    "falsify_nsur", "probe_polynomials",
    "decide_containment", "decide_cq_containment", "decide_ucq_containment",
    "k_equivalent",
    "small_model_contained", "small_model_tests",
]
