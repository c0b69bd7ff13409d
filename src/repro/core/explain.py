"""Certificate checking and enriched containment explanations.

The dispatcher's verdicts carry certificates (homomorphism mappings,
for a ``transferred`` union verdict a
:class:`~repro.core.verdict.MemberMatching`, and for a ``refuted`` one
a :class:`~repro.core.verdict.Refutation`).  This module makes them
*independently checkable* — a reviewer need not trust the search — and
combines syntactic refutations with semantic witnesses from the oracle
into a single explanation object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..data.instance import Instance
from ..homomorphisms.search import HomKind
from ..oracle.brute_force import Counterexample, find_counterexample
from ..queries.cq import CQ
from ..queries.evaluation import evaluate
from ..queries.ucq import UCQ, as_ucq
from .containment import CQ_PROCEDURES, decide_containment
from .verdict import MemberMatching, Refutation, Verdict

__all__ = ["check_homomorphism_certificate", "check_member_matching",
           "check_refutation", "Explanation", "explain"]


def check_homomorphism_certificate(source: CQ, target: CQ, mapping: dict,
                                   kind: HomKind = HomKind.PLAIN) -> bool:
    """Verify that ``mapping`` is a homomorphism of the given kind.

    Checks (1) totality on the source variables, (2) positional head
    preservation, (3) every atom image occurring in the target, and
    (4) the multiset condition of ``kind`` — without running any search.
    """
    for var in _all_variables(source):
        if var not in mapping:
            return False
    for var, image in zip(source.head, target.head):
        if mapping.get(var, var) != image:
            return False
    target_counts: dict[Any, int] = {}
    for atom in target.atoms:
        target_counts[atom] = target_counts.get(atom, 0) + 1
    image_counts: dict[Any, int] = {}
    for atom in source.atoms:
        image = atom.substitute(mapping)
        if image not in target_counts:
            return False
        image_counts[image] = image_counts.get(image, 0) + 1
    if kind in (HomKind.INJECTIVE, HomKind.BIJECTIVE):
        if any(count > target_counts[atom]
               for atom, count in image_counts.items()):
            return False
    if kind in (HomKind.SURJECTIVE, HomKind.BIJECTIVE):
        if any(image_counts.get(atom, 0) < count
               for atom, count in target_counts.items()):
            return False
    return True


def check_member_matching(source: UCQ, target: UCQ,
                          matching: MemberMatching) -> bool:
    """Verify a ``transferred`` union certificate: every ``target``
    member is assigned exactly once, to a ``source`` member that no
    other target member shares, through a bijective homomorphism
    ``source member → target member`` (re-checked by
    :func:`check_homomorphism_certificate`)."""
    targets = [i for i, _, _ in matching.assignment]
    sources = [j for _, j, _ in matching.assignment]
    if sorted(targets) != list(range(len(target.cqs))):
        return False
    if len(set(sources)) != len(sources) or not all(
            0 <= j < len(source.cqs) for j in sources):
        return False
    return all(check_homomorphism_certificate(
        source.cqs[j], target.cqs[i], mapping, HomKind.BIJECTIVE)
        for i, j, mapping in matching.assignment)


def check_refutation(q1, q2, semiring, refutation: Refutation) -> bool:
    """Verify a ``refuted`` certificate against the decided pair: on
    the instance of its facts, the tuple-at-a-time evaluator
    (:func:`repro.queries.evaluation.evaluate`) must give ``Q1`` and
    ``Q2`` exactly the recorded values at the target, and ``Q1``'s
    must not be below ``Q2``'s.  A certificate the evaluator cannot
    read (a target of the wrong arity, a row of the wrong width) fails
    the check."""
    try:
        instance = Instance(semiring, _fact_table(refutation.facts))
        lhs = evaluate(as_ucq(q1), instance, refutation.target, semiring)
        rhs = evaluate(as_ucq(q2), instance, refutation.target, semiring)
    except (TypeError, ValueError):
        return False
    return (semiring.eq(lhs, refutation.lhs)
            and semiring.eq(rhs, refutation.rhs)
            and not semiring.leq(lhs, rhs))


def _fact_table(facts) -> dict[str, dict[tuple, object]]:
    """``(relation, row, value)`` triples as an ``Instance`` table; a
    row listed twice is malformed."""
    table: dict[str, dict[tuple, object]] = {}
    for relation, row, value in facts:
        rows = table.setdefault(relation, {})
        if tuple(row) in rows:
            raise ValueError(f"fact {relation}{tuple(row)} listed twice")
        rows[tuple(row)] = value
    return table


def _all_variables(query: CQ):
    return {v for atom in query.atoms for v in atom.variables()}


#: The homomorphism kind behind each method that certifies a mapping:
#: the CQ methods, and ``transferred`` on a pair of single members.
_METHOD_KINDS = {method: kind for method, _, kind in CQ_PROCEDURES.values()
                 if kind is not None} | {"transferred": HomKind.BIJECTIVE}


@dataclass(frozen=True)
class Explanation:
    """A verdict plus independently checkable evidence.

    ``certificate_valid`` — for positive homomorphism verdicts and
    ``refuted`` ones, the result of re-checking the certificate (None
    when not applicable).
    ``witness``           — for refutations, a semantic counterexample:
    a checked ``refuted`` certificate's own instance, else one from the
    oracle (None when containment holds, the certificate is bad, or no
    witness was found within budget).
    """

    verdict: Verdict
    certificate_valid: bool | None
    witness: Counterexample | None

    def summary(self) -> str:
        """One-line human-readable account."""
        check = {True: "certificate checked", False: "CERTIFICATE BAD",
                 None: "no checkable certificate"}[self.certificate_valid]
        if self.verdict.result is True:
            return f"contained [{self.verdict.method}; {check}]"
        if self.verdict.result is False:
            if self.certificate_valid is None:
                check = ("witness found" if self.witness is not None
                         else "no witness within budget")
            return f"not contained [{self.verdict.method}; {check}]"
        return f"undecided [{self.verdict.explanation}]"


def explain(q1, q2, semiring, witness_budget: int = 1500, *,
            context=None) -> Explanation:
    """Decide ``Q1 ⊆K Q2`` (through
    :func:`~repro.core.containment.decide_containment`) and attach
    checkable evidence.

    ``context`` threads a :class:`~repro.core.context.DecisionContext`
    into the decision (pass ``engine.context`` so the explanation
    reuses — and warms — an engine's caches; ``None``: a fresh engine).
    """
    verdict = decide_containment(q1, q2, semiring, context=context)
    certificate_valid = None
    certificate = verdict.certificate
    kind = _METHOD_KINDS.get(verdict.method)
    if verdict.result is True and isinstance(certificate, MemberMatching):
        certificate_valid = check_member_matching(as_ucq(q2), as_ucq(q1),
                                                  certificate)
    elif verdict.result is True and certificate is not None \
            and kind is not None:
        # A mapping certificate: both sides are CQs or singleton unions.
        certificate_valid = check_homomorphism_certificate(
            as_ucq(q2).cqs[0], as_ucq(q1).cqs[0], certificate, kind)
    witness = None
    if verdict.result is False and isinstance(certificate, Refutation):
        # The certificate is a witness itself: check it, and run no
        # oracle search (which can take minutes on the pairs the probe
        # refutes at once).
        certificate_valid = check_refutation(q1, q2, semiring, certificate)
        if certificate_valid:
            witness = Counterexample(
                Instance(semiring, _fact_table(certificate.facts)),
                certificate.target, certificate.lhs, certificate.rhs,
                source="refuter probe")
    elif verdict.result is False:
        witness = find_counterexample(q1, q2, semiring,
                                      budget=witness_budget)
    return Explanation(verdict, certificate_valid, witness)
