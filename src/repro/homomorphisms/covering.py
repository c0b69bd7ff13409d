"""Homomorphic covering ``Q2 ⇉ Q1`` (Sec. 4.1).

``Q2`` homomorphically covers ``Q1`` iff for every atom of ``Q1`` there
is a homomorphism from ``Q2`` to ``Q1`` whose image contains that atom.
This is the characterizing condition of the class ``Chcov``
(⊗-idempotent semirings with the ``Nhcov`` necessity axiom; the lineage
semiring is the flagship member, Thm. 4.3).  Checking it is
NP-complete.

Both functions take an optional ``context``
(:class:`repro.core.DecisionContext`), resolved once at the top: an
engine's ``covered`` layer computes and keeps the covered atoms;
``None`` computes them on a fresh engine.  The core dispatch imports
this package, so each function imports the resolver lazily.
"""

from __future__ import annotations

from ..queries.cq import CQ

__all__ = ["covers", "covered_atoms"]


def covered_atoms(source: CQ, target: CQ, *, context=None) -> frozenset:
    """The atoms of ``target`` that occur in the image of some
    homomorphism from ``source``."""
    from ..core.context import resolve_context
    return resolve_context(context).covered_atoms(source, target)


def covers(source: CQ, target: CQ, *, context=None) -> bool:
    """Decide ``source ⇉ target`` (homomorphic covering).

    Coverage is judged per distinct atom *value*: an atom occurring
    twice in ``target`` is covered as soon as its value appears in some
    homomorphic image (images cannot distinguish occurrences).
    """
    from ..core.context import resolve_context
    return resolve_context(context).covers(source, target)
