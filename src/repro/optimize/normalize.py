"""Semiring-aware normal forms for queries.

``normalize_ucq`` composes the optimizer's certified transformations —
per-member minimization, union redundancy elimination — with canonical
variable renaming, yielding a normal form such that:

* the result is ``K``-equivalent to the input (every step is certified
  by the Table-1 procedures; undecidable steps are skipped), and
* for ``Chom`` semirings, ``K``-equivalent inputs produce *equal*
  outputs (cores are unique up to isomorphism, and the canonical
  renaming removes the isomorphism slack) — a syntactic equivalence
  check by normalization, tested in ``tests/test_normalize.py``.

The canonical renaming is capture-free: fresh existential names skip
every head-variable name, so a head variable literally named ``e0``
can never absorb an existential (see
:func:`repro.homomorphisms.canonical.fresh_existential_labels`).
"""

from __future__ import annotations

from ..core.context import resolve_context
from ..homomorphisms.isomorphism import canonical_rename
from ..queries.ucq import UCQ, as_ucq
from .minimize import minimize_cq
from .redundancy import eliminate_redundant_members

__all__ = ["normalize_ucq", "normalize_cq"]


def normalize_cq(query, semiring, *, context=None):
    """Minimize one CQ under ``K`` and rename it canonically.

    ``context`` is threaded into the minimization's equivalence checks
    (pass ``engine.context`` to reuse an engine's caches).
    """
    context = resolve_context(context)
    minimized = minimize_cq(query, semiring, context=context).query
    return canonical_rename(minimized)


def normalize_ucq(query, semiring, *, context=None) -> UCQ:
    """The ``K``-normal form of a UCQ.

    Pipeline: minimize each member, drop provably redundant members,
    rename every member canonically (the UCQ constructor then sorts
    members deterministically).  ``context`` is threaded into every
    certified step (``None``: one fresh engine for all of them).
    """
    context = resolve_context(context)
    union = as_ucq(query)
    minimized = UCQ(tuple(
        minimize_cq(member, semiring, context=context).query
        for member in union))
    reduced = eliminate_redundant_members(minimized, semiring,
                                          context=context).query
    return UCQ(tuple(canonical_rename(member) for member in reduced))
