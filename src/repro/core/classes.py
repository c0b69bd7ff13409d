"""The semiring class taxonomy of Table 1.

Sufficient classes are defined by (in)equational axioms on the semiring:

* ``Shcov`` — ⊗-idempotence          (covering is sufficient, Prop. 4.1)
* ``Sin``   — 1-annihilation         (injective sufficient, Prop. 4.5)
* ``Ssur``  — ⊗-semi-idempotence     (surjective sufficient, Prop. 4.12)
* ``S¹/Sk`` — ⊕-idempotence / offset (UCQ locality, Prop. 5.1/5.12)

Necessary classes (``Nhcov``, ``Nin``, ``Nsur``, ``N¹in`` …) are defined
through conditions on (CQ-admissible) polynomials and are declared on
each semiring's :class:`~repro.semirings.base.SemiringProperties`.

The decidable classes are the intersections; this module computes them
all from a properties record.  :data:`CQ_CLASSES` and :data:`UCQ_CLASSES`
list them in dispatch priority order, once: the class report and
:mod:`repro.core.containment`'s dispatch both read these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..semirings.base import Semiring, SemiringProperties

__all__ = ["CQ_CLASSES", "Classification", "SUFFICIENT_CLASSES", "UCQ_CLASSES",
           "classify"]


@dataclass(frozen=True)
class Classification:
    """All Table-1 class memberships of one semiring."""

    name: str
    offset: float

    # Sufficient (axiomatic) classes.
    s_hcov: bool
    s_in: bool
    s_sur: bool
    s1: bool

    # CQ-level decidable classes.
    c_hom: bool
    c_hcov: bool
    c_in: bool
    c_sur: bool
    c_bi: bool

    # UCQ-level decidable classes.
    c1_in: bool
    c1_hcov: bool
    c2_hcov: bool
    c1_sur: bool
    c_inf_sur: bool
    c1_bi: bool
    ck_bi: bool
    c_inf_bi: bool

    # Small-model availability (Thm. 4.17 + Prop. 4.19).
    small_model: bool

    def cq_exact_class(self) -> str | None:
        """Name of the first :data:`CQ_CLASSES` class the semiring is in;
        None when only bounds exist."""
        return self._first(CQ_CLASSES)

    def ucq_exact_class(self) -> str | None:
        """Name of the first :data:`UCQ_CLASSES` class the semiring is in."""
        return self._first(UCQ_CLASSES)

    def memberships(self) -> dict[str, bool]:
        """All class flags as a name → bool map (for reports)."""
        return {name: getattr(self, flag) for name, flag in (
            *SUFFICIENT_CLASSES, *CQ_CLASSES, *UCQ_CLASSES,
            ("small-model", "small_model"))}

    def _first(self, rows) -> str | None:
        for name, flag in rows:
            if getattr(self, flag):
                return name
        return None


#: The axiomatic sufficient classes as ``(name, field)`` rows.
SUFFICIENT_CLASSES = (("Shcov", "s_hcov"), ("Sin", "s_in"), ("Ssur", "s_sur"),
                      ("S1", "s1"))

#: Table 1's decidable CQ classes as ``(name, field)`` rows, in dispatch
#: priority order: the first class a semiring is in decides its CQ pairs
#: with that class's procedure in :mod:`repro.core.containment`.
CQ_CLASSES = (("Chom", "c_hom"), ("Chcov", "c_hcov"), ("Cin", "c_in"),
              ("Csur", "c_sur"), ("Cbi", "c_bi"))

#: The decidable UCQ classes, likewise in dispatch priority order.
UCQ_CLASSES = (("Chom", "c_hom"), ("C1in", "c1_in"), ("C1hcov", "c1_hcov"),
               ("C2hcov", "c2_hcov"), ("C1sur", "c1_sur"),
               ("C∞sur", "c_inf_sur"), ("C1bi", "c1_bi"), ("Ckbi", "ck_bi"),
               ("C∞bi", "c_inf_bi"))


def classify(semiring: Semiring | SemiringProperties,
             name: str | None = None) -> Classification:
    """Compute every Table-1 class membership for a semiring.

    Accepts either a semiring instance or a bare properties record; a
    bare record has no polynomial order, so no small-model procedure.
    """
    if isinstance(semiring, Semiring):
        props = semiring.properties
        name = name or semiring.name
        poly_order_decidable = semiring.poly_order_decidable
    else:
        props = semiring
        name = name or "K"
        poly_order_decidable = False
    s_hcov = props.mul_idempotent
    s_in = props.one_annihilating
    s_sur = props.mul_semi_idempotent or s_hcov
    s1 = props.add_idempotent
    finite_offset = not math.isinf(props.offset)
    return Classification(
        name=name,
        offset=props.offset,
        s_hcov=s_hcov,
        s_in=s_in,
        s_sur=s_sur,
        s1=s1,
        c_hom=s_hcov and s_in,
        c_hcov=s_hcov and props.in_nhcov,
        c_in=s_in and props.in_nin,
        c_sur=s_sur and props.in_nsur,
        c_bi=props.in_nin and props.in_nsur,
        c1_in=s_in and props.in_n1in,
        c1_hcov=s_hcov and s1 and props.in_n1hcov,
        c2_hcov=s_hcov and props.in_n2hcov,
        # ։1-sufficiency comes from Prop. 5.1, which needs ⊕-idempotence
        # (Sin ⊆ S¹ makes the analogous requirement vacuous for C1in).
        c1_sur=s_sur and s1 and props.in_n1sur,
        c_inf_sur=s_sur and props.in_ninf_sur,
        c1_bi=s1 and props.in_n1bi,
        ck_bi=finite_offset and props.offset >= 2 and props.in_nk_bi,
        c_inf_bi=props.in_ninf_bi,
        small_model=s1 and poly_order_decidable,
    )
