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
all from a properties record, yielding the dispatch table used by
:mod:`repro.core.containment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..semirings.base import Semiring, SemiringProperties

__all__ = ["Classification", "classify"]


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
        """Name of the class whose CQ procedure decides containment, in
        dispatch priority order; None when only bounds exist."""
        for name, member in (
            ("Chom", self.c_hom),
            ("Chcov", self.c_hcov),
            ("Cin", self.c_in),
            ("Csur", self.c_sur),
            ("Cbi", self.c_bi),
        ):
            if member:
                return name
        return None

    def ucq_exact_class(self) -> str | None:
        """Name of the class whose UCQ procedure decides containment."""
        for name, member in (
            ("Chom", self.c_hom),
            ("C1in", self.c1_in),
            ("C1hcov", self.c1_hcov),
            ("C2hcov", self.c2_hcov),
            ("C1sur", self.c1_sur),
            ("C∞sur", self.c_inf_sur),
            ("C1bi", self.c1_bi),
            ("Ckbi", self.ck_bi),
            ("C∞bi", self.c_inf_bi),
        ):
            if member:
                return name
        return None

    def memberships(self) -> dict[str, bool]:
        """All class flags as a name → bool map (for reports)."""
        return {
            "Shcov": self.s_hcov, "Sin": self.s_in, "Ssur": self.s_sur,
            "S1": self.s1,
            "Chom": self.c_hom, "Chcov": self.c_hcov, "Cin": self.c_in,
            "Csur": self.c_sur, "Cbi": self.c_bi,
            "C1in": self.c1_in, "C1hcov": self.c1_hcov,
            "C2hcov": self.c2_hcov, "C1sur": self.c1_sur,
            "C∞sur": self.c_inf_sur, "C1bi": self.c1_bi,
            "Ckbi": self.ck_bi, "C∞bi": self.c_inf_bi,
            "small-model": self.small_model,
        }


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
