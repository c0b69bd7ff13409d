"""Deciding the polynomial order for tropical semirings (Prop. 4.19).

Under ``T+`` a monomial with exponent vector ``e`` evaluates to the
linear form ``ℓ(a) = Σ e_i·a_i`` (coefficients ``≥ 1`` are absorbed by
``min``), and a polynomial to the *minimum* of its forms; under ``T−``
to the *maximum*.  The orders to decide are

* ``P1 ≼T+ P2``  iff ``Eval(P2)(a) ≤ Eval(P1)(a)`` for all ``a`` over
  ``N0 ∪ {∞}``  (the natural order of min-plus is reversed numeric), and
* ``P1 ≼T− P2``  iff ``Eval(P1)(a) ≤ Eval(P2)(a)`` for all ``a`` over
  ``N0 ∪ {−∞}``.

Both reduce to pointwise dominance between min- (resp. max-) of
homogeneous linear forms.  Infinite coordinates are handled by a subset
split (a variable at ``±∞`` simply deletes the monomials using it);
finite dominance is a handful of small linear systems ``A·a ≤ b,
a ≥ 0`` (one per form of ``P1``, with a row per form of either side).
The forms are homogeneous, so a rational violating point scales to an
integer one and strict gaps can be normalized to ``≥ 1``.  The paper
only proves a PSPACE bound for these orders — any sound and complete
procedure reproduces Prop. 4.19.

Before any split, a sufficient *absorption* rule is tried
(:func:`_absorption_partners`): under min-plus, ``P1 ≼ P2`` holds when
every monomial of ``P1`` is divisible by some monomial of ``P2`` (a
divisor never evaluates higher, and ``min`` over ``P2`` only lowers
it); under max-plus, when every monomial of ``P1`` has a ``P2``
monomial on the same variables with exponents at least as large (a
``−∞`` variable sends both to ``−∞``, and on finite values the partner
is never lower).  The rule is sufficient only: ``xy ≼T+ x² + y²``
holds with no divisor, and ``x ⋠T− xy`` because ``y`` may be ``−∞``.
When it declines, the splits decide.

Each system is solved once, in exact rational arithmetic, by a Phase-I
simplex with Bland's rule (:func:`_solve`).  A feasible system yields
its basic point, scaled to integers by the lcm of its denominators.
An infeasible one yields a Farkas vector read off the final tableau:
the reduced costs of the row slacks.  No floats are involved, so there
is nothing to round back and no second solve for the certificate.

A bounded grid checker (:func:`grid_violation`) cross-validates the
decisions in the test suite.

Certificates
------------
Every decision comes with a reusable
:class:`TropicalOrderCertificate` (see :func:`decide_poly_leq`) — the
piece that makes the decisions *memoizable* across processes.  The
certificate format:

``order``
    Which tropical order was decided: :data:`MIN_PLUS` (``≼T+``, also
    the Viterbi order through the ``−log`` isomorphism) or
    :data:`MAX_PLUS` (``≼T−``).
``key``
    The exact ``(P1, P2)`` pair the certificate speaks about —
    normally the *canonical* pair of
    :func:`repro.polynomials.admissible.canonical_pair`, so one
    certificate serves every renaming of the pair.
``holds``
    The decision.
``witness`` (``holds=False``)
    A violating valuation: ``(infinite, point)`` where ``infinite`` is
    the tuple of variables set to the order's infinity and ``point``
    assigns a natural number to every variable (positionally, in
    sorted-variable order; entries under ``infinite`` are ignored).
    Checking it is one evaluation of each side — no solve.
``partners`` (``holds=True``)
    The absorption map: for each monomial of ``P1``, in
    :meth:`Polynomial.items` order, the index of a monomial of ``P2``
    (in the same order) that absorbs it — divides it under min-plus,
    or has its variables and exponents at least as large under
    max-plus.  Checking it is one integer exponent comparison per
    entry.
``witnesses`` (``holds=True``)
    Per-subset-split dominance witnesses: for every split where the
    decision solved systems, one integer Farkas multiplier vector per
    pivot form, proving each violation system infeasible.  By Farkas'
    lemma the system ``A·a ≤ b, a ≥ 0`` has no solution iff some
    ``y ≥ 0`` has ``yᵀA ≥ 0`` and ``yᵀb < 0`` — and *that* is
    checkable with exact integer arithmetic, again without a solve.

A ``holds=True`` certificate carries exactly one of ``partners`` and
``witnesses``; one with both, or with neither, is invalid.

:func:`certificate_valid` is the cheap recall-time revalidation:
it re-derives the split systems (or the monomials a partner map
indexes) from the pair itself and verifies the stored witness
arithmetic, so a tampered, stale or mis-keyed
certificate is rejected (and the caller decides afresh).  A
certificate is therefore *self-certifying*: trusting one never trusts
the cache, only integer arithmetic.

Certificates contain only polynomials, strings, ints and tuples — they
pickle under the restricted snapshot unpickler and round-trip through
:meth:`TropicalOrderCertificate.to_dict` for JSON transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Sequence

from .polynomial import Monomial, Polynomial

__all__ = [
    "MIN_PLUS",
    "MAX_PLUS",
    "TropicalOrderCertificate",
    "certificate_valid",
    "decide_poly_leq",
    "min_plus_poly_leq",
    "max_plus_poly_leq",
    "grid_violation",
]

#: The ``≼T+`` order (min-plus; also decides the Viterbi order).
MIN_PLUS = "min-plus"

#: The ``≼T−`` order (max-plus / schedule algebra).
MAX_PLUS = "max-plus"


def _forms(poly: Polynomial, variables: Sequence[str],
           excluded: frozenset) -> list[tuple[int, ...]]:
    """Exponent vectors (as integer tuples) of the monomials avoiding
    ``excluded``, in the polynomial's deterministic monomial order."""
    index = {var: position for position, var in enumerate(variables)}
    forms = []
    for mono, _coeff in poly.items():
        if mono.variables() & excluded:
            continue
        vector = [0] * len(variables)
        for var, exp in mono.powers:
            vector[index[var]] = exp
        forms.append(tuple(vector))
    return forms


def _sub(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(left, right))


def _solve(constraints: list[tuple[int, ...]],
           bounds: list[int]) -> tuple[bool, tuple[int, ...]]:
    """Decide ``A·a ≤ b, a ≥ 0`` (with ``b ≤ 0``) by one exact
    Phase-I simplex.

    Every row gets a slack column; a row with ``b_i < 0`` is negated so
    its right-hand side is positive and gets an artificial column, and
    Phase I minimises the artificials' sum ``w``.  Bland's rule (the
    lowest improving column enters; ratio ties leave by lowest basic
    column) rules out cycling on the many degenerate rows.

    Returns ``(True, point)``: the basic point scaled by the lcm of its
    denominators, still a solution because ``b ≤ 0``.  Or
    ``(False, y)``: the reduced costs of the slacks in the optimal
    tableau, scaled to integers.  Optimality makes every reduced cost
    ``≥ 0``, which for the slacks is ``y ≥ 0`` and for the variables
    ``yᵀA ≥ 0``, and duality gives ``yᵀb = −w < 0`` — a Farkas vector.
    """
    rows, width = len(constraints), len(constraints[0])
    negative = [i for i, bound in enumerate(bounds) if bound < 0]
    columns = width + rows + len(negative)
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (row, bound) in enumerate(zip(constraints, bounds)):
        sign = -1 if bound < 0 else 1
        line = [Fraction(sign * value) for value in row]
        line += [Fraction(0)] * (columns - width)
        line.append(Fraction(sign * bound))
        line[width + i] = Fraction(sign)
        tableau.append(line)
        basis.append(width + i)
    # The Phase-I objective row holds the reduced costs and, last, −w.
    cost = [Fraction(0)] * (columns + 1)
    for k, i in enumerate(negative):
        basis[i] = width + rows + k
        tableau[i][basis[i]] = Fraction(1)
        cost = [c - t for c, t in zip(cost, tableau[i])]
        cost[basis[i]] = Fraction(0)
    while True:
        entering = next((j for j in range(columns) if cost[j] < 0), None)
        if entering is None:
            break
        _, _, leaving = min((line[-1] / line[entering], basis[i], i)
                            for i, line in enumerate(tableau)
                            if line[entering] > 0)
        pivot = tableau[leaving]
        scale = pivot[entering]
        pivot[:] = [value / scale for value in pivot]
        for line in (*tableau, cost):
            factor = line[entering]
            if factor and line is not pivot:
                line[:] = [value - factor * p if p else value
                           for value, p in zip(line, pivot)]
        basis[leaving] = entering
    if cost[-1]:
        return False, _integral(cost[width:width + rows])
    point = [Fraction(0)] * width
    for line, column in zip(tableau, basis):
        if column < width:
            point[column] = line[-1]
    return True, _integral(point)


def _integral(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale nonnegative rationals by the lcm of their denominators."""
    scale = lcm(*(value.denominator for value in values))
    return tuple(int(value * scale) for value in values)


def _farkas_checks(vector: Sequence[int],
                   constraints: list[tuple[int, ...]],
                   bounds: list[int]) -> bool:
    """Exact integer verification of a Farkas vector."""
    if len(vector) != len(constraints):
        return False
    if any((not isinstance(value, int)) or value < 0 for value in vector):
        return False
    width = len(constraints[0]) if constraints else 0
    for column in range(width):
        if sum(y * row[column]
               for y, row in zip(vector, constraints)) < 0:
            return False
    return sum(y * b for y, b in zip(vector, bounds)) < 0


def _violation_systems(order: str, forms1: list[tuple[int, ...]],
                       forms2: list[tuple[int, ...]]):
    """The per-pivot violation LPs of one subset split.

    ``P1 ≼ P2`` fails at a finite point exactly when one of these
    systems is feasible:

    * min-plus — guess the argmin ``h*`` of ``P1``'s forms and ask for
      ``h* ≤ h`` (∀h of ``P1``) with every form of ``P2`` at least
      ``h* + 1`` (then ``Eval(P2) > Eval(P1)``);
    * max-plus — guess the argmax ``h*`` of ``P1``'s forms and ask for
      every form of ``P2`` at most ``h* − 1``.
    """
    for pivot in forms1:
        if order == MIN_PLUS:
            constraints = [_sub(pivot, other) for other in forms1]
            bounds = [0] * len(forms1)
            constraints += [_sub(pivot, low) for low in forms2]
            bounds += [-1] * len(forms2)
        else:
            constraints = [_sub(form, pivot) for form in forms2]
            bounds = [-1] * len(forms2)
        yield constraints, bounds


def _absorbs(order: str, mono1: Monomial, mono2: Monomial) -> bool:
    """Does ``P2``'s ``mono2`` absorb ``P1``'s ``mono1`` — is ``mono2``
    at or below (min-plus) or at or above (max-plus) ``mono1`` on
    every valuation?"""
    if order == MIN_PLUS:
        return mono2.divides(mono1)
    return mono1.divides(mono2) and mono1.variables() == mono2.variables()


def _absorption_partners(order: str, p1: Polynomial, p2: Polynomial
                         ) -> tuple[int, ...] | None:
    """The sufficient absorption rule: for each monomial of ``P1`` the
    index of the first monomial of ``P2`` absorbing it, or ``None``
    when some monomial has no partner (the rule declines)."""
    monos2 = p2.monomials()
    partners = []
    for mono1 in p1.monomials():
        partner = next((index for index, mono2 in enumerate(monos2)
                        if _absorbs(order, mono1, mono2)), None)
        if partner is None:
            return None
        partners.append(partner)
    return tuple(partners)


def _split_value(forms: list[tuple[int, ...]], point: Sequence[int],
                 order: str) -> int | None:
    """Tropical value of one side at a finite point (``None`` = ±∞)."""
    if not forms:
        return None
    values = [sum(e * a for e, a in zip(form, point)) for form in forms]
    return min(values) if order == MIN_PLUS else max(values)


def _witness_violates(order: str, p1: Polynomial, p2: Polynomial,
                      variables: Sequence[str],
                      infinite: frozenset, point: Sequence[int]) -> bool:
    """Does the valuation (``infinite`` ↦ ±∞, else ``point``) refute
    ``P1 ≼ P2``?  Pure integer evaluation — the False-side revalidation."""
    value1 = _split_value(_forms(p1, variables, infinite), point, order)
    value2 = _split_value(_forms(p2, variables, infinite), point, order)
    if order == MIN_PLUS:
        # Violation: Eval(P2) > Eval(P1), where None means +∞.
        if value2 is None:
            return value1 is not None
        return value1 is not None and value2 > value1
    # Violation: Eval(P1) > Eval(P2), where None means −∞.
    if value1 is None:
        return False
    return value2 is None or value1 > value2


@dataclass(frozen=True)
class TropicalOrderCertificate:
    """A reusable, self-certifying record of one ``poly_leq`` decision.

    See the module docstring for the field contract.  Instances are
    immutable, hashable and picklable (only repro polynomial types and
    builtins inside), and :meth:`to_dict`/:meth:`from_dict` give a
    JSON-clean transport form.
    """

    order: str
    key: tuple[Polynomial, Polynomial]
    holds: bool
    witness: tuple | None = None
    witnesses: tuple | None = None
    partners: tuple | None = None

    @staticmethod
    def _poly_terms(poly: Polynomial) -> list:
        return [[coeff, [[var, exp] for var, exp in mono.powers]]
                for mono, coeff in poly.items()]

    @staticmethod
    def _terms_poly(terms) -> Polynomial:
        return Polynomial(
            (Monomial(tuple((var, exp) for var, exp in powers)), coeff)
            for coeff, powers in terms
        )

    def to_dict(self) -> dict:
        """JSON-clean representation (lists/strings/ints only)."""
        data: dict = {
            "order": self.order,
            "p1": self._poly_terms(self.key[0]),
            "p2": self._poly_terms(self.key[1]),
            "holds": self.holds,
        }
        if self.witness is not None:
            infinite, point = self.witness
            data["witness"] = {"infinite": list(infinite),
                               "point": list(point)}
        if self.witnesses is not None:
            data["witnesses"] = [
                {"infinite": list(infinite),
                 "farkas": [list(vector) for vector in vectors]}
                for infinite, vectors in self.witnesses
            ]
        if self.partners is not None:
            data["partners"] = list(self.partners)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TropicalOrderCertificate":
        """Inverse of :meth:`to_dict`."""
        witness = None
        if "witness" in data:
            witness = (tuple(data["witness"]["infinite"]),
                       tuple(data["witness"]["point"]))
        witnesses = None
        if "witnesses" in data:
            witnesses = tuple(
                (tuple(entry["infinite"]),
                 tuple(tuple(vector) for vector in entry["farkas"]))
                for entry in data["witnesses"]
            )
        partners = None
        if "partners" in data:
            partners = tuple(data["partners"])
        return cls(
            order=data["order"],
            key=(cls._terms_poly(data["p1"]), cls._terms_poly(data["p2"])),
            holds=bool(data["holds"]),
            witness=witness,
            witnesses=witnesses,
            partners=partners,
        )


def certificate_valid(certificate, order: str,
                      p1: Polynomial, p2: Polynomial) -> bool:
    """Cheaply revalidate a recalled certificate against ``(p1, p2)``.

    True only when the certificate targets exactly this order and pair
    *and* its witness arithmetic checks out — a violating point must
    still violate, every partner must still absorb its monomial, and
    the Farkas vectors must still prove every violation system of
    every split infeasible.  No LP is run; a stale
    or tampered certificate simply fails, and the caller recomputes.
    The check never raises: a witness of the wrong type or shape (say
    ``witnesses=5``, which ``dict`` refuses) fails like any other
    tampered value, since an error here could only come from the value.
    """
    try:
        return _certificate_checks(certificate, order, p1, p2)
    except Exception:
        return False


def _certificate_checks(certificate, order: str,
                        p1: Polynomial, p2: Polynomial) -> bool:
    """The checks of :func:`certificate_valid`, which may raise on a
    malformed value."""
    if not isinstance(certificate, TropicalOrderCertificate):
        return False
    if certificate.order != order or order not in (MIN_PLUS, MAX_PLUS):
        return False
    if not isinstance(certificate.holds, bool):
        return False
    if certificate.key != (p1, p2):
        return False
    if not certificate.holds:
        if certificate.partners is not None \
                or certificate.witnesses is not None:
            return False  # a refutation carries a violating point only
        if certificate.witness is None:
            return False
        variables = tuple(sorted(p1.variables() | p2.variables()))
        infinite, point = certificate.witness
        if len(point) != len(variables):
            return False
        if not set(infinite) <= set(variables):
            return False
        if any((not isinstance(value, int)) or value < 0
               for value in point):
            return False
        return _witness_violates(order, p1, p2, variables,
                                 frozenset(infinite), point)
    if (certificate.partners is None) == (certificate.witnesses is None):
        return False  # exactly one kind of dominance witness
    if certificate.partners is not None:
        return _partners_check(order, p1, p2, certificate.partners)
    variables = tuple(sorted(p1.variables() | p2.variables()))
    by_split = dict(certificate.witnesses)
    for infinite in _subsets(variables):
        forms1 = _forms(p1, variables, infinite)
        forms2 = _forms(p2, variables, infinite)
        if not forms1:
            continue
        if not forms2:
            return False  # the decision would be False: holds is a lie
        vectors = by_split.get(tuple(sorted(infinite)))
        if vectors is None or len(vectors) != len(forms1):
            return False
        for vector, (constraints, bounds) in zip(
                vectors, _violation_systems(order, forms1, forms2)):
            if not _farkas_checks(vector, constraints, bounds):
                return False
    return True


def _partners_check(order: str, p1: Polynomial, p2: Polynomial,
                    partners) -> bool:
    """Exact verification of an absorption map: one in-range ``int``
    index per ``P1`` monomial, each naming a ``P2`` monomial that
    absorbs it."""
    monos1, monos2 = p1.monomials(), p2.monomials()
    if len(partners) != len(monos1):
        return False
    for mono1, index in zip(monos1, partners):
        if type(index) is not int or not 0 <= index < len(monos2):
            return False
        if not _absorbs(order, mono1, monos2[index]):
            return False
    return True


def decide_poly_leq(order: str, p1: Polynomial, p2: Polynomial
                    ) -> tuple[bool, TropicalOrderCertificate]:
    """Decide ``P1 ≼ P2`` under ``order`` and certify the decision.

    Returns ``(holds, certificate)``.  The absorption rule is tried
    first (:func:`_absorption_partners`); when it finds a partner for
    every monomial of ``P1`` the pair holds with a ``partners``
    certificate and no system is solved.  Otherwise the subset splits
    decide (:func:`_decide_by_splits`).
    """
    if order not in (MIN_PLUS, MAX_PLUS):
        raise ValueError(f"unknown tropical order {order!r}")
    partners = _absorption_partners(order, p1, p2)
    if partners is not None:
        return True, TropicalOrderCertificate(
            order=order, key=(p1, p2), holds=True, partners=partners)
    return _decide_by_splits(order, p1, p2)


def _decide_by_splits(order: str, p1: Polynomial, p2: Polynomial
                      ) -> tuple[bool, TropicalOrderCertificate]:
    """Decide ``P1 ≼ P2`` split by split, with no absorption shortcut.

    Each violation system of each subset split is solved once, exactly
    (:func:`_solve`): a feasible one gives the violating point of a
    ``holds=False`` certificate, and the infeasible ones give the
    Farkas vectors of a ``holds=True`` certificate.  Every point and
    vector is checked in integer arithmetic first; a failed check
    raises :class:`ArithmeticError` instead of certifying an unchecked
    answer.
    """
    variables = tuple(sorted(p1.variables() | p2.variables()))
    dominance: list[tuple] = []
    for infinite in _subsets(variables):
        forms1 = _forms(p1, variables, infinite)
        forms2 = _forms(p2, variables, infinite)
        if not forms1:
            continue  # P1 is already at the order's infinity: below/above
        if not forms2:
            # P2 degenerates to the wrong infinity against a finite P1.
            return False, _refutation(order, p1, p2, variables, infinite,
                                      (0,) * len(variables))
        vectors: list[tuple[int, ...]] = []
        for constraints, bounds in _violation_systems(order, forms1, forms2):
            feasible, solution = _solve(constraints, bounds)
            if feasible:
                return False, _refutation(order, p1, p2, variables,
                                          infinite, solution)
            if not _farkas_checks(solution, constraints, bounds):
                raise ArithmeticError(
                    f"Farkas vector {solution} fails its exact check")
            vectors.append(solution)
        dominance.append((tuple(sorted(infinite)), tuple(vectors)))
    return True, TropicalOrderCertificate(
        order=order, key=(p1, p2), holds=True, witnesses=tuple(dominance))


def _refutation(order: str, p1: Polynomial, p2: Polynomial,
                variables: Sequence[str], infinite: frozenset,
                point: tuple[int, ...]) -> TropicalOrderCertificate:
    """The ``holds=False`` certificate of a checked violating valuation."""
    if not _witness_violates(order, p1, p2, variables, infinite, point):
        raise ArithmeticError(f"point {point} fails its exact check")
    return TropicalOrderCertificate(
        order=order, key=(p1, p2), holds=False,
        witness=(tuple(sorted(infinite)), point))


def min_plus_poly_leq(p1: Polynomial, p2: Polynomial) -> bool:
    """Decide ``P1 ≼T+ P2``: min-plus ``P2`` dominates ``P1`` from below
    on every valuation over ``N0 ∪ {∞}``."""
    return decide_poly_leq(MIN_PLUS, p1, p2)[0]


def max_plus_poly_leq(p1: Polynomial, p2: Polynomial) -> bool:
    """Decide ``P1 ≼T− P2``: max-plus ``P2`` dominates ``P1`` from above
    on every valuation over ``N0 ∪ {−∞}``."""
    return decide_poly_leq(MAX_PLUS, p1, p2)[0]


def _subsets(variables: Sequence[str]) -> Iterable[frozenset]:
    for pattern in product((False, True), repeat=len(variables)):
        yield frozenset(
            var for var, chosen in zip(variables, pattern) if chosen
        )


def grid_violation(p1: Polynomial, p2: Polynomial, semiring,
                   bound: int = 4) -> dict | None:
    """Search a valuation grid for a witness of ``P1 ⋠K P2``.

    Tries all valuations with values in ``{0, …, bound} ∪ {0K}``.  Used
    to cross-validate the LP decisions in the test suite (sound
    refutation; completeness only on the grid).
    """
    variables = tuple(sorted(p1.variables() | p2.variables()))
    values = tuple(range(bound + 1)) + (semiring.zero,)
    for assignment in product(values, repeat=len(variables)):
        valuation = dict(zip(variables, assignment))
        left = p1.eval_in(semiring, valuation)
        right = p2.eval_in(semiring, valuation)
        if not semiring.leq(left, right):
            return valuation
    return None
