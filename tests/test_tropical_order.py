"""The tropical polynomial orders (Prop. 4.19) and their exact decision.

The decision is cross-validated against a bounded grid checker on
random polynomials: whenever the grid finds a violating valuation the
decision must say "not ≼", and whenever it says "≼" the grid must be
silent.  Every decision also carries a certificate that must
revalidate, and a refuting one must name a valuation that refutes.
The absorption rule that runs before the splits must answer only where
the split/LP path says the order holds.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ContainmentEngine
from repro.polynomials import (MAX_PLUS, MIN_PLUS, Polynomial,
                               certificate_valid, decide_poly_leq,
                               grid_violation, max_plus_poly_leq,
                               min_plus_poly_leq)
from repro.polynomials import tropical_order
from repro.polynomials.polynomial import Monomial
from repro.polynomials.tropical_order import (_absorption_partners,
                                              _decide_by_splits, _solve)
from repro.queries import Atom, Var
from repro.queries.cq import CQ
from repro.semirings import TMINUS, TPLUS


def poly(terms):
    return Polynomial.parse_terms(terms)


# --- paper example (Ex. 4.6 continued) --------------------------------

def test_example_4_6_equality_in_tplus():
    """x1² + 2x1x2 + x2² =T+ x1² + x2²."""
    left = poly([(1, "xx"), (2, "xy"), (1, "yy")])
    right = poly([(1, "xx"), (1, "yy")])
    assert min_plus_poly_leq(left, right)
    assert min_plus_poly_leq(right, left)


def test_example_4_6_fails_in_tminus():
    """Under max-plus the mixed term x1x2 can exceed max(x1², x2²)…
    never: 2·max ≥ x+y always.  But the reverse strictness differs:
    x² + y² ≼T− x² + xy + y² and also conversely (xy ≤ max(x²,y²));
    a genuinely failing pair is x² vs xy."""
    assert not max_plus_poly_leq(poly([(1, "xx")]), poly([(1, "xy")]))
    assert not min_plus_poly_leq(poly([(1, "xy")]), poly([(1, "xx")]))


# --- basic dominance facts --------------------------------------------

def test_min_plus_zero_polynomial():
    zero = Polynomial.zero()
    x = poly([(1, "x")])
    # 0K = ∞ is the bottom of ≼T+: 0 ≼ anything.
    assert min_plus_poly_leq(zero, x)
    # x ≼ 0 would need ∞ ≤ x numerically: fails.
    assert not min_plus_poly_leq(x, zero)
    assert min_plus_poly_leq(zero, zero)


def test_max_plus_zero_polynomial():
    zero = Polynomial.zero()
    x = poly([(1, "x")])
    assert max_plus_poly_leq(zero, x)
    assert not max_plus_poly_leq(x, zero)


def test_min_plus_sum_below_parts():
    """min(x, y) ≤ x pointwise: x + y ≼T+ is *larger* than x… careful:
    ≼T+ reversed — adding monomials makes a min-plus value smaller,
    hence larger in ≼T+."""
    x = poly([(1, "x")])
    both = poly([(1, "x"), (1, "y")])
    assert min_plus_poly_leq(x, both)
    assert not min_plus_poly_leq(both, x)


def test_max_plus_sum_above_parts():
    x = poly([(1, "x")])
    both = poly([(1, "x"), (1, "y")])
    assert max_plus_poly_leq(x, both)
    assert not max_plus_poly_leq(both, x)


def test_coefficients_are_absorbed():
    """k·M =T± M: tropical addition is idempotent."""
    assert min_plus_poly_leq(poly([(3, "xy")]), poly([(1, "xy")]))
    assert min_plus_poly_leq(poly([(1, "xy")]), poly([(3, "xy")]))
    assert max_plus_poly_leq(poly([(3, "xy")]), poly([(1, "xy")]))


def test_degree_matters_with_infinities():
    """x ≼T+ x²? Eval: x² ≤ x needs x ≤ 0 — fails at x = 1."""
    assert not min_plus_poly_leq(poly([(1, "x")]), poly([(1, "xx")]))
    # but x² ≼T+ x holds: x ≤ 2x over naturals.
    assert min_plus_poly_leq(poly([(1, "xx")]), poly([(1, "x")]))
    # and dually for max-plus.
    assert max_plus_poly_leq(poly([(1, "x")]), poly([(1, "xx")]))
    assert not max_plus_poly_leq(poly([(1, "xx")]), poly([(1, "x")]))


# --- exact decision vs grid cross-validation ---------------------------

VARS = ("x", "y", "z")
monomials = st.builds(
    Monomial.from_variables,
    st.lists(st.sampled_from(VARS), min_size=1, max_size=3),
)
tropical_polys = st.builds(
    Polynomial,
    st.lists(st.tuples(monomials, st.just(1)), min_size=0, max_size=3),
)


def certified(order, semiring, p, q, decide=decide_poly_leq):
    """Decide ``p ≼ q`` (by ``decide``) and check its certificate: it
    must revalidate, and a refuting one must name a valuation that
    refutes."""
    decided, certificate = decide(order, p, q)
    assert certificate_valid(certificate, order, p, q), (p, q, certificate)
    if not decided:
        infinite, point = certificate.witness
        variables = sorted(p.variables() | q.variables())
        valuation = {var: semiring.zero if var in infinite else value
                     for var, value in zip(variables, point)}
        assert not semiring.leq(p.eval_in(semiring, valuation),
                                q.eval_in(semiring, valuation)), \
            (p, q, valuation)
    return decided


@given(p=tropical_polys, q=tropical_polys)
@settings(max_examples=80, deadline=None)
def test_min_plus_agrees_with_grid(p, q):
    decided = certified(MIN_PLUS, TPLUS, p, q)
    witness = grid_violation(p, q, TPLUS, bound=3)
    if decided:
        assert witness is None, (p, q, witness)


@given(p=tropical_polys, q=tropical_polys)
@settings(max_examples=80, deadline=None)
def test_max_plus_agrees_with_grid(p, q):
    decided = certified(MAX_PLUS, TMINUS, p, q)
    witness = grid_violation(p, q, TMINUS, bound=3)
    if decided:
        assert witness is None, (p, q, witness)


def test_degenerate_systems_are_certified():
    """Identical sides: every system has a zero pivot row and ties
    between rows at bound 0, the degenerate case Bland's rule guards.
    The absorption rule takes identical sides, so the splits are asked
    directly."""
    p = poly([(1, "xx"), (1, "xy"), (1, "yz"), (1, "z")])
    for order, semiring in ((MIN_PLUS, TPLUS), (MAX_PLUS, TMINUS)):
        assert certified(order, semiring, p, p, _decide_by_splits)
    # Rows that all sit at bound 0 are feasible at the origin.
    assert _solve([(1, -1), (-1, 1), (0, 0)], [0, 0, 0]) == (True, (0, 0))


def test_all_infinite_split_has_zero_columns():
    """With every variable at ∞ only the constant monomial is left, so
    the split's systems have all-zero columns (none at all without
    variables) and are decided by their bounds alone.  The absorption
    rule takes the holding pairs, so the splits are asked directly."""
    one_or_x = poly([(1, ""), (1, "x")])
    one = Polynomial.one()
    splits = _decide_by_splits
    assert certified(MIN_PLUS, TPLUS, one_or_x, one, splits)
    _, certificate = splits(MIN_PLUS, one_or_x, one)
    vectors = dict(certificate.witnesses)[("x",)]
    assert vectors and all(sum(vector) > 0 for vector in vectors)
    assert not certified(MAX_PLUS, TMINUS, one_or_x, one, splits)
    assert certified(MAX_PLUS, TMINUS, one, one_or_x, splits)
    for order, semiring in ((MIN_PLUS, TPLUS), (MAX_PLUS, TMINUS)):
        assert certified(order, semiring, one, one, splits)
        assert not certified(order, semiring, one, Polynomial.zero(),
                             splits)


def test_grid_violation_finds_witness():
    witness = grid_violation(poly([(1, "x")]), poly([(1, "xx")]), TPLUS)
    assert witness is not None
    # ∞-patterns are part of the grid:
    witness = grid_violation(poly([(1, "x")]), Polynomial.zero(), TPLUS)
    assert witness is not None


def test_semiring_poly_leq_entry_points():
    left = poly([(1, "xx"), (2, "xy"), (1, "yy")])
    right = poly([(1, "xx"), (1, "yy")])
    assert TPLUS.poly_leq(left, right)
    assert TMINUS.poly_leq(right, left)
    # T−: left has the extra xy form; max(x², y²) dominates xy, so both
    # directions hold as well.
    assert TMINUS.poly_leq(left, right)


# --- the absorption rule ----------------------------------------------

def random_tropical_poly(rng, variables=("x", "y", "z"), max_terms=3):
    """Up to ``max_terms`` monomials of degree 0–3 (the unit included)."""
    return Polynomial(
        (Monomial.from_variables(rng.choice(variables)
                                 for _ in range(rng.randint(0, 3))), 1)
        for _ in range(rng.randint(0, max_terms)))


def test_absorption_answers_only_where_the_splits_say_true():
    """Whenever the rule answers, the split/LP path answers True too
    and the grid finds no violation; on every pair the two paths give
    the same answer."""
    rng = random.Random(41)
    answered = {MIN_PLUS: 0, MAX_PLUS: 0}
    for _ in range(300):
        p, q = random_tropical_poly(rng), random_tropical_poly(rng)
        for order, semiring in ((MIN_PLUS, TPLUS), (MAX_PLUS, TMINUS)):
            split_holds = _decide_by_splits(order, p, q)[0]
            assert decide_poly_leq(order, p, q)[0] == split_holds, \
                (order, p, q)
            if _absorption_partners(order, p, q) is None:
                continue
            answered[order] += 1
            assert split_holds, (order, p, q)
            assert grid_violation(p, q, semiring, bound=3) is None, \
                (order, p, q)
    # Both rules fire often enough for the check to mean something.
    assert min(answered.values()) >= 50, answered


def test_absorption_is_sufficient_only():
    x, xy = poly([(1, "x")]), poly([(1, "xy")])
    squares = poly([(1, "xx"), (1, "yy")])
    # xy ≼T+ x² + y² (2xy ≥ min(2x, 2y)) with no divisor: the LP decides.
    assert _absorption_partners(MIN_PLUS, xy, squares) is None
    assert _decide_by_splits(MIN_PLUS, xy, squares)[0]
    holds, certificate = decide_poly_leq(MIN_PLUS, xy, squares)
    assert holds and certificate.witnesses and certificate.partners is None
    # x ⋠T− xy: y = −∞ sends xy to −∞.  xy has more exponents than x
    # but not the same variables, so the rule declines.
    assert _absorption_partners(MAX_PLUS, x, xy) is None
    assert not certified(MAX_PLUS, TMINUS, x, xy)


def test_absorption_unit_and_zero_cases():
    one, zero = Polynomial.one(), Polynomial.zero()
    one_or_w = poly([(1, ""), (1, "w")])
    x, mixed = poly([(1, "x")]), poly([(1, "xxy"), (1, "z")])
    # Min-plus: the unit divides every monomial.
    assert _absorption_partners(MIN_PLUS, mixed, one_or_w) == (0, 0)
    assert certified(MIN_PLUS, TPLUS, mixed, one_or_w)
    # Max-plus: the unit absorbs only the unit.
    assert _absorption_partners(MAX_PLUS, one, one_or_w) == (0,)
    assert certified(MAX_PLUS, TMINUS, one, one_or_w)
    assert _absorption_partners(MAX_PLUS, x, one) is None
    assert not certified(MAX_PLUS, TMINUS, x, one)
    assert _absorption_partners(MAX_PLUS, one, x) is None
    assert not certified(MAX_PLUS, TMINUS, one, x)
    # The zero polynomial needs no partner; nothing absorbs into it.
    for order, semiring in ((MIN_PLUS, TPLUS), (MAX_PLUS, TMINUS)):
        assert _absorption_partners(order, zero, x) == ()
        assert _absorption_partners(order, zero, zero) == ()
        assert certified(order, semiring, zero, x)
        assert certified(order, semiring, zero, zero)
        assert _absorption_partners(order, x, zero) is None
        assert not certified(order, semiring, x, zero)


def test_chain_pair_decides_without_a_solve(monkeypatch):
    """``T+`` chain 5 ⊆ chain 4 (chains on 5 and 4 variables) asks 26
    polynomial orders, and absorption decides every one of them."""
    def chain(n):
        return CQ((), [Atom("E", (Var(f"v{i}"), Var(f"v{i + 1}")))
                       for i in range(n - 1)])

    solves = []

    def counted(constraints, bounds):
        solves.append(constraints)
        return _solve(constraints, bounds)
    monkeypatch.setattr(tropical_order, "_solve", counted)
    engine = ContainmentEngine()
    assert engine.decide(chain(5), chain(4), "T+").result is True
    assert engine.stats.poly_calls == 26
    assert solves == []
