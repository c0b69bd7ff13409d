"""Caching and registry semantics of :class:`repro.api.ContainmentEngine`."""

from __future__ import annotations

import json

import pytest

from repro.api import ContainmentEngine, ContainmentRequest
from repro.semirings import DEFAULT_REGISTRY, SemiringRegistry
from repro.semirings.boolean import BooleanSemiring

Q1 = "Q() :- R(u, v), R(u, w)"
Q2 = "Q() :- R(u, v), R(u, v)"


class RenamedBoolean(BooleanSemiring):
    name = "B2"


def test_classification_computed_once_per_semiring():
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "B")
    engine.decide(Q2, Q1, "B")
    engine.decide("Q() :- R(x, y)", "Q() :- R(x, x)", "B")
    assert engine.stats.classify_calls == 1
    assert engine.stats.classify_hits >= 2
    engine.decide(Q1, Q2, "N[X]")
    assert engine.stats.classify_calls == 2


def test_verdict_cache_hit_on_repeated_decide():
    engine = ContainmentEngine()
    first = engine.decide(Q1, Q2, "B")
    second = engine.decide(Q1, Q2, "B")
    assert engine.stats.verdict_hits == 1
    assert not first.cached and second.cached
    assert second.result is first.result
    # Per-request metadata is fresh on a hit.
    third = engine.decide(Q1, Q2, "B", request_id="r3")
    assert third.cached and third.request_id == "r3"


def test_hom_search_cache_shared_across_semirings():
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "B")       # needs the plain hom Q2 → Q1
    assert engine.stats.hom_calls >= 1
    before = engine.stats.hom_calls
    engine.decide(Q1, Q2, "N[X]")    # same plain hom, different semiring
    assert engine.stats.hom_hits >= 1
    # The bijective search is new, so at most one extra real search ran.
    assert engine.stats.hom_calls <= before + 1


def test_parse_interning_returns_same_object():
    engine = ContainmentEngine()
    assert engine.parse(Q1) is engine.parse(Q1)
    assert engine.stats.parse_calls == 1
    assert engine.stats.parse_hits == 1


def test_register_semiring_invalidates_semiring_caches():
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "B")
    assert engine.cache_info()["classification_entries"] == 1
    assert engine.cache_info()["verdict_entries"] == 1
    hom_entries = engine.cache_info()["hom_entries"]
    engine.register_semiring(RenamedBoolean(), aliases=("bool2",))
    info = engine.cache_info()
    assert info["classification_entries"] == 0
    assert info["verdict_entries"] == 0
    # The homomorphism cache is structural and survives.
    assert info["hom_entries"] == hom_entries
    # The next decide recomputes the classification.
    engine.decide(Q1, Q2, "B")
    assert engine.stats.classify_calls == 2
    # The new name and alias resolve on this engine...
    assert engine.semiring("B2").name == "B2"
    assert engine.semiring("bool2").name == "B2"
    assert engine.decide(Q1, Q2, "B2").result is True
    # ...but never leak into the process-wide default registry.
    assert "B2" not in DEFAULT_REGISTRY


def test_external_registry_mutation_detected():
    registry = DEFAULT_REGISTRY.copy()
    engine = ContainmentEngine(registry)
    engine.decide(Q1, Q2, "B")
    registry.register(RenamedBoolean())
    engine.decide(Q1, Q2, "B")
    assert engine.stats.classify_calls == 2  # cache was dropped


def test_registry_duplicate_rejected_unless_replace():
    registry = SemiringRegistry()
    registry.register(RenamedBoolean())
    with pytest.raises(ValueError):
        registry.register(RenamedBoolean())
    registry.register(RenamedBoolean(), replace=True)
    assert len(registry) == 1


def test_register_cannot_silently_shadow_alias():
    class BagNamedBoolean(BooleanSemiring):
        name = "bag"  # collides with the built-in alias for N

    engine = ContainmentEngine()
    assert engine.semiring("bag").name == "N"
    with pytest.raises(ValueError, match="alias"):
        engine.register_semiring(BagNamedBoolean())
    assert engine.semiring("bag").name == "N"  # binding untouched
    engine.register_semiring(BagNamedBoolean(), replace=True)
    assert engine.semiring("bag").name == "bag"  # explicit takeover


def test_alias_edits_do_not_flush_engine_caches():
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "B")
    engine.registry.alias("B", "mybool")
    repeat = engine.decide(Q1, Q2, "mybool")
    assert repeat.cached                       # verdict cache survived
    assert engine.stats.classify_calls == 1    # classification too


def test_batch_unknown_semiring_error_is_unquoted():
    from repro.api import process_lines

    engine = ContainmentEngine()
    line = '{"semiring": "nosuch", "q1": "Q() :- R(x)", "q2": "Q() :- R(x)"}'
    (out,) = list(process_lines(engine, [line]))
    assert not out["error"].startswith('"')    # no str(KeyError) repr quotes
    assert out["error"].startswith("unknown semiring")


def test_alias_rebinding_requires_replace():
    registry = DEFAULT_REGISTRY.copy()
    with pytest.raises(ValueError, match="already bound"):
        registry.alias("B", "bag")  # 'bag' belongs to N
    registry.alias("B", "bag", replace=True)
    assert registry.get("bag").name == "B"
    registry.alias("B", "bool")  # re-declaring the same binding is fine


def test_alias_over_canonical_name_always_rejected():
    registry = DEFAULT_REGISTRY.copy()
    # Canonical names win on lookup, so such an alias would be a dead
    # binding — rejected even with replace=True.
    with pytest.raises(ValueError, match="never take effect"):
        registry.alias("B", "N")
    with pytest.raises(ValueError, match="never take effect"):
        registry.alias("B", "N", replace=True)
    assert registry.get("N").name == "N"


def test_failed_register_is_a_noop():
    class Custom(BooleanSemiring):
        name = "Custom"

    engine = ContainmentEngine()
    version = engine.registry.version
    with pytest.raises(ValueError, match="already bound"):
        engine.register_semiring(Custom(), aliases=("bag",))
    assert "Custom" not in engine.registry       # nothing half-applied
    assert engine.registry.version == version    # caches not flushed
    engine.register_semiring(Custom())           # clean retry succeeds
    assert engine.semiring("Custom").name == "Custom"


def test_registry_lookup_alias_case_and_suggestion():
    engine = ContainmentEngine()
    assert engine.semiring("boolean").name == "B"
    assert engine.semiring("n[x]").name == "N[X]"
    assert engine.semiring("TROPICAL").name == "T+"
    with pytest.raises(KeyError, match="did you mean"):
        engine.semiring("N[Y]")
    with pytest.raises(KeyError, match="available"):
        engine.semiring("totally-bogus-name-zzz")


def test_verdict_cache_distinguishes_same_named_semirings():
    from repro.semirings import N

    class BagNamedBoolean(BooleanSemiring):
        name = "N"

    engine = ContainmentEngine()
    open_verdict = engine.decide(Q1, Q2, N)          # the real bag semiring
    assert open_verdict.result is None
    impostor = engine.decide(Q1, Q2, BagNamedBoolean())
    assert impostor.result is True                   # Boolean semantics
    assert not impostor.cached


def test_hom_lru_evicts_at_capacity():
    from repro.api.engine import _LRU

    lru = _LRU(2)
    lru.put("a", 1)
    lru.put("b", None)            # None is a storable value
    assert lru.get("a") == 1      # a recall refreshes recency...
    assert "b" in lru             # ...and a presence test does not
    lru.put("c", 3)
    assert lru.items() == [("a", 1), ("c", 3)]
    engine = ContainmentEngine()
    engine._homs.maxsize = 1      # stores are bound once: resize in place
    engine.decide(Q1, Q2, "B")
    engine.decide("Q() :- S(x)", "Q() :- S(y)", "B")
    assert engine.cache_info()["hom_entries"] == 1


def test_engine_stores_are_sized_by_the_registry():
    from repro.api.engine import _LRU
    from repro.api.layers import CACHE_LAYERS

    engine = ContainmentEngine()
    for layer in CACHE_LAYERS:
        store = getattr(engine, layer.attr)
        if layer.size is None:
            assert type(store) is dict, layer.name
        else:
            assert isinstance(store, _LRU), layer.name
            assert store.maxsize == layer.size, layer.name


def test_decide_many_preserves_order_and_ids():
    engine = ContainmentEngine()
    requests = [
        ContainmentRequest.make(Q1, Q2, "B", id="a"),
        {"semiring": "N", "q1": Q1, "q2": Q2, "id": "b"},
        ContainmentRequest.make(Q2, Q1, "B", id="c", equivalence=True),
    ]
    documents = engine.decide_many(requests)
    assert [doc.request_id for doc in documents] == ["a", "b", "c"]
    assert documents[0].result is True
    assert documents[1].result is None
    # Over B the Ex. 4.6 pair is equivalent (homomorphisms both ways).
    assert documents[2].result is True


def test_decide_accepts_objects_text_lists_and_dicts():
    from repro.queries import parse_cq, parse_ucq
    from repro.queries.serialize import query_to_dict

    engine = ContainmentEngine()
    cq1, cq2 = parse_cq(Q1), parse_cq(Q2)
    by_text = engine.decide(Q1, Q2, "B")
    by_object = engine.decide(cq1, cq2, "B")
    by_list = engine.decide([Q1], [Q2], "B")
    by_dict = engine.decide(query_to_dict(cq1), query_to_dict(cq2), "B")
    by_union = engine.decide(parse_ucq([Q1]), parse_ucq([Q2]), "B")
    assert {d.result for d in (by_text, by_object, by_list, by_dict,
                               by_union)} == {True}
    # All five were the same canonical question: four verdict-cache hits.
    assert engine.stats.verdict_hits == 4


def test_request_rejects_semiring_instances():
    from repro.semirings import B

    with pytest.raises(TypeError, match="semiring name"):
        ContainmentRequest.make(Q1, Q2, B)


def test_equivalence_goes_both_ways():
    engine = ContainmentEngine()
    same = engine.decide("Q() :- R(x, y)", "Q() :- R(a, b)", "B",
                         equivalence=True)
    assert same.result is True
    assert "+" in same.method
    different = engine.decide("Q() :- R(x, y)", "Q() :- R(x, x)", "B",
                              equivalence=True)
    assert different.result is False


def test_lru_stores_none_and_falsy_values():
    from repro.api.engine import _LRU

    lru = _LRU(4)
    sentinel = object()
    lru.put("none", None)
    lru.put("empty", ())
    assert lru.get("none", sentinel) is None       # stored, not missing
    assert lru.get("empty", sentinel) == ()
    assert lru.get("absent", sentinel) is sentinel


def test_cached_none_verdict_value_never_recomputed():
    # An undecided (result=None) verdict document must still be served
    # from the verdict cache on the second ask.
    engine = ContainmentEngine()
    first = engine.decide(Q1, Q2, "N")
    assert first.result is None and not first.cached
    second = engine.decide(Q1, Q2, "N")
    assert second.result is None and second.cached
    assert engine.stats.verdict_hits == 1


def test_covering_path_routes_through_hom_caches():
    # Lin[X] ∈ Chcov: the covers() call must hit the engine's caches.
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "Lin[X]")
    assert engine.stats.cover_calls > 0
    first_cover_calls = engine.stats.cover_calls
    engine.clear_caches()  # force recompute but keep counters
    engine.decide(Q1, Q2, "Lin[X]")
    assert engine.stats.cover_calls == first_cover_calls * 2


def test_bounds_path_records_hom_and_description_hits():
    # Bag semantics exercises _bounded_verdict: within ONE verdict the
    # necessary/sufficient sweeps reuse ⟨Q⟩, and across paths (the
    # Chcov covering decision vs the N bounds decision on the same
    # pair) the hom LRU is shared — both recorded zero hits before the
    # context was threaded through.
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "Lin[X]")      # covering path, fills hom LRU
    document = engine.decide([Q1], [Q2, "Q() :- S(x)"], "N")
    assert document.result is None
    assert engine.stats.description_hits > 0, \
        "complete_description must be memoized within a verdict"
    assert engine.stats.hom_hits > 0, \
        "covering/UCQ/bounds paths must route through the hom LRU"


def test_sur_infty_path_uses_description_cache():
    # Non-singleton unions reach the UCQ dispatch, where Ssur[X]
    # decides via ⟨Q2⟩ ։∞ ⟨Q1⟩ over complete descriptions.
    engine = ContainmentEngine()
    document = engine.decide(
        ["Q() :- R(u, u)", "Q() :- R(v, w), R(w, v)"],
        ["Q() :- R(a, b)", "Q() :- R(c, c), R(c, c)"], "Ssur[X]")
    assert document.method in ("sur-infty-matching", "local-surjective",
                               "no-local-homomorphism")
    info = engine.cache_info()
    assert info["description_entries"] > 0


def test_structural_caches_survive_registration():
    engine = ContainmentEngine()
    engine.decide(Q1, Q2, "Lin[X]")
    info = engine.cache_info()
    structural = {key: info[key] for key in
                  ("hom_entries", "cover_entries", "description_entries")}
    engine.register_semiring(RenamedBoolean(), replace=True)
    after = engine.cache_info()
    for key, value in structural.items():
        assert after[key] == value, key


def test_request_id_integer_is_coerced_to_string():
    request = ContainmentRequest.make(Q1, Q2, "B", id=7)
    assert request.id == "7"
    engine = ContainmentEngine()
    document = engine.decide_request(request)
    assert document.request_id == "7"
    assert isinstance(document.to_dict()["request_id"], str)


def test_request_id_non_string_non_int_rejected():
    for bad in (True, 1.5, ["x"], {"id": 1}):
        with pytest.raises(TypeError, match="request id"):
            ContainmentRequest.make(Q1, Q2, "B", id=bad)


@pytest.mark.parametrize("flag", ["false", "no", 0, 1, None, [], {}])
def test_non_boolean_equivalence_flag_is_refused(flag):
    data = {"semiring": "B", "q1": "Q() :- R(u, v)",
            "q2": "Q() :- R(u, u)", "equivalence": flag}
    with pytest.raises(TypeError, match="'equivalence' must be true or "
                                        "false"):
        ContainmentRequest.from_dict(data)


def test_boolean_equivalence_flag_or_none_is_read():
    data = {"semiring": "B", "q1": "Q() :- R(u, v)",
            "q2": "Q() :- R(u, u)"}
    assert ContainmentRequest.from_dict(data).equivalence is False
    for flag in (True, False):
        request = ContainmentRequest.from_dict({**data, "equivalence": flag})
        assert request.equivalence is flag


def test_repeated_specs_resolve_to_one_union_object():
    engine = ContainmentEngine()
    data = {"semiring": "B", "q1": "Q() :- R(u, v)",
            "q2": ["Q() :- R(u, u)", "Q() :- S(u, u)"]}
    first = ContainmentRequest.from_dict(data, parse=engine.parse)
    second = ContainmentRequest.from_dict(dict(data), parse=engine.parse)
    assert first.q1 is second.q1 and first.q2 is second.q2
    # The member order of a list spec does not change the union.
    swapped = ContainmentRequest.from_dict(
        {**data, "q2": data["q2"][::-1]}, parse=engine.parse)
    assert swapped.q2 == first.q2
    # A spec that fails validation is never interned: it fails again.
    bad = {**data, "q2": ["Q() :- R(u, u)", "Q(x) :- S(x, x)"]}
    for _ in range(2):
        with pytest.raises(ValueError, match="arity"):
            ContainmentRequest.from_dict(bad, parse=engine.parse)


def test_batch_numeric_id_echoed_as_string():
    from repro.api import process_lines

    engine = ContainmentEngine()
    line = ('{"semiring": "B", "q1": "Q() :- R(x, y)", '
            '"q2": "Q() :- R(x, x)", "id": 7}')
    (out,) = list(process_lines(engine, [line]))
    assert out["request_id"] == "7"


def test_batch_unusable_id_reported_in_band():
    from repro.api import process_lines

    engine = ContainmentEngine()
    line = ('{"semiring": "B", "q1": "Q() :- R(x, y)", '
            '"q2": "Q() :- R(x, x)", "id": [1, 2]}')
    (out,) = list(process_lines(engine, [line]))
    assert "error" in out and "request id" in out["error"]
    assert out.get("id") is None  # the unusable id is not echoed raw


def test_covered_atoms_stays_lazy_on_early_success(monkeypatch):
    # A pair with combinatorially many homomorphisms where the first
    # few already cover the target: coverage must stop early rather
    # than materialize the full enumeration (which is exponential).
    from repro.homomorphisms.search import HomKind, homomorphisms
    from repro.queries import CQ, Atom, Var

    source = CQ((), [Atom("R", (Var(f"x{i}"), Var(f"y{i}")))
                     for i in range(4)])
    target = CQ((), [Atom("R", (Var("a"), Var("b"))),
                     Atom("R", (Var("b"), Var("c"))),
                     Atom("R", (Var("c"), Var("d")))])
    seen = []

    def counting(*args):
        for mapping in homomorphisms(*args):
            seen.append(mapping)
            yield mapping

    monkeypatch.setattr("repro.api.engine.homomorphisms", counting)
    engine = ContainmentEngine()
    result = engine.covered_atoms(source, target)
    assert result == frozenset(target.atoms)
    # The uncached enumeration still sees all 3^4 = 81 mappings (each
    # independent atom picks a target atom); coverage stopped long
    # before that.
    mappings = list(homomorphisms(source, target, HomKind.PLAIN))
    assert len(mappings) == 81
    assert 0 < len(seen) < len(mappings)


def _golden_stream(engine) -> list:
    """A fixed request stream touching every layer and special case;
    returns its verdict documents."""
    from repro.data import Instance
    from repro.homomorphisms import HomKind

    documents = [engine.decide(
        ["Q() :- R(x, y), R(y, z)", "Q() :- R(x, x)"],
        ["Q() :- R(x, y)", "Q() :- R(x, y), R(y, x)"], "N")]
    for name in ("B", "N[X]", "Lin[X]", "B"):
        documents.append(engine.decide(Q1, Q2, name))
    documents.append(engine.decide(
        "Q() :- R(v), S(v)", ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"],
        "T+"))
    documents.append(engine.decide(Q1, Q2, "B", equivalence=True))
    source = engine.parse("Q() :- R(x, y)")
    target = engine.parse("Q() :- R(u, v), R(v, w)")
    engine.find_homomorphism(source, target, HomKind.PLAIN)
    engine.covered_atoms(source, target)
    engine.covered_atoms(target, source)
    engine.find_homomorphism(target, source, HomKind.INJECTIVE)
    instance = Instance.from_facts(engine.semiring("N"), [
        ("R", ("a", "b"), 2), ("R", ("b", "c"), 3)])
    table = engine.evaluate("Q(x) :- R(x, y), R(y, z)", instance)
    assert [(row, int(value)) for row, value in table.rows] == [(("a",), 6)]
    return documents


#: ``cache_info()`` after :func:`_golden_stream` on a cold engine and on
#: a second engine restored from its structural export (counters, entry
#: counts and key order must not move).  First recorded before the
#: per-layer cache methods were collapsed onto ``_memo``; the hom, hom
#: enumeration and cover figures were re-recorded when ``covering_2``
#: began deciding ``⇉1`` of a rigid-free pair on the given queries, the
#: hom figures again when the enumeration layer was removed, and the
#: hom, kernel, description and canonical figures when the bag
#: conditions began reading ``⟨Q2⟩`` of a rigid-free pair off
#: homomorphism kernels (the ``N`` pair builds and canonicalises only
#: ``⟨Q1⟩``, and its ``։∞`` edges are kernels, not surjective searches).
#: The canonical hits moved again when ``⟨Q⟩`` became a class table:
#: the conditions read keys off the table instead of recalling a form
#: per CCQ (neither ``⟨Q1⟩`` member has a symmetry, so the same six
#: forms are computed; the table recalls each member's finest CCQ once,
#: after asking it for the automorphism generators).  They fell by one
#: on both engines when each row began carrying its class's ``|Aut|``:
#: ``⇉2`` no longer recalls the form of its one repeated class.  The
#: ``small_model_*`` figures arrived with the small-model test-set
#: layer: the ``T+`` pair computes its one test pair cold and recalls
#: it restored.  When ``⇉2``'s set-reduced table joined ``⟨Q1⟩`` in the
#: ``descriptions`` layer, that layer gained one entry and, cold, one
#: call (the reduced table's miss), and the restored engine lost its
#: one canonical hit (the set reduct of the repeated class, now read
#: off the recalled table); every other figure stayed as it was.  The
#: hom figures rose by six when the dispatch began trying the ``N[X]``
#: transfer (a bijective member matching) in front of the ``N`` bounds
#: and the ``T+`` small model: each pair searches its two ``Q2``
#: members against each ``Q1`` member, and no matching exists.  They
#: fell by two when the transfer stopped searching a pair of members
#: with different atom counts, which no bijection maps.  The
#: ``probe_*`` figures arrived with the bag refuter's probe layer: the
#: ``N`` pair computes its one pattern's probes cold (neither refutes
#: it, so the verdict stays ``bounds-only``) and recalls them restored.
_GOLDEN_COLD = {
    "decisions": 7, "verdict_hits": 1, "classify_calls": 5,
    "classify_hits": 2, "parse_calls": 11, "parse_hits": 9, "hom_calls": 12,
    "hom_hits": 3, "kernel_calls": 7, "kernel_hits": 0, "cover_calls": 5,
    "cover_hits": 0, "description_calls": 2, "description_hits": 2,
    "canon_calls": 6, "canon_hits": 3,
    "small_model_calls": 1, "small_model_hits": 0,
    "probe_calls": 1, "probe_hits": 0,
    "poly_calls": 1, "poly_hits": 0, "poly_rejected": 0,
    "eval_plan_calls": 1, "eval_plan_hits": 0, "evaluations": 1,
    "classification_entries": 5, "parsed_entries": 11, "hom_entries": 12,
    "kernel_entries": 7, "cover_entries": 5, "description_entries": 2,
    "canon_entries": 6, "small_model_entries": 1, "probe_entries": 1,
    "poly_entries": 1,
    "eval_plan_entries": 1, "verdict_entries": 6}

_GOLDEN_RESTORED = {
    "decisions": 7, "verdict_hits": 1, "classify_calls": 0,
    "classify_hits": 7, "parse_calls": 0, "parse_hits": 20, "hom_calls": 0,
    "hom_hits": 15, "kernel_calls": 0, "kernel_hits": 7, "cover_calls": 0,
    "cover_hits": 5, "description_calls": 0, "description_hits": 3,
    "canon_calls": 0, "canon_hits": 0,
    "small_model_calls": 0, "small_model_hits": 1,
    "probe_calls": 0, "probe_hits": 1,
    "poly_calls": 0, "poly_hits": 1, "poly_rejected": 0,
    "eval_plan_calls": 0, "eval_plan_hits": 1, "evaluations": 1,
    "classification_entries": 5, "parsed_entries": 11, "hom_entries": 12,
    "kernel_entries": 7, "cover_entries": 5, "description_entries": 2,
    "canon_entries": 6, "small_model_entries": 1, "probe_entries": 1,
    "poly_entries": 1,
    "eval_plan_entries": 1, "verdict_entries": 6}


#: The ``to_dict()`` JSON of :func:`_golden_stream`'s verdict documents,
#: the same on the cold and the restored engine.  Pinned next to the
#: counters so that re-recording them cannot hide a verdict change.
_GOLDEN_VERDICTS = (
    '{"result": null, "method": "bounds-only", "semiring": "N", "q1": '
     '{"kind": "ucq", "members": [{"kind": "cq", "head": [], "atoms": '
     '[{"relation": "R", "terms": [{"var": "x"}, {"var": "x"}]}]}, '
     '{"kind": "cq", "head": [], "atoms": [{"relation": "R", "terms": '
     '[{"var": "x"}, {"var": "y"}]}, {"relation": "R", "terms": [{"var": '
     '"y"}, {"var": "z"}]}]}]}, "q2": {"kind": "ucq", "members": '
     '[{"kind": "cq", "head": [], "atoms": [{"relation": "R", "terms": '
     '[{"var": "x"}, {"var": "y"}]}]}, {"kind": "cq", "head": [], '
     '"atoms": [{"relation": "R", "terms": [{"var": "x"}, {"var": '
     '"y"}]}, {"relation": "R", "terms": [{"var": "y"}, {"var": '
     '"x"}]}]}]}, "certificate": null, "sufficient": false, "necessary": '
     'true, "explanation": "N lies in no decidable class; all known '
     'necessary conditions hold and all known sufficient conditions fail '
     '— the gap is the open problem / undecidability frontier of the '
     'paper", "request_id": null, "cached": false, "answer": '
     '"UNDECIDED"}',
    '{"result": true, "method": "homomorphism", "semiring": "B", "q1": '
     '{"kind": "ucq", "members": [{"kind": "cq", "head": [], "atoms": '
     '[{"relation": "R", "terms": [{"var": "u"}, {"var": "v"}]}, '
     '{"relation": "R", "terms": [{"var": "u"}, {"var": "w"}]}]}]}, '
     '"q2": {"kind": "ucq", "members": [{"kind": "cq", "head": [], '
     '"atoms": [{"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}]}]}, "certificate": {"kind": "homomorphism", "mapping": '
     '{"u": {"var": "u"}, "v": {"var": "v"}}}, "sufficient": null, '
     '"necessary": null, "explanation": "B ∈ Chom (Thm. 3.3)", '
     '"request_id": null, "cached": false, "answer": "CONTAINED"}',
    '{"result": false, "method": "bijective-homomorphism", "semiring": '
     '"N[X]", "q1": {"kind": "ucq", "members": [{"kind": "cq", "head": '
     '[], "atoms": [{"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"w"}]}]}]}, "q2": {"kind": "ucq", "members": [{"kind": "cq", '
     '"head": [], "atoms": [{"relation": "R", "terms": [{"var": "u"}, '
     '{"var": "v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}]}]}, "certificate": null, "sufficient": null, "necessary": '
     'null, "explanation": "N[X] ∈ Cbi (Thm. 4.10)", "request_id": null, '
     '"cached": false, "answer": "NOT CONTAINED"}',
    '{"result": true, "method": "homomorphic-covering", "semiring": '
     '"Lin[X]", "q1": {"kind": "ucq", "members": [{"kind": "cq", "head": '
     '[], "atoms": [{"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"w"}]}]}]}, "q2": {"kind": "ucq", "members": [{"kind": "cq", '
     '"head": [], "atoms": [{"relation": "R", "terms": [{"var": "u"}, '
     '{"var": "v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}]}]}, "certificate": null, "sufficient": null, "necessary": '
     'null, "explanation": "Lin[X] ∈ Chcov (Thm. 4.3)", "request_id": '
     'null, "cached": false, "answer": "CONTAINED"}',
    '{"result": true, "method": "homomorphism", "semiring": "B", "q1": '
     '{"kind": "ucq", "members": [{"kind": "cq", "head": [], "atoms": '
     '[{"relation": "R", "terms": [{"var": "u"}, {"var": "v"}]}, '
     '{"relation": "R", "terms": [{"var": "u"}, {"var": "w"}]}]}]}, '
     '"q2": {"kind": "ucq", "members": [{"kind": "cq", "head": [], '
     '"atoms": [{"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}]}]}, "certificate": {"kind": "homomorphism", "mapping": '
     '{"u": {"var": "u"}, "v": {"var": "v"}}}, "sufficient": null, '
     '"necessary": null, "explanation": "B ∈ Chom (Thm. 3.3)", '
     '"request_id": null, "cached": true, "answer": "CONTAINED"}',
    '{"result": true, "method": "small-model", "semiring": "T+", "q1": '
     '{"kind": "ucq", "members": [{"kind": "cq", "head": [], "atoms": '
     '[{"relation": "R", "terms": [{"var": "v"}]}, {"relation": "S", '
     '"terms": [{"var": "v"}]}]}]}, "q2": {"kind": "ucq", "members": '
     '[{"kind": "cq", "head": [], "atoms": [{"relation": "R", "terms": '
     '[{"var": "v"}]}, {"relation": "R", "terms": [{"var": "v"}]}]}, '
     '{"kind": "cq", "head": [], "atoms": [{"relation": "S", "terms": '
     '[{"var": "v"}]}, {"relation": "S", "terms": [{"var": "v"}]}]}]}, '
     '"certificate": null, "sufficient": null, "necessary": null, '
     '"explanation": "T+: canonical-instance polynomial comparison (Thm. '
     '4.17)", "request_id": null, "cached": false, "answer": '
     '"CONTAINED"}',
    '{"result": true, "method": "homomorphism+homomorphism", '
     '"semiring": "B", "q1": {"kind": "ucq", "members": [{"kind": "cq", '
     '"head": [], "atoms": [{"relation": "R", "terms": [{"var": "u"}, '
     '{"var": "v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"w"}]}]}]}, "q2": {"kind": "ucq", "members": [{"kind": "cq", '
     '"head": [], "atoms": [{"relation": "R", "terms": [{"var": "u"}, '
     '{"var": "v"}]}, {"relation": "R", "terms": [{"var": "u"}, {"var": '
     '"v"}]}]}]}, "certificate": null, "sufficient": null, "necessary": '
     'null, "explanation": "both containments hold", "request_id": null, '
     '"cached": false, "answer": "CONTAINED"}',
)


def test_golden_cache_counters_cold_and_restored():
    cold = ContainmentEngine()
    documents = _golden_stream(cold)
    restored = ContainmentEngine()
    restored.import_caches(cold.export_caches(include_verdicts=False))
    documents += _golden_stream(restored)
    assert [json.dumps(document.to_dict(), ensure_ascii=False)
            for document in documents] == list(_GOLDEN_VERDICTS) * 2
    for engine, golden in ((cold, _GOLDEN_COLD),
                           (restored, _GOLDEN_RESTORED)):
        info = engine.cache_info()
        assert info == golden
        assert list(info) == list(golden)


#: Curated pairs for the one-engine test: the CQ pair of Ex. 4.6, a
#: rigid-free bag chain pair (``⇉2``, ``։∞`` and ``→֒k`` on kernels), a
#: UCQ pair with head variables (the class-table paths) and the ``T+``
#: pair of the small-model procedure.
_ONE_ENGINE_PAIRS = (
    (Q1, Q2),
    ("Q() :- E(a, b), E(b, c), E(c, d)", "Q() :- E(x, y), E(y, z)"),
    (["Q(x) :- R(x, y), R(y, z)", "Q(x) :- R(x, x)"],
     ["Q(x) :- R(x, y)", "Q(x) :- R(x, y), R(y, x)"]),
    ("Q() :- R(v), S(v)", ["Q() :- R(v), R(v)", "Q() :- S(v), S(v)"]),
)


def _count_engines(monkeypatch) -> list:
    """Record every :class:`ContainmentEngine` built from now on."""
    built = []
    init = ContainmentEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ContainmentEngine, "__init__", counting_init)
    return built


def test_every_path_runs_on_the_callers_engine(monkeypatch):
    # A path that dropped its context would build an engine of its own
    # (the exported names default to a fresh one) and lose the caller's
    # caches: count constructions instead of trusting the call sites.
    from repro.algebra import check_rewrite, table
    from repro.core import explain, k_equivalent
    from repro.data import Instance
    from repro.optimize import (eliminate_redundant_members, minimize_cq,
                                normalize_ucq)
    from repro.queries import UCQ

    engine = ContainmentEngine()
    built = _count_engines(monkeypatch)
    for semiring in engine.registry:
        for q1, q2 in _ONE_ENGINE_PAIRS:
            engine.decide(q1, q2, semiring)
            engine.decide(q1, q2, semiring, equivalence=True)
    instance = Instance.from_facts(engine.semiring("N"), [
        ("R", ("a", "b"), 2), ("R", ("b", "c"), 3)])
    engine.evaluate("Q(x) :- R(x, y), R(y, z)", instance)
    lineage = engine.semiring("Lin[X]")
    cq1, cq2 = engine.parse(Q1), engine.parse(Q2)
    redundant = UCQ((cq1, cq2, engine.parse("Q() :- R(x, x)")))
    assert explain(cq1, cq2, lineage, context=engine).verdict.result
    assert k_equivalent(cq1, cq2, engine.semiring("B"),
                        context=engine).result
    for semiring in (engine.semiring("B"), lineage, engine.semiring("N")):
        minimize_cq(cq1, semiring, context=engine)
        normalize_ucq(redundant, semiring, context=engine)
        eliminate_redundant_members(redundant, semiring, context=engine)
    relation = table("R", "a", "b")
    check_rewrite(relation.join(relation), relation, lineage,
                  context=engine)
    assert built == []
    stats = engine.stats  # the curated pairs reach every kind of layer
    assert min(stats.cover_calls, stats.kernel_calls, stats.description_calls,
               stats.small_model_calls, stats.eval_plan_calls) > 0


def test_library_minimization_builds_one_engine(monkeypatch):
    from repro.optimize import minimize_cq
    from repro.queries import parse_cq
    from repro.semirings import B

    built = _count_engines(monkeypatch)
    result = minimize_cq(parse_cq("Q() :- R(x, y), R(x, z), R(x, w)"), B)
    assert result.removed == 2
    assert len(built) == 1
