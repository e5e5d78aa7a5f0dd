import pytest

from fellbund.groupoid import (FiniteGroupoid, PartialActionOnSet, composable_pairs,
                               composable_triples, cyclic_group, global_action_on_set,
                               klein_four, pair_groupoid, transformation_groupoid,
                               trivial_group, validate_groupoid,
                               validate_partial_action)
from fellbund import gallery


def brute_pairs(G):
    # independent oracle: enumerate all ordered pairs and test s/r matching
    return [(g, h) for g in G.arrows for h in G.arrows if G.src[g] == G.rng[h]]


def test_trivial_group_valid():
    G = trivial_group()
    assert validate_groupoid(G).ok
    assert composable_pairs(G) == [("e", "e")]


def test_z2_valid_and_pairs():
    G = cyclic_group(2)
    assert validate_groupoid(G).ok
    assert len(composable_pairs(G)) == 4  # all pairs composable in a group


def test_z2_with_broken_inverse_cited():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"}
    G = FiniteGroupoid.from_data(["pt"], ["e", "g"],
                                 {"e": "pt", "g": "pt"}, {"e": "pt", "g": "pt"},
                                 {"pt": "e"}, {"e": "e", "g": "g"}, table)
    rep = validate_groupoid(G)
    assert not rep.ok
    assert any("inverse axiom" in v.check for v in rep.violations)


def test_pair_groupoid_has_eight_composable_pairs():
    G = pair_groupoid(["1", "2"])
    assert validate_groupoid(G).ok
    oracle = brute_pairs(G)
    assert len(oracle) == 8
    assert composable_pairs(G) == oracle


def test_pairs_count_matches_fiber_formula():
    for G in (cyclic_group(3), pair_groupoid(["a", "b", "c"]), klein_four()):
        total = sum(len(G.source_fiber(x)) * len(G.range_fiber(x)) for x in G.objects)
        assert len(composable_pairs(G)) == total


def test_inverse_is_antihomomorphism():
    for G in (cyclic_group(4), pair_groupoid(["a", "b"])):
        for g, h in composable_pairs(G):
            gh = G.comp[(g, h)]
            assert G.inv[gh] == G.comp[(G.inv[h], G.inv[g])]


def test_triples_are_consistent():
    G = pair_groupoid(["a", "b"])
    for g, h, k in composable_triples(G):
        assert G.src[g] == G.rng[h] and G.src[h] == G.rng[k]
    assert len(composable_triples(G)) == 16


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        FiniteGroupoid.from_data(["x", "x"], ["e"], {"e": "x"}, {"e": "x"},
                                 {"x": "e"}, {"e": "e"}, {("e", "e"): "e"})


def test_dangling_reference_rejected():
    with pytest.raises(ValueError, match="dangling"):
        FiniteGroupoid.from_data(["x"], ["e"], {"e": "y"}, {"e": "x"},
                                 {"x": "e"}, {"e": "e"}, {("e", "e"): "e"})


def test_swap_action_gives_pair_groupoid():
    act = gallery.swap_action_on_two_points()
    assert validate_partial_action(act).ok
    H, arrow_dict = transformation_groupoid(act)
    assert validate_groupoid(H).ok
    assert len(H.arrows) == 4
    # explicit isomorphism with the pair groupoid: hom-sets are singletons
    P = pair_groupoid(["p", "q"])
    match = {}
    for t in H.arrows:
        x, g, y = arrow_dict[t]
        match[t] = f"{x}<{y}"
    assert sorted(match.values()) == sorted(P.arrows)
    for (t, u), tu in H.comp.items():
        assert P.comp[(match[t], match[u])] == match[tu]


def test_trivial_action_returns_same_group():
    G = cyclic_group(2)
    act = global_action_on_set(G, ["p"], {"p": "pt"},
                               {("g1", "p"): "p"})
    H, arrow_dict = transformation_groupoid(act)
    assert len(H.objects) == 1 and len(H.arrows) == 2
    # composition table matches Z/2
    mids = {t: arrow_dict[t][1] for t in H.arrows}
    for (t, u), tu in H.comp.items():
        assert G.comp[(mids[t], mids[u])] == mids[tu]


def test_partial_swap_has_five_arrows():
    H, _ = transformation_groupoid(gallery.partial_swap_action())
    assert len(H.arrows) == 5  # 3 units + the two swap triples
    assert validate_groupoid(H).ok


def test_transformation_groupoid_src_rng_follow_triples():
    H, arrow_dict = transformation_groupoid(gallery.swap_fix_action())
    for t, (x, g, y) in arrow_dict.items():
        assert H.src[t] == y and H.rng[t] == x


def test_invalid_action_is_rejected():
    G = cyclic_group(2)
    # g.p defined but g.(g.p) missing breaks the inverse/composite axioms
    act = PartialActionOnSet(G, ("p", "q"), {"p": "pt", "q": "pt"},
                             {(G.unit["pt"], "p"): "p", (G.unit["pt"], "q"): "q",
                              ("g1", "p"): "q"})
    rep = validate_partial_action(act)
    assert not rep.ok
    with pytest.raises(ValueError, match="invalid partial action"):
        transformation_groupoid(act)


def broken_table_groupoid():
    # Z/3 and pair({x, y}) side by side, with a non-associative product, a
    # missing entry, a composite with the wrong endpoints and an entry on a
    # non-composable pair; (g1, x<y) must not be read as a composite
    Z, P = cyclic_group(3), pair_groupoid(["x", "y"])
    comp = {**Z.comp, **P.comp}
    comp[("g1", "g1")] = "e"
    del comp[("x<y", "y<x")]
    comp[("y<x", "x<x")] = "g1"
    comp[("g1", "x<y")] = "g2"
    return FiniteGroupoid.from_data(Z.objects + P.objects, Z.arrows + P.arrows,
                                    {**Z.src, **P.src}, {**Z.rng, **P.rng},
                                    {**Z.unit, **P.unit}, {**Z.inv, **P.inv}, comp)


def test_broken_composition_table_violations_in_order():
    G = broken_table_groupoid()
    got = [(v.check, v.where, v.detail) for v in validate_groupoid(G).violations]
    assert got == [
        ("composition missing", "(x<y,y<x)", ""),
        ("composition defined on non-composable pair", "(g1,x<y)", ""),
        ("right unit law", "arrow y<x", "y<x·u = g1"),
        ("composite endpoints", "(y<x,x<x)", ""),
        ("associativity", "(g1,g1,g2)", "(g1g1)g2 = g2 != g1"),
        ("associativity", "(g1,g2,g2)", "(g1g2)g2 = g2 != e"),
        ("associativity", "(g2,g1,g1)", "(g2g1)g1 = g1 != g2"),
        ("associativity", "(g2,g2,g1)", "(g2g2)g1 = e != g2"),
    ]


def brute_triples(G):
    return [(g, h, k) for g in G.arrows for h in G.arrows for k in G.arrows
            if G.src[g] == G.rng[h] and G.src[h] == G.rng[k]]


def brute_force_cases():
    cases = {name: b.groupoid for name, b in gallery.shipped_bundles().items()}
    cases.update({"pair9": pair_groupoid([f"x{i}" for i in range(9)]),
                  "z24": cyclic_group(24), "broken-table": broken_table_groupoid()})
    return cases


@pytest.mark.parametrize("name", list(brute_force_cases()))
def test_composable_pairs_and_triples_equal_brute_force(name):
    G = brute_force_cases()[name]
    assert composable_pairs(G) == brute_pairs(G)
    assert composable_triples(G) == brute_triples(G)
