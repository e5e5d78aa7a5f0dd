"""Finite groupoids with the counting Haar system.

A groupoid is stored combinatorially: ordered object and arrow id lists,
source/range/unit/inverse maps, and an explicit partial composition table
(absent entry = undefined, never a sentinel).  All iteration follows the
declared orders so downstream reports are deterministic.  The Haar system is
fixed to counting measure on every fibre, so every integral in the section
algebra becomes a plain sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .report import ValidationReport


@dataclass(frozen=True)
class FiniteGroupoid:
    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: Mapping[str, str]
    rng: Mapping[str, str]
    unit: Mapping[str, str]
    inv: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]

    @staticmethod
    def from_data(objects: Iterable[str], arrows: Iterable[str], src, rng, unit, inv,
                  comp) -> "FiniteGroupoid":
        g = FiniteGroupoid(tuple(objects), tuple(arrows), dict(src), dict(rng),
                           dict(unit), dict(inv),
                           {(a, b): c for (a, b), c in dict(comp).items()})
        g._check_references()
        return g

    def _check_references(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        arrows = set(self.arrows)
        objects = set(self.objects)
        for g in self.arrows:
            if self.src.get(g) not in objects or self.rng.get(g) not in objects:
                raise ValueError(f"arrow {g!r} has dangling src/rng")
            if self.inv.get(g) not in arrows:
                raise ValueError(f"arrow {g!r} has dangling inverse")
        for x in self.objects:
            if self.unit.get(x) not in arrows:
                raise ValueError(f"object {x!r} has dangling unit")
        for (g, h), k in self.comp.items():
            if g not in arrows or h not in arrows or k not in arrows:
                raise ValueError(f"composition entry ({g!r},{h!r}) dangles")

    # -- indexing ------------------------------------------------------------

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.arrows)}

    def source_fiber(self, x: str) -> tuple[str, ...]:
        """G_x: arrows with source x, in declared order."""
        return tuple(g for g in self.arrows if self.src[g] == x)

    def range_fiber(self, x: str) -> tuple[str, ...]:
        """G^x: arrows with range x, in declared order."""
        return tuple(g for g in self.arrows if self.rng[g] == x)

    def compose(self, g: str, h: str) -> str:
        return self.comp[(g, h)]

    def can_compose(self, g: str, h: str) -> bool:
        return self.src[g] == self.rng[h]


def composable_pairs(G: FiniteGroupoid) -> list[tuple[str, str]]:
    """All (g, h) with src(g) = rng(h), lexicographic in arrow indices."""
    return [(g, h) for g in G.arrows for h in G.arrows if G.src[g] == G.rng[h]]


def composable_triples(G: FiniteGroupoid) -> list[tuple[str, str, str]]:
    return [(g, h, k)
            for g in G.arrows for h in G.arrows for k in G.arrows
            if G.src[g] == G.rng[h] and G.src[h] == G.rng[k]]


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom; the report lists each violation with the
    witnessing arrows."""
    rep = ValidationReport(f"groupoid({len(G.objects)} objects, {len(G.arrows)} arrows)")

    for x in G.objects:
        u = G.unit[x]
        rep.require(G.src[u] == x and G.rng[u] == x, "unit endpoints", f"object {x}",
                    detail=f"unit {u} has src={G.src[u]} rng={G.rng[u]}")

    # composition defined exactly on matching pairs
    for g, h in composable_pairs(G):
        if (g, h) not in G.comp:
            rep.add("composition missing", f"({g},{h})")
    for (g, h) in G.comp:
        if G.src[g] != G.rng[h]:
            rep.add("composition defined on non-composable pair", f"({g},{h})")

    # the entries on composable pairs; an entry elsewhere is reported above
    # and never read as a composite
    comp = {(g, h): k for (g, h), k in G.comp.items() if G.src[g] == G.rng[h]}

    for g in G.arrows:
        ur, us = G.unit[G.rng[g]], G.unit[G.src[g]]
        left, right = comp.get((ur, g)), comp.get((g, us))
        if left is not None and left != g:
            rep.add("left unit law", f"arrow {g}", detail=f"u·{g} = {left}")
        if right is not None and right != g:
            rep.add("right unit law", f"arrow {g}", detail=f"{g}·u = {right}")
        gi = G.inv[g]
        rep.require(G.src[gi] == G.rng[g] and G.rng[gi] == G.src[g],
                    "inverse endpoints", f"arrow {g}")
        ggi, gig = comp.get((g, gi)), comp.get((gi, g))
        if ggi is not None and ggi != G.unit[G.rng[g]]:
            rep.add("inverse axiom", f"arrow {g}",
                    detail=f"{g}·{gi} = {ggi} != unit({G.rng[g]})")
        if gig is not None and gig != G.unit[G.src[g]]:
            rep.add("inverse axiom", f"arrow {g}",
                    detail=f"{gi}·{g} = {gig} != unit({G.src[g]})")
        rep.require(G.inv[gi] == g, "inverse involutive", f"arrow {g}")

    for g, h in composable_pairs(G):
        gh = comp.get((g, h))
        if gh is not None:
            rep.require(G.src[gh] == G.src[h] and G.rng[gh] == G.rng[g],
                        "composite endpoints", f"({g},{h})")

    for g, h, k in composable_triples(G):
        gh, hk = comp.get((g, h)), comp.get((h, k))
        if gh is None or hk is None:
            continue
        left, right = comp.get((gh, k)), comp.get((g, hk))
        if left is not None and right is not None and left != right:
            rep.add("associativity", f"({g},{h},{k})",
                    detail=f"({g}{h}){k} = {left} != {right}")
    return rep


# -- constructors -------------------------------------------------------------

def group_from_table(elements: Iterable[str], table: Mapping[tuple[str, str], str],
                     identity: str) -> FiniteGroupoid:
    """One-object groupoid from a group multiplication table."""
    elements = tuple(elements)
    inv = {}
    for g in elements:
        for h in elements:
            if table[(g, h)] == identity:
                inv[g] = h
                break
        else:
            raise ValueError(f"no inverse for {g!r}")
    return FiniteGroupoid.from_data(("pt",), elements,
                                    {g: "pt" for g in elements},
                                    {g: "pt" for g in elements},
                                    {"pt": identity}, inv, table)


def trivial_group() -> FiniteGroupoid:
    return group_from_table(("e",), {("e", "e"): "e"}, "e")


def cyclic_group(n: int) -> FiniteGroupoid:
    names = [f"g{i}" for i in range(n)]
    names[0] = "e"
    table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    return group_from_table(names, table, "e")


def klein_four() -> FiniteGroupoid:
    """Z/2 x Z/2 with elements named by their bit pairs."""
    bits = [(0, 0), (0, 1), (1, 0), (1, 1)]
    name = {b: "e" if b == (0, 0) else f"g{b[0]}{b[1]}" for b in bits}
    table = {}
    for a in bits:
        for b in bits:
            table[(name[a], name[b])] = name[((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)]
    return group_from_table([name[b] for b in bits], table, "e")


def pair_groupoid(objects: Iterable[str]) -> FiniteGroupoid:
    """Arrows (x <- y) for every ordered pair of objects."""
    objects = tuple(objects)
    arrows = [f"{x}<{y}" for x in objects for y in objects]
    src = {f"{x}<{y}": y for x in objects for y in objects}
    rng = {f"{x}<{y}": x for x in objects for y in objects}
    unit = {x: f"{x}<{x}" for x in objects}
    inv = {f"{x}<{y}": f"{y}<{x}" for x in objects for y in objects}
    comp = {}
    for x, y, z in itertools.product(objects, repeat=3):
        comp[(f"{x}<{y}", f"{y}<{z}")] = f"{x}<{z}"
    return FiniteGroupoid.from_data(objects, arrows, src, rng, unit, inv, comp)


# -- partial actions on finite sets -------------------------------------------

@dataclass(frozen=True)
class PartialActionOnSet:
    """Partial action of a groupoid on a finite set with anchor map.

    ``act`` maps (g, y) -> g.y, defined exactly on the stored keys; the
    domain of g is the set of y with (g, y) present.  Units must act
    identically on their whole anchor fibre.
    """

    groupoid: FiniteGroupoid
    points: tuple[str, ...]
    anchor: Mapping[str, str]
    act: Mapping[tuple[str, str], str] = field(default_factory=dict)

    def domain(self, g: str) -> tuple[str, ...]:
        return tuple(y for y in self.points if (g, y) in self.act)

    def apply(self, g: str, y: str) -> str:
        return self.act[(g, y)]


def global_action_on_set(G: FiniteGroupoid, points: Iterable[str], anchor: Mapping[str, str],
                         act: Mapping[tuple[str, str], str]) -> PartialActionOnSet:
    """Convenience constructor that fills in the unit actions."""
    points = tuple(points)
    table = dict(act)
    for x in G.objects:
        for y in points:
            if anchor[y] == x:
                table.setdefault((G.unit[x], y), y)
    return PartialActionOnSet(G, points, dict(anchor), table)


def validate_partial_action(A: PartialActionOnSet) -> ValidationReport:
    G = A.groupoid
    rep = ValidationReport(f"partial action on {len(A.points)} points")
    for (g, y), x in A.act.items():
        if g not in G.arrow_index or y not in A.points or x not in A.points:
            raise ValueError(f"dangling action entry ({g!r},{y!r})")
        rep.require(A.anchor[y] == G.src[g], "domain anchored at source",
                    f"({g},{y})", detail=f"anchor({y})={A.anchor[y]} != src({g})")
        rep.require(A.anchor[x] == G.rng[g], "image anchored at range", f"({g},{y})")
    for x in G.objects:
        u = G.unit[x]
        for y in A.points:
            if A.anchor[y] != x:
                continue
            if (u, y) not in A.act:
                rep.add("unit domain", f"({u},{y})", detail="unit must act on its fibre")
            elif A.act[(u, y)] != y:
                rep.add("unit acts identically", f"({u},{y})")
    for g in G.arrows:
        gi = G.inv[g]
        for y in A.domain(g):
            x = A.apply(g, y)
            if (gi, x) not in A.act:
                rep.add("inverse domain", f"({g},{y})",
                        detail=f"{gi} undefined on image point {x}")
            elif A.apply(gi, x) != y:
                rep.add("bijectivity", f"({g},{y})")
    # partial-action containment: act(g, act(h, z)) = act(gh, z) when LHS defined
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        for z in A.domain(h):
            w = A.apply(h, z)
            if (g, w) in A.act:
                if (gh, z) not in A.act:
                    rep.add("composite domain", f"({g},{h},{z})",
                            detail=f"{g}.({h}.{z}) defined but ({gh},{z}) is not")
                elif A.apply(gh, z) != A.apply(g, w):
                    rep.add("composite action", f"({g},{h},{z})")
    return rep


def transformation_groupoid(A: PartialActionOnSet) -> tuple[FiniteGroupoid, dict]:
    """Transformation groupoid of a partial action.

    Objects are the points; arrows are the triples (x, g, y) with x = g.y.
    Returns the groupoid and the dictionary arrow id -> (x, g, y).  With the
    counting Haar system on the base, the induced Haar system is again
    counting measure.
    """
    rep = validate_partial_action(A)
    if not rep.ok:
        raise ValueError("invalid partial action:\n" + rep.summary())
    G = A.groupoid
    triples = []
    for g in G.arrows:
        for y in A.points:
            if (g, y) in A.act:
                triples.append((A.apply(g, y), g, y))
    name = {t: f"{t[0]}|{t[1]}|{t[2]}" for t in triples}
    arrows = [name[t] for t in triples]
    src = {name[(x, g, y)]: y for (x, g, y) in triples}
    rng = {name[(x, g, y)]: x for (x, g, y) in triples}
    unit = {y: name[(y, G.unit[A.anchor[y]], y)] for y in A.points}
    inv = {name[(x, g, y)]: name[(y, G.inv[g], x)] for (x, g, y) in triples}
    comp = {}
    for (x, g, y) in triples:
        for (y2, h, z) in triples:
            if y2 != y or not G.can_compose(g, h):
                continue
            comp[(name[(x, g, y)], name[(y2, h, z)])] = name[(x, G.comp[(g, h)], z)]
    H = FiniteGroupoid.from_data(A.points, arrows, src, rng, unit, inv, comp)
    return H, {name[t]: t for t in triples}
