"""Finite groupoids with the counting Haar system.

A groupoid is stored combinatorially: ordered object and arrow id lists,
source/range/unit/inverse maps, and an explicit partial composition table
(absent entry = undefined, never a sentinel).  All iteration follows the
declared orders so downstream reports are deterministic.  The Haar system is
fixed to counting measure on every fibre, so every integral in the section
algebra becomes a plain sum.  ``FiniteGroupoid.tables`` holds the same
data once more as read-only integer arrays (arrows and objects by declared
index), which the validators read instead of walking the tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

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

    @cached_property
    def _fibers(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """G_x and G^x of every object, in declared arrow order."""
        by_src: dict[str, list[str]] = {}
        by_rng: dict[str, list[str]] = {}
        for g in self.arrows:
            by_src.setdefault(self.src[g], []).append(g)
            by_rng.setdefault(self.rng[g], []).append(g)
        return ({x: tuple(a) for x, a in by_src.items()},
                {x: tuple(a) for x, a in by_rng.items()})

    def source_fiber(self, x: str) -> tuple[str, ...]:
        """G_x: arrows with source x, in declared order."""
        return self._fibers[0].get(x, ())

    def range_fiber(self, x: str) -> tuple[str, ...]:
        """G^x: arrows with range x, in declared order."""
        return self._fibers[1].get(x, ())

    def can_compose(self, g: str, h: str) -> bool:
        return self.src[g] == self.rng[h]

    @cached_property
    def tables(self) -> "GroupoidTables":
        """The integer tables of the groupoid (built once, read-only)."""
        return GroupoidTables.of(self)


@dataclass(frozen=True, eq=False)
class GroupoidTables:
    """A groupoid as integer arrays, arrows and objects by declared index.

    ``comp[g, h]`` is the composite of a composable pair with an entry and -1
    elsewhere, so an entry on a non-composable pair is never read as a
    composite; ``pairs`` (P, 2) and ``triples()`` (T, 3) list the composable
    pairs and triples in the order of ``composable_pairs`` and
    ``composable_triples``, and ``pair[g, h]`` is the position of (g, h) in
    ``pairs`` (-1 off them).  Every array is read-only.
    """

    src: np.ndarray   # (n,) object index of each arrow's source
    rng: np.ndarray   # (n,) and of its range
    inv: np.ndarray   # (n,) arrow index of each inverse
    unit: np.ndarray  # (objects,) arrow index of each unit
    comp: np.ndarray  # (n, n)
    pairs: np.ndarray
    pair: np.ndarray

    @staticmethod
    def of(G: FiniteGroupoid) -> "GroupoidTables":
        at, obj = G.arrow_index, {x: i for i, x in enumerate(G.objects)}
        src = np.array([obj[G.src[g]] for g in G.arrows], dtype=np.intp)
        rng = np.array([obj[G.rng[g]] for g in G.arrows], dtype=np.intp)
        n = len(G.arrows)
        comp = np.full((n, n), -1, dtype=np.intp)
        for (g, h), k in G.comp.items():
            if G.src[g] == G.rng[h]:
                comp[at[g], at[h]] = at[k]
        first, h = _range_fiber_steps(rng, len(G.objects), src)
        pair = np.full((n, n), -1, dtype=np.intp)
        pair[first, h] = np.arange(len(first))
        tables = GroupoidTables(src, rng, np.array([at[G.inv[g]] for g in G.arrows], dtype=np.intp),
                                np.array([at[G.unit[x]] for x in G.objects], dtype=np.intp),
                                comp, np.stack([first, h], axis=1), pair)
        for a in vars(tables).values():
            a.flags.writeable = False
        return tables

    def triples(self) -> np.ndarray:
        """(T, 3): every (g, h, k) with (g, h) and (h, k) composable; built
        on the first call and kept (``of`` stays cheap for callers that
        never ask: T grows as the cube of the arrows)."""
        return self._triples

    @cached_property
    def _triples(self) -> np.ndarray:
        first, k = _range_fiber_steps(self.rng, len(self.unit), self.src[self.pairs[:, 1]])
        out = np.concatenate([self.pairs[first], k[:, None]], axis=1)
        out.flags.writeable = False
        return out


def _range_fiber_steps(rng: np.ndarray, objects: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position i of ``at`` (object indices), in order, every arrow
    of G^{at[i]} in declared order: the positions i, repeated, and the arrows."""
    by_rng = np.argsort(rng, kind="stable")
    count = np.bincount(rng, minlength=objects)
    reps = count[at]
    first = np.repeat(np.arange(len(at)), reps)
    local = np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    return first, by_rng[(np.cumsum(count) - count)[at][first] + local]


def composable_pairs(G: FiniteGroupoid) -> list[tuple[str, str]]:
    """All (g, h) with src(g) = rng(h), lexicographic in arrow indices; in
    time proportional to their number."""
    return [(g, h) for g in G.arrows for h in G.range_fiber(G.src[g])]


def missing_composite(G: FiniteGroupoid) -> tuple[str, str] | None:
    """The first composable pair, in ``composable_pairs`` order, that the
    composition table leaves without a composite; None if there is none."""
    T = G.tables
    gaps = np.flatnonzero(T.comp[T.pairs[:, 0], T.pairs[:, 1]] < 0)
    return (G.arrows[T.pairs[gaps[0], 0]], G.arrows[T.pairs[gaps[0], 1]]) if len(gaps) else None


def composable_triples(G: FiniteGroupoid) -> list[tuple[str, str, str]]:
    """All (g, h, k) with src(g) = rng(h) and src(h) = rng(k), lexicographic."""
    return [(g, h, k) for g in G.arrows for h in G.range_fiber(G.src[g])
            for k in G.range_fiber(G.src[h])]


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom; the report lists each violation with the
    witnessing arrows.  Composition is checked on ``G.tables``: the pairs and
    triples are tested as arrays, and only the failing ones are walked."""
    rep = ValidationReport(f"groupoid({len(G.objects)} objects, {len(G.arrows)} arrows)")
    T, arrows = G.tables, G.arrows

    for x in G.objects:
        u = G.unit[x]
        rep.require(G.src[u] == x and G.rng[u] == x, "unit endpoints", f"object {x}",
                    detail=f"unit {u} has src={G.src[u]} rng={G.rng[u]}")

    # composition defined exactly on matching pairs
    g, h = T.pairs[:, 0], T.pairs[:, 1]
    gh = T.comp[g, h]
    for p in np.flatnonzero(gh < 0):
        rep.add("composition missing", f"({arrows[g[p]]},{arrows[h[p]]})")
    for (a, b) in G.comp:
        if G.src[a] != G.rng[b]:
            rep.add("composition defined on non-composable pair", f"({a},{b})")

    def composite(i: int, j: int) -> str | None:
        """The entry of (i, j) in ``T.comp``; None for -1."""
        k = T.comp[i, j]
        return None if k < 0 else arrows[k]

    for i, a in enumerate(arrows):
        ur, us = T.unit[T.rng[i]], T.unit[T.src[i]]
        left, right = composite(ur, i), composite(i, us)
        if left is not None and left != a:
            rep.add("left unit law", f"arrow {a}", detail=f"u·{a} = {left}")
        if right is not None and right != a:
            rep.add("right unit law", f"arrow {a}", detail=f"{a}·u = {right}")
        ai = G.inv[a]
        rep.require(G.src[ai] == G.rng[a] and G.rng[ai] == G.src[a],
                    "inverse endpoints", f"arrow {a}")
        aai, aia = composite(i, T.inv[i]), composite(T.inv[i], i)
        if aai is not None and aai != G.unit[G.rng[a]]:
            rep.add("inverse axiom", f"arrow {a}",
                    detail=f"{a}·{ai} = {aai} != unit({G.rng[a]})")
        if aia is not None and aia != G.unit[G.src[a]]:
            rep.add("inverse axiom", f"arrow {a}",
                    detail=f"{ai}·{a} = {aia} != unit({G.src[a]})")
        rep.require(G.inv[ai] == a, "inverse involutive", f"arrow {a}")

    known = gh >= 0
    bad = known & ((T.src[np.where(known, gh, 0)] != T.src[h])
                   | (T.rng[np.where(known, gh, 0)] != T.rng[g]))
    for p in np.flatnonzero(bad):
        rep.add("composite endpoints", f"({arrows[g[p]]},{arrows[h[p]]})")

    # associativity where both sides are defined: (gh)k and g(hk)
    g, h, k = T.triples().T
    gh, hk = T.comp[g, h], T.comp[h, k]
    known = (gh >= 0) & (hk >= 0)
    left = np.where(known, T.comp[np.where(known, gh, 0), k], -1)
    right = np.where(known, T.comp[g, np.where(known, hk, 0)], -1)
    for t in np.flatnonzero((left >= 0) & (right >= 0) & (left != right)):
        a, b, c = arrows[g[t]], arrows[h[t]], arrows[k[t]]
        rep.add("associativity", f"({a},{b},{c})",
                detail=f"({a}{b}){c} = {arrows[left[t]]} != {arrows[right[t]]}")
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
