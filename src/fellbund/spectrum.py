"""Fibre spectra, the dual groupoid, quasi-orbits, induced/restricted ideals.

The spectrum of a finite-dimensional fibre algebra is its list of matrix
blocks.  An arrow g acts partially on the blocks of the source fibre: pi is
in the domain iff it survives on span(A_g* A_g), and then left
multiplication on the Gram quotient of A_g (x)_pi C^{dim pi} is irreducible
and selects a unique block of the range fibre.  ``dual_images`` finds the
images of many (arrow, block) items in one stacked pass per shape: the Gram
quotients from ``envelope.induced_fibres``, the block from one trace per
item against the projections of the range fibre's blocks; the dual groupoid
takes all its arrows from one call and composes them by target block.
Finite spectra are discrete, so quasi-orbits are plain orbits (recorded in
reports, not silently assumed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, Structure
from .config import DEFAULT, Tolerances
from .envelope import (SimpleBlock, block_decomposition, envelope_algebra, induced_fibres,
                       irrep_frames)
from .groupoid import FiniteGroupoid
from .ideals import (InvariantFamily, enumerate_fell_ideals, ideal_from_invariant_family,
                     validate_invariant_family)
from .report import ValidationReport
from .sections import Section

Array = np.ndarray


@dataclass
class SpectrumBlock:
    obj: str
    index: int
    dim: int
    projection: Array   # minimal central projection in Mat(n_x)
    frame: Array        # (dim, n_x) rows spanning an irreducible subspace
    coords: Array       # unit-fibre coordinates of the projection
    support: Array      # orthonormal rows spanning p . A_{u(x)}, unit-fibre coordinates

    @property
    def key(self) -> tuple[str, int]:
        return (self.obj, self.index)

    def irrep(self, mat: Array) -> Array:
        return self.frame.conj() @ mat @ self.frame.T


@dataclass
class FiberSpectrum:
    bundle: FellBundle
    by_object: Mapping[str, list[SpectrumBlock]]

    def blocks(self) -> list[SpectrumBlock]:
        return [b for x in self.bundle.groupoid.objects for b in self.by_object[x]]

    def block(self, key: tuple[str, int]) -> SpectrumBlock:
        return self.by_object[key[0]][key[1]]


def fiber_spectrum(bundle: FellBundle, tols: Tolerances = DEFAULT) -> FiberSpectrum:
    """Blocks of every nonzero unit fibre, with irreducible frames.

    Each unit fibre is decomposed once per bundle and tolerances
    (``bundle.memo``); ideals, the dual groupoid and the Galois check read
    the blocks' projection coordinates and supports from here.
    """
    return bundle.memo(("spectrum", tols), lambda: _fiber_spectrum(bundle, tols))


def _fiber_spectrum(bundle: FellBundle, tols: Tolerances) -> FiberSpectrum:
    """The blocks of every unit fibre, then their unit-fibre coordinates by
    one stacked least-squares solve and their supports by one stacked
    ``orth_rows`` per shape (bit for bit one ``unit_coords`` and one
    ``orth_rows`` per block)."""
    G = bundle.groupoid
    found = []  # (object, block) in object order
    for x in G.objects:
        stack = bundle.unit_rep[x]
        if bundle.dims[G.unit[x]]:
            found += [(x, b) for b in irrep_frames(stack, block_decomposition(
                stack, Structure.unit_fibre(bundle, x),
                lambda: bundle.unit_algebra_unit(x), tols), tols)]
    solved = la.stacked([(la.flatten_stack(bundle.unit_rep[x]).T, b.projection.reshape(-1))
                         for x, b in found], lambda a, p: la.stacked_lstsq(a, p)[:2])
    for (x, b), (_, res) in zip(found, solved):
        if res > 1e-7 * max(1.0, float(np.linalg.norm(b.projection))):
            raise ValueError(f"central projection at {x} left the unit fibre")
    # columns of the left-multiplication matrix: coordinates of p . e_j
    supports = la.stacked([(left_matrix(bundle, G.unit[x], G.unit[x], coords).T,)
                           for (x, _), (coords, _) in zip(found, solved)],
                          lambda v: la.stacked_orth_rows(v, tols.rank_threshold))
    by_object: dict[str, list[SpectrumBlock]] = {x: [] for x in G.objects}
    for (x, b), (coords, _), (vh, rank) in zip(found, solved, supports):
        by_object[x].append(SpectrumBlock(x, len(by_object[x]), b.size, b.projection,
                                          b.irrep_frame, coords,
                                          np.ascontiguousarray(vh[:rank])))
    return FiberSpectrum(bundle, by_object)


def dual_arrow_action(bundle: FellBundle, spec: FiberSpectrum, g: str,
                      block: SpectrumBlock,
                      tols: Tolerances = DEFAULT) -> SpectrumBlock | None:
    """Image of a source-fibre block under the arrow, or None if undefined
    (the Gram quotient of A_g (x)_pi C^{dim pi} is zero): ``dual_images`` of
    the one item.  Raises ValueError when that Gram matrix is not positive."""
    if block.obj != bundle.groupoid.src[g]:
        raise ValueError(f"block at {block.obj} is not in the source fibre of {g}")
    return dual_images(bundle, spec, [(g, block)], tols)[0]


def dual_images(bundle: FellBundle, spec: FiberSpectrum,
                items: list[tuple[str, SpectrumBlock]],
                tols: Tolerances = DEFAULT) -> list[SpectrumBlock | None]:
    """The image of each item (g, a block pi of the fibre at s(g)) under the
    dual action, or None where it is undefined, in one stacked pass per
    shape.

    ``induced_fibres`` cuts the Gram quotients of A_g (x)_pi C^{dim pi}.  The
    image is the block of the range fibre whose projection p acts on the
    quotient with nonzero trace: tr(kron(L_p, 1) P), with P the projection
    on the kept eigenvectors and L_p left multiplication by p on A_g, is
    sum_i p_i W_i with W_i = sum_{k, j, v} mult[(u, g)][k, i, j] P[(j, v), (k, v)].
    Per stack, one einsum forms W and one product its traces against every
    block of that unit-fibre dimension; a zero quotient has no nonzero
    trace, and the action is undefined there.  A Gram matrix that is not
    positive or an image that hits two blocks raises ValueError, the first
    in item order."""
    G = bundle.groupoid
    at = {x: i for i, x in enumerate(G.objects)}
    blocks = {b.key: b for _, b in items}
    irreps = {k: np.stack([b.irrep(m) for m in bundle.unit_rep[b.obj]]) for k, b in blocks.items()}
    candidates: dict[int, list[SpectrumBlock]] = {}  # the image blocks by unit-fibre dimension
    for c in spec.blocks():
        candidates.setdefault(len(c.coords), []).append(c)
    errors: list[str | None] = [None] * len(items)
    hits: list[list[SpectrumBlock]] = [[] for _ in items]
    # per item: the star-mult tensor, the irrep, and mult[(u, g)] at u = u(r(g))
    operands = [(bundle.star_mult_tensor(g), irreps[b.key], bundle.mult[(G.unit[G.rng[g]], g)])
                for g, b in items]
    for part, (T, R, M) in la.stacks(operands, lambda s: max(math.prod(s[0]),
                                                               (s[0][-1] * s[1][-1]) ** 2)):
        stack = induced_fibres(bundle, [items[p][0] for p in part], T, R, tols)
        (t, _, d, _), m, du = T.shape, R.shape[-1], M.shape[2]
        proj = (stack.vecs * stack.keep[:, None, :]) @ stack.vecs.conj().swapaxes(1, 2)
        w = np.einsum("tkij,tjvkv->ti", M, proj.reshape(t, d, m, d, m))
        cands = candidates.get(du, [])
        coords = np.array([c.coords for c in cands]).reshape(len(cands), du)
        ranges = np.array([at[G.rng[items[p][0]]] for p in part])
        hit = (np.abs(w @ coords.T) > 1e-6) & (np.array([at[c.obj] for c in cands]) == ranges[:, None])
        for p, error, row in zip(part, stack.errors, hit.tolist()):
            errors[p], hits[p] = error, [c for c, h in zip(cands, row) if h]
    out = []
    for (g, _), error, found in zip(items, errors, hits):
        if error is not None:
            raise ValueError(error)
        if len(found) > 1:
            raise ValueError(f"dual action at {g} hit two blocks of {G.rng[g]}")
        out.append(found[0] if found else None)
    return out


def left_matrix(bundle: FellBundle, u: str, g: str, coords: Array) -> Array:
    """Matrix on fibre coordinates of left multiplication by a unit element."""
    return np.einsum("kij,i->kj", bundle.mult[(u, g)], coords)


@dataclass
class DualGroupoid:
    groupoid: FiniteGroupoid
    node_of_block: Mapping[tuple[str, int], str]
    arrow_data: Mapping[str, tuple[str, tuple[str, int], tuple[str, int]]]
    # arrow id -> (base arrow, source block key, target block key)


def dual_groupoid(bundle: FellBundle, tols: Tolerances = DEFAULT) -> DualGroupoid:
    """The groupoid of the partial dual action on spectrum blocks, built once
    per bundle and tolerances (``bundle.memo``)."""
    return bundle.memo(("dual", tols), lambda: _dual_groupoid(bundle, tols))


def _dual_groupoid(bundle: FellBundle, tols: Tolerances) -> DualGroupoid:
    G = bundle.groupoid
    spec = fiber_spectrum(bundle, tols)
    node = {b.key: f"{b.obj}:{b.index}" for b in spec.blocks()}
    objects = [node[b.key] for b in spec.blocks()]

    def arrow_name(g: str, key: tuple[str, int]) -> str:
        return f"{g}|{key[0]}:{key[1]}"

    items = [(g, b) for g in G.arrows for b in spec.by_object[G.src[g]]]
    arrows, src, rng, data = [], {}, {}, {}
    for (g, b), img in zip(items, dual_images(bundle, spec, items, tols)):
        if img is None:
            continue
        a = arrow_name(g, b.key)
        arrows.append(a)
        src[a], rng[a] = node[b.key], node[img.key]
        data[a] = (g, b.key, img.key)
    unit = {node[b.key]: arrow_name(G.unit[b.obj], b.key) for b in spec.blocks()}
    inv_map = {a: arrow_name(G.inv[g], tkey) for a, (g, _, tkey) in data.items()}
    # a1 a2 is defined where a1 starts at the block where a2 ends
    ending: dict[str, list[str]] = {}
    for a in arrows:
        ending.setdefault(rng[a], []).append(a)
    comp = {(a1, a2): arrow_name(G.comp[(data[a1][0], data[a2][0])], data[a2][1])
            for a1 in arrows for a2 in ending.get(src[a1], ())}
    H = FiniteGroupoid.from_data(objects, arrows, src, rng, unit, inv_map, comp)
    return DualGroupoid(H, node, data)


def quasi_orbits(bundle: FellBundle, tols: Tolerances = DEFAULT) -> list[list[tuple[str, int]]]:
    """Orbit partition of the spectrum; quasi-orbits = orbits (discrete)."""
    dual = dual_groupoid(bundle, tols)
    parent = {k: k for k in dual.node_of_block}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, (g, skey, tkey) in dual.arrow_data.items():
        ra, rb = find(skey), find(tkey)
        if ra != rb:
            parent[rb] = ra
    orbits: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for k in dual.node_of_block:
        orbits.setdefault(find(k), []).append(k)
    return [sorted(v) for v in sorted(orbits.values())]


def invariant_subsets(bundle: FellBundle, tols: Tolerances = DEFAULT,
                      cap: int = 1 << 20) -> list[frozenset[tuple[str, int]]]:
    """All dual-invariant subsets of spectrum blocks: unions of orbits."""
    orbits = quasi_orbits(bundle, tols)
    if 2 ** len(orbits) > cap:
        raise ValueError("too many orbits to enumerate invariant subsets")
    out = []
    for r in range(len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), r):
            out.append(frozenset(k for i in combo for k in orbits[i]))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def family_from_subset(bundle: FellBundle, spec: FiberSpectrum,
                       subset: Collection[tuple[str, int]],
                       tols: Tolerances = DEFAULT) -> InvariantFamily:
    """F_x = the sum of p . A_{u(x)} over the blocks at x whose keys are in
    ``subset``."""
    return InvariantFamily(bundle, {
        x: support_frame(bundle, x, [b for b in spec.by_object[x] if b.key in subset], tols)
        for x in bundle.groupoid.objects})


def support_frame(bundle: FellBundle, x: str, blocks: list[SpectrumBlock],
                  tols: Tolerances = DEFAULT) -> Array:
    """Orthonormal rows spanning the sum of p . A_{u(x)} over ``blocks``, blocks
    of the unit fibre at x, from their supports stacked in the order given."""
    rows = [b.support for b in blocks]
    return la.orth_rows(np.vstack(rows), tols.rank_threshold) if rows else \
        np.zeros((0, bundle.dims[bundle.groupoid.unit[x]]), dtype=np.complex128)


def ideal_bijection_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Invariant spectrum subsets <-> Fell ideals is a lattice isomorphism,
    cross-checked against independent exhaustive enumeration."""
    rep = ValidationReport("spectrum/ideal bijection")
    spec = fiber_spectrum(bundle, tols)
    subsets = invariant_subsets(bundle, tols)
    ideals = []
    for s in subsets:
        fam = family_from_subset(bundle, spec, s, tols)
        r = validate_invariant_family(fam, tols)
        rep.require(r.ok, "subset family invariant", f"subset {sorted(s)}")
        ideals.append(ideal_from_invariant_family(fam, tols))
    enumerated = enumerate_fell_ideals(bundle, tols)
    rep.require(len(enumerated) == len(subsets),
                "counts agree with exhaustive enumeration", "lattice",
                detail=f"{len(enumerated)} enumerated vs {len(subsets)} subsets")
    matched = 0
    for I in ideals:
        for J in enumerated:
            if all(la.frame_eq(I.frames[g], J.frames[g], 1e-7)
                   for g in bundle.groupoid.arrows):
                matched += 1
                break
    rep.require(matched == len(ideals), "bijection onto enumerated ideals", "lattice",
                detail=f"matched {matched} of {len(ideals)}")
    for i, si in enumerate(subsets):
        for j, sj in enumerate(subsets):
            if si <= sj:
                contained = all(la.frame_leq(ideals[i].frames[g], ideals[j].frames[g], 1e-7)
                                for g in bundle.groupoid.arrows)
                rep.require(contained, "order preserved", f"{sorted(si)} <= {sorted(sj)}")
    rep.note(f"{len(quasi_orbits(bundle, tols))} quasi-orbit(s); finite spectra are "
             "discrete, so quasi-orbits coincide with orbits")
    return rep


# -- induction / restriction against the envelope ---------------------------------

@dataclass
class GaloisData:
    bundle: FellBundle
    images: Array                  # the envelope's Lambda(delta) stack
    units: Array                   # its rows at the unit-fibre deltas: phi of B's basis
    env_blocks: list[SimpleBlock]

    @property
    def coeff_total(self) -> int:
        return self.units.shape[0]


def galois_data(bundle: FellBundle, tols: Tolerances = DEFAULT) -> GaloisData:
    env = envelope_algebra(bundle, tols)
    G = bundle.groupoid
    offsets = bundle.offsets()
    rows = [offsets[G.unit[x]] + i for x in G.objects for i in range(bundle.dims[G.unit[x]])]
    return GaloisData(bundle, env.images, env.images[rows], env.blocks)


def coefficient_ideals(data: GaloisData, tols: Tolerances = DEFAULT) -> list[Array]:
    """All ideals of the coefficient algebra B = (+) A_x: block-supported
    coordinate frames."""
    blocks = fiber_spectrum(data.bundle, tols).blocks()
    return [_coefficient_frame(data, [blocks[i] for i in combo], tols)
            for r in range(len(blocks) + 1)
            for combo in itertools.combinations(range(len(blocks)), r)]


def _coefficient_frame(data: GaloisData, blocks: list[SpectrumBlock],
                       tols: Tolerances) -> Array:
    """Orthonormal frame of the sum of the blocks' supports, embedded in the
    coordinates of B = (+) A_x."""
    G = data.bundle.groupoid
    starts = dict(zip(G.objects, itertools.accumulate(
        (data.bundle.dims[G.unit[x]] for x in G.objects), initial=0)))
    rows = np.zeros((sum(b.support.shape[0] for b in blocks), data.coeff_total),
                    dtype=np.complex128)
    pos = 0
    for b in blocks:
        k, d = b.support.shape
        start = starts[b.obj]
        rows[pos:pos + k, start:start + d] = b.support
        pos += k
    return la.orth_rows(rows, tols.rank_threshold)


def envelope_ideals(data: GaloisData, tols: Tolerances = DEFAULT) -> list[Array]:
    """All ideals of the envelope: block-supported frames of flattened matrices."""
    out = []
    nblocks = len(data.env_blocks)
    for r in range(nblocks + 1):
        for combo in itertools.combinations(range(nblocks), r):
            vecs = []
            for i in combo:
                p = data.env_blocks[i].projection
                for m in data.images:
                    vecs.append((p @ m).reshape(-1))
            side2 = data.images.shape[-1] ** 2
            out.append(la.orth_rows(np.array(vecs) if vecs else np.zeros((0, side2)),
                                    tols.rank_threshold))
    return out


def phi_of(data: GaloisData, coeff: Array) -> Array:
    return np.tensordot(coeff, data.units, axes=1)


def induce_ideal(data: GaloisData, family_frame: Array,
                 tols: Tolerances = DEFAULT) -> Array:
    """i(I): the two-sided ideal of the envelope generated by phi(I)."""
    side2 = data.images.shape[-1] ** 2
    vecs = []
    for row in family_frame:
        mid = phi_of(data, row)
        for a in data.images:
            for b in data.images:
                vecs.append((a @ mid @ b).reshape(-1))
    return la.orth_rows(np.array(vecs) if vecs else np.zeros((0, side2)),
                        tols.rank_threshold)


def restrict_ideal(data: GaloisData, env_ideal_frame: Array,
                   tols: Tolerances = DEFAULT) -> Array:
    """r(J) = phi^{-1}(J), since the envelope is unital and phi lands in it."""
    rows = []
    for i in range(data.coeff_total):
        v = np.zeros(data.coeff_total, dtype=np.complex128)
        v[i] = 1.0
        m = phi_of(data, v).reshape(-1)
        rows.append(m - la.frame_project(env_ideal_frame, m))
    system = np.stack(rows).T  # columns indexed by coefficient coordinates
    return la.null_space_rows(system, tols.rank_threshold)


def galois_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """I <= r(J) iff i(I) <= J on all enumerated ideal pairs, plus the
    retraction identities and the characterisation of restricted/induced
    ideals."""
    rep = ValidationReport("galois connection")
    data = galois_data(bundle, tols)
    b_ideals = coefficient_ideals(data, tols)
    e_ideals = envelope_ideals(data, tols)

    for bi, I in enumerate(b_ideals):
        iI = induce_ideal(data, I, tols)
        riI = restrict_ideal(data, iI, tols)
        iriI = induce_ideal(data, riI, tols)
        rep.require(la.frame_eq(iriI, iI, 1e-7), "i r i = i", f"B-ideal {bi}")
        for ei_, J in enumerate(e_ideals):
            rJ = restrict_ideal(data, J, tols)
            left = la.frame_leq(I, rJ, 1e-7)
            right = la.frame_leq(iI, J, 1e-7)
            rep.require(left == right, "I <= r(J) iff i(I) <= J",
                        f"(B-ideal {bi}, env-ideal {ei_})")
    for ei_, J in enumerate(e_ideals):
        rJ = restrict_ideal(data, J, tols)
        irJ = induce_ideal(data, rJ, tols)
        rirJ = restrict_ideal(data, irJ, tols)
        rep.require(la.frame_eq(rirJ, rJ, 1e-7), "r i r = r", f"env-ideal {ei_}")

    # restricted ideals are exactly the invariant families
    blocks = fiber_spectrum(bundle, tols).blocks()
    invariant = [_coefficient_frame(data, [b for b in blocks if b.key in s], tols)
                 for s in invariant_subsets(bundle, tols)]
    restricted = []
    for J in e_ideals:
        rJ = restrict_ideal(data, J, tols)
        if not any(la.frame_eq(rJ, seen, 1e-7) for seen in restricted):
            restricted.append(rJ)
    rep.require(len(restricted) == len(invariant),
                "restricted ideals are exactly the invariant ones", "counts",
                detail=f"{len(restricted)} restricted vs {len(invariant)} invariant")
    for rJ in restricted:
        rep.require(any(la.frame_eq(rJ, inv, 1e-7) for inv in invariant),
                    "restricted ideal is invariant", "families")

    # induced ideals are exactly the section algebras of Fell ideals
    fell = enumerate_fell_ideals(bundle, tols)
    env = envelope_algebra(bundle, tols)
    fell_frames = []
    for I in fell:
        sub_vecs = []
        for g in bundle.groupoid.arrows:
            for row in I.frames[g]:
                sub_vecs.append(env.lambda_of(Section(bundle, {g: row})).reshape(-1))
        fell_frames.append(la.orth_rows(np.array(sub_vecs) if sub_vecs
                                        else np.zeros((0, data.images.shape[-1] ** 2)),
                                        tols.rank_threshold))
    induced = []
    for I in b_ideals:
        iI = induce_ideal(data, I, tols)
        if not any(la.frame_eq(iI, seen, 1e-7) for seen in induced):
            induced.append(iI)
    rep.require(len(induced) == len(fell_frames),
                "induced ideals are exactly C* of Fell ideals", "counts",
                detail=f"{len(induced)} induced vs {len(fell_frames)} Fell ideals")
    for iI in induced:
        rep.require(any(la.frame_eq(iI, ff, 1e-7) for ff in fell_frames),
                    "induced ideal comes from a Fell ideal", "frames")
    return rep
