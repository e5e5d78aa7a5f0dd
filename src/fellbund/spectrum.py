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
reports, not silently assumed).  ``lattice`` holds the orbits, their unions
and the Fell ideals of the search as bitsets of spectrum blocks.

Every ideal of the envelope or of B = (+) A_x is a sum of blocks, so the
Galois connection between them reads off one table: ``incidence`` holds
the rank tr(z_P phi(p_s)) for each envelope block P and spectrum block s,
and ``galois_check`` induces and restricts ideals as bitsets of blocks.
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
from .envelope import block_decomposition, envelope_algebra, induced_fibres, irrep_frames
from .groupoid import FiniteGroupoid
from .ideals import ENUMERATION_CAP, InvariantFamily, enumerate_fell_ideals, fell_ideal_masks
from .report import ValidationReport

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
    items = np.arange(len(found))
    solved = la.stacked([(la.Stacks([la.flatten_stack(bundle.unit_rep[x]).T for x, _ in found]),
                          items), (la.Stacks([b.projection.reshape(-1) for _, b in found]), items)],
                        lambda a, p: la.stacked_lstsq(a, p)[:2])
    for (x, b), (_, res) in zip(found, solved):
        if res > 1e-7 * max(1.0, float(np.linalg.norm(b.projection))):
            raise ValueError(f"central projection at {x} left the unit fibre")
    # columns of the left-multiplication matrix: coordinates of p . e_j
    supports = la.stacked([(la.Stacks([left_matrix(bundle, G.unit[x], G.unit[x], coords).T
                                       for (x, _), (coords, _) in zip(found, solved)]), items)],
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
    tables, every = G.tables, np.arange(len(items))
    arrows = np.array([G.arrow_index[g] for g, _ in items], dtype=np.intp)
    operands = [(la.Stacks([bundle.star_mult_tensor(g) for g, _ in items]), every),
                (la.Stacks([irreps[b.key] for _, b in items]), every),
                (bundle.mult_stacks, tables.pair[tables.unit[tables.rng[arrows]], arrows])]
    for part, (T, R, M) in la.gathered(operands, lambda s: max(math.prod(s[0]),
                                                                 (s[0][-1] * s[1][-1]) ** 2)):
        stack = induced_fibres(bundle, [items[p][0] for p in part], T, R, tols)
        (t, _, d, _), m, du = T.shape, R.shape[-1], M.shape[2]
        proj = (stack.vecs * stack.keep[:, None, :]) @ stack.vecs.conj().swapaxes(1, 2)
        w = np.einsum("tkij,tjvkv->ti", M, proj.reshape(t, d, m, d, m))
        cands = candidates.get(du, [])
        coords = np.array([c.coords for c in cands]).reshape(len(cands), du)
        ranges = tables.rng[arrows[part]]
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


@dataclass(frozen=True)
class IdealLattice:
    """Bitsets of spectrum blocks (bit i: ``keys[i]``); no reference to the bundle."""
    keys: tuple[tuple[str, int], ...]
    orbits: tuple[int, ...]     # in ``quasi_orbits`` order
    invariant: tuple[int, ...]  # unions of orbits: by size, then in combinations order
    fell: tuple[int, ...]       # the ideals of ``enumerate_fell_ideals``, in its order

    def keys_of(self, mask: int) -> list[tuple[str, int]]:
        return [k for i, k in enumerate(self.keys) if mask >> i & 1]


def lattice(bundle: FellBundle, tols: Tolerances = DEFAULT) -> IdealLattice:
    """The invariant sets, unions of the orbits of the dual arrows, and the
    Fell ideals of the search, which never reads the dual groupoid: two
    independent routes to one lattice, built once per bundle and tolerances
    (``bundle.memo``) without the envelope.  Raises ValueError past
    ``ENUMERATION_CAP`` Fell-ideal candidates, which bounds the 2^orbits too."""
    return bundle.memo(("lattice", tols), lambda: _lattice(bundle, tols))


def _lattice(bundle: FellBundle, tols: Tolerances) -> IdealLattice:
    fell = tuple(fell_ideal_masks(bundle, tols))  # first, for its cap
    keys = tuple(b.key for b in fiber_spectrum(bundle, tols).blocks())
    bit = {k: 1 << i for i, k in enumerate(keys)}
    orbit = dict(bit)  # of a block: the targets of the dual arrows from it
    for _, skey, tkey in dual_groupoid(bundle, tols).arrow_data.values():
        orbit[skey] |= bit[tkey]
    orbits = sorted(set(orbit.values()), key=lambda m: [k for k in keys if m & bit[k]])
    invariant = [sum(c) for r in range(len(orbits) + 1) for c in itertools.combinations(orbits, r)]
    return IdealLattice(keys, tuple(orbits), tuple(invariant), fell)


def quasi_orbits(bundle: FellBundle, tols: Tolerances = DEFAULT) -> list[list[tuple[str, int]]]:
    """Orbit partition of the spectrum; quasi-orbits = orbits (discrete)."""
    lat = lattice(bundle, tols)
    return [sorted(lat.keys_of(o)) for o in lat.orbits]


def invariant_subsets(bundle: FellBundle,
                      tols: Tolerances = DEFAULT) -> list[frozenset[tuple[str, int]]]:
    """All dual-invariant subsets of spectrum blocks: unions of orbits."""
    lat = lattice(bundle, tols)
    return sorted((frozenset(lat.keys_of(m)) for m in lat.invariant),
                  key=lambda s: (len(s), sorted(s)))


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
    """Invariant spectrum subsets <-> Fell ideals is a lattice isomorphism:
    the two sides of ``lattice`` are one set of bitsets, and the Fell
    ideals' frames nest at each covering pair U <= U + O (U invariant, O an
    orbit outside it), which generate the order."""
    rep = ValidationReport("spectrum/ideal bijection")
    lat, arrows = lattice(bundle, tols), bundle.groupoid.arrows
    ideal = dict(zip(lat.fell, enumerate_fell_ideals(bundle, tols)))
    for U in lat.invariant:
        rep.require(U in ideal, "subset family invariant", f"subset {sorted(lat.keys_of(U))}")
        for V in (U | O for O in lat.orbits if not O & U and U in ideal and U | O in ideal):
            rep.require(all(la.frame_leq(ideal[U].frames[g], ideal[V].frames[g], 1e-7)
                            for g in arrows), "order preserved",
                        f"{sorted(lat.keys_of(U))} <= {sorted(lat.keys_of(V))}")
    rep.require(len(lat.fell) == len(lat.invariant),
                "counts agree with exhaustive enumeration", "lattice",
                detail=f"{len(lat.fell)} enumerated vs {len(lat.invariant)} subsets")
    rep.note(f"{len(lat.orbits)} quasi-orbit(s); finite spectra are "
             "discrete, so quasi-orbits coincide with orbits")
    return rep


# -- the Galois connection from one incidence table ------------------------------

def incidence(bundle: FellBundle, tols: Tolerances = DEFAULT) -> Array:
    """The table tr(z_P phi(p_s)), rows the envelope blocks P and columns the
    ``fiber_spectrum`` blocks s, from one einsum.  z_P is block P's central
    projection and phi(p_s) = sum_k coords_k Lambda(delta_k), over the unit
    fibre at s's object, the image of block s's projection.  Both are
    projections and z_P is central, so the entry is the rank of z_P phi(p_s)."""
    env, blocks = envelope_algebra(bundle, tols), fiber_spectrum(bundle, tols).blocks()
    offsets, unit = bundle.offsets(), bundle.groupoid.unit
    coeffs = np.zeros((len(blocks), bundle.total_dim), dtype=np.complex128)
    for s, b in enumerate(blocks):
        coeffs[s, offsets[unit[b.obj]]:offsets[unit[b.obj]] + len(b.coords)] = b.coords
    z = np.array([P.projection for P in env.blocks]).reshape(-1, *env.images.shape[1:])
    return np.einsum("pba,sk,kab->ps", z, coeffs, env.images, optimize=True)


def galois_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """The restricted ideals are exactly the invariant ones, and the induced
    ideals exactly the C*-algebras of the Fell ideals.

    An ideal of B = (+) A_x or of the envelope is the bitset of the blocks
    it contains, and the ideal a projection generates is the sum of the
    blocks it meets, so, with r the ``incidence`` table rounded to integers,
    i(S) = {P : r[P, s] > 0 for some s in S} and r(T) = {s : every P with
    r[P, s] > 0 lies in T}.  Read off one table, i and r form a Galois
    connection, so r i r = r and the restricted ideals are the r(i(S)) over
    the 2^S ideals S of B.  A trace farther than 1e-6 from an integer is a
    violation at its (envelope block, spectrum block).  Raises ValueError,
    before the envelope is built, past ``ENUMERATION_CAP`` ideals of B."""
    blocks = fiber_spectrum(bundle, tols).blocks()
    if (sets := 2 ** len(blocks)) > ENUMERATION_CAP:
        raise ValueError(f"{sets} coefficient ideals exceed the cap {ENUMERATION_CAP}")
    traces = incidence(bundle, tols)
    ranks = np.rint(traces.real).astype(np.int64)
    rep = ValidationReport("galois connection")
    off = np.abs(traces - ranks)
    for p, s in zip(*np.nonzero(off > 1e-6)):
        rep.add("incidence trace is an integer",
                f"(env-block {p}, spectrum block {blocks[s].obj}:{blocks[s].index})",
                float(off[p, s]))
    # i on every bitset: i(S) adds the blocks that S's lowest block meets to i of the rest
    meets = [sum(1 << p for p in np.flatnonzero(col > 0).tolist()) for col in ranks.T]
    induce = [0] * sets
    for S in range(1, sets):
        induce[S] = induce[S & (S - 1)] | meets[(S & -S).bit_length() - 1]
    induced = set(induce)
    restricted = {sum(1 << s for s, m in enumerate(meets) if not m & ~T) for T in induced}

    # restricted ideals are exactly the invariant families
    invariant = set(lattice(bundle, tols).invariant)
    rep.require(len(restricted) == len(invariant),
                "restricted ideals are exactly the invariant ones", "counts",
                detail=f"{len(restricted)} restricted vs {len(invariant)} invariant")
    for rT in restricted:
        rep.require(rT in invariant, "restricted ideal is invariant", "families")

    # induced ideals are exactly the section algebras of Fell ideals: C*(I) meets
    # block P where ||z_P Lambda(v)|| > 1e-7 max(1, ||Lambda(v)||) for a row v of
    # I's frames (Frobenius norms, ||z_P M||^2 = tr(z_P M M*))
    env, offsets = envelope_algebra(bundle, tols), bundle.offsets()
    z = np.array([P.projection for P in env.blocks]).reshape(-1, *env.images.shape[1:])
    fell = []
    for I in enumerate_fell_ideals(bundle, tols):
        lam = np.concatenate([np.tensordot(I.frames[g], env.images[offsets[g]:offsets[g] + d], 1)
                              for g, d in bundle.dims.items() if d])
        weight = np.einsum("pab,rba->pr", z, lam @ lam.conj().swapaxes(1, 2)).real
        bound = 1e-7 * np.maximum(1.0, np.linalg.norm(lam, axis=(1, 2)))
        fell.append(sum(1 << p for p in np.flatnonzero((weight > bound ** 2).any(1)).tolist()))
    rep.require(len(induced) == len(fell),
                "induced ideals are exactly C* of Fell ideals", "counts",
                detail=f"{len(induced)} induced vs {len(fell)} Fell ideals")
    for iS in induced:
        rep.require(iS in fell, "induced ideal comes from a Fell ideal", "frames")
    return rep
