"""The frame route of the Galois check, kept as the reference for the
library's incidence table (``fellbund.spectrum.incidence`` and
``galois_check``).

Every ideal is an orthonormal frame.  A coefficient ideal of B = (+) A_x is
the span of its blocks' supports; an envelope ideal is the span of
z_P Λ(δ) over its blocks P and every delta image.  i(I) is the span of the
N² products Λ(δ_a) φ(v) Λ(δ_b) over the rows v of I, cut to a frame by one
SVD, and r(J) = φ⁻¹(J) is the null space of (1 - proj_J) φ.  The check
compares frames with ``la.frame_eq``/``la.frame_leq`` at 1e-7 on every pair
of ideals, so it costs N² products and an SVD per induced ideal and an SVD
per restricted one, for each of the 2^{S+P} pairs.  ``connection_identities``
holds the statements of the connection itself (I <= r(J) iff i(I) <= J,
i r i = i, r i r = r), which the library's table satisfies by construction
and so no longer checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import fellbund._linalg as la
from fellbund.bundle import FellBundle
from fellbund.config import DEFAULT, Tolerances
from fellbund.envelope import SimpleBlock, envelope_algebra
from fellbund.ideals import enumerate_fell_ideals
from fellbund.report import ValidationReport
from fellbund.sections import Section
from fellbund.spectrum import SpectrumBlock, fiber_spectrum, invariant_subsets

Array = np.ndarray


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


def connection_identities(bundle: FellBundle,
                          tols: Tolerances = DEFAULT) -> ValidationReport:
    """I <= r(J) iff i(I) <= J on all pairs of ideals, i r i = i and
    r i r = r, stated on the frames.  The library reads i and r off one
    table, where the three hold by construction; here i is an SVD of
    products and r a null space, so they are statements about the bundle."""
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
    return rep


def galois_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """The connection identities, then the characterisation of restricted
    and induced ideals."""
    rep = connection_identities(bundle, tols)
    data = galois_data(bundle, tols)
    b_ideals = coefficient_ideals(data, tols)
    e_ideals = envelope_ideals(data, tols)

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
