"""Bundles over transformation groupoids, repackaged over the base groupoid.

A bundle over G x X (the transformation groupoid of a partial action on a
finite set) induces a bundle over G whose fibre at g is the direct sum of
the fibres over all triples (x, g, y).  With counting Haar systems on both
sides, the identity on total coefficient spaces is a *-isomorphism of the
section algebras, and the two envelopes coincide block for block; this
module builds the repackaged bundle and verifies both statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, validate_fell_bundle
from .config import DEFAULT, Tolerances
from .envelope import cstar_norm, envelope_algebra
from .groupoid import FiniteGroupoid, PartialActionOnSet, composable_pairs
from .report import ValidationReport
from .sections import Section, basis_sections, convolve, involute, random_section

Array = np.ndarray


@dataclass
class AssembledBundle:
    base_bundle: FellBundle                  # over G
    fiber_bundle: FellBundle                 # over G x X
    trafo_groupoid: FiniteGroupoid
    components: Mapping[str, list[tuple[str, int, int]]]
    # per base arrow: [(trafo arrow, offset, dim)] in declared trafo order

    def to_base(self, f: Section) -> Section:
        if f.bundle is not self.fiber_bundle:
            raise ValueError("section does not live over the fibre bundle")
        return Section._of(self.base_bundle, f.pack()[self._base_order()])

    def to_fibers(self, f: Section) -> Section:
        if f.bundle is not self.base_bundle:
            raise ValueError("section does not live over the base bundle")
        return Section._of(self.fiber_bundle, f.pack()[self._fiber_order()])

    def _base_order(self) -> Array:
        """Per coefficient of the base bundle's packed vector, its position in
        the fibre bundle's: the components of each base arrow in order."""
        def build() -> Array:
            offsets = self.fiber_bundle.offsets()
            return np.array([offsets[t] + i for parts in self.components.values()
                             for t, _, d in parts for i in range(d)], dtype=np.intp)
        return self.base_bundle.memo("trafo_base_order", build)

    def _fiber_order(self) -> Array:
        """The inverse permutation of ``_base_order``."""
        return self.base_bundle.memo("trafo_fiber_order",
                                     lambda: np.argsort(self._base_order()))


def assemble_over_base(action: PartialActionOnSet, H: FiniteGroupoid,
                       arrow_dict: Mapping[str, tuple[str, str, str]],
                       B: FellBundle, name: str | None = None) -> AssembledBundle:
    """Repackage a bundle over the transformation groupoid H = G x X."""
    G = action.groupoid
    if B.groupoid.arrows != H.arrows:
        raise ValueError("bundle does not live over the given transformation groupoid")
    components: dict[str, list[tuple[str, int, int]]] = {g: [] for g in G.arrows}
    for t in H.arrows:
        (_, g, _) = arrow_dict[t]
        off = sum(d for (_, _, d) in components[g])
        components[g].append((t, off, B.dims[t]))
    dims = {g: sum(d for (_, _, d) in components[g]) for g in G.arrows}

    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        for (t, toff, td) in components[g]:
            for (u, uoff, ud) in components[h]:
                if H.src[t] != H.rng[u]:
                    continue
                tu = H.comp[(t, u)]
                ooff = next(o for (a, o, _) in components[gh] if a == tu)
                od = B.dims[tu]
                tensor[ooff:ooff + od, toff:toff + td, uoff:uoff + ud] = B.mult[(t, u)]
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        gi = G.inv[g]
        mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
        for (t, toff, td) in components[g]:
            ti = H.inv[t]
            ooff = next(o for (a, o, _) in components[gi] if a == ti)
            mat[ooff:ooff + B.dims[ti], toff:toff + td] = B.inv[t]
        inv[g] = mat
    unit_rep = {}
    for x in G.objects:
        u = G.unit[x]
        parts = components[u]
        sizes = []
        for (t, _, _) in parts:
            y = H.rng[t]
            sizes.append(B.unit_dim(y))
        n = sum(sizes)
        stack = np.zeros((dims[u], n, n), dtype=np.complex128)
        npos = 0
        for (t, toff, td), size in zip(parts, sizes):
            y = H.rng[t]
            stack[toff:toff + td, npos:npos + size, npos:npos + size] = B.unit_rep[y]
            npos += size
        unit_rep[x] = stack
    A = FellBundle(G, dims, mult, inv, unit_rep,
                   name=name or f"{B.name} over base groupoid")
    return AssembledBundle(A, B, H, components)


def trafo_isomorphism_check(assembled: AssembledBundle, tols: Tolerances = DEFAULT,
                            samples: int = 8) -> tuple[ValidationReport, dict]:
    """The coefficient-identity map is a *-isomorphism and the envelopes match."""
    rep = ValidationReport("transformation-groupoid comparison")
    A, B = assembled.base_bundle, assembled.fiber_bundle
    tol = tols.tolerance

    sub = validate_fell_bundle(A, tols)
    for v in sub.violations:
        rep.add(v.check, f"assembled bundle: {v.where}", v.residual, v.detail)

    deltas = basis_sections(B)
    for (t, i, s) in deltas:
        lhs = assembled.to_base(involute(s))
        rhs = involute(assembled.to_base(s))
        rep.check_residual(float(np.linalg.norm((lhs - rhs).pack())), tol,
                           "involution preserved", f"delta ({t},{i})")
    for (t, i, s) in deltas:
        for (u, j, r) in deltas:
            lhs = assembled.to_base(convolve(s, r))
            rhs = convolve(assembled.to_base(s), assembled.to_base(r))
            rep.check_residual(float(np.linalg.norm((lhs - rhs).pack())), tol,
                               "convolution preserved", f"deltas ({t},{i}),({u},{j})")

    rng = np.random.default_rng(tols.seed)
    for k in range(samples):
        f = random_section(B, rng)
        g = random_section(B, rng)
        lhs = assembled.to_base(convolve(f, g))
        rhs = convolve(assembled.to_base(f), assembled.to_base(g))
        scale = max(1.0, float(np.linalg.norm(rhs.pack())))
        rep.check_residual(float(np.linalg.norm((lhs - rhs).pack())), tol * scale,
                           "convolution preserved", f"random pair {k}")
        nb = cstar_norm(B, f, tols)
        na = cstar_norm(A, assembled.to_base(f), tols)
        rep.check_residual(abs(na - nb), tol * max(1.0, nb),
                           "C*-norms agree", f"random section {k}")

    env_a = envelope_algebra(A, tols)
    env_b = envelope_algebra(B, tols)
    summary = {
        "base_blocks": env_a.block_summary(),
        "fiber_blocks": env_b.block_summary(),
        "base_dim": env_a.dim,
        "fiber_dim": env_b.dim,
    }
    rep.require(env_a.dim == env_b.dim, "envelope dimensions agree", "envelopes",
                detail=f"{env_a.dim} vs {env_b.dim}")
    rep.require(env_a.block_summary() == env_b.block_summary(),
                "envelope block structures agree", "envelopes",
                detail=f"{env_a.block_summary()} vs {env_b.block_summary()}")
    return rep, summary
