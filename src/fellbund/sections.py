"""The convolution *-algebra of sections.

With counting Haar system, a section is one fibre coefficient vector per
arrow (absent arrow = zero fibre element) and

    (xi * eta)(g) = sum over h in G^{r(g)} of xi(h) . eta(h^-1 g),
    xi*(g)        = xi(g^-1)^*,
    |xi|_I        = max( max_x sum_{g in G^x} |xi(g)|,
                         max_x sum_{g in G_x} |xi(g)| ).

Sections are value types; every operation returns a fresh section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _linalg as la
from .bundle import BundleHom, FellBundle
from .config import DEFAULT, Tolerances

Array = np.ndarray


@dataclass(frozen=True)
class Section:
    bundle: FellBundle
    entries: Mapping[str, Array] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for g, v in self.entries.items():
            v = la.as_complex(v)
            if v.shape != (self.bundle.dims[g],):
                raise ValueError(f"entry at {g} has shape {v.shape}, "
                                 f"fibre dimension is {self.bundle.dims[g]}")
            if np.any(v):
                clean[g] = v
        object.__setattr__(self, "entries", clean)

    def at(self, g: str) -> Array:
        if g in self.entries:
            return self.entries[g]
        return np.zeros(self.bundle.dims[g], dtype=np.complex128)

    def pack(self) -> Array:
        out = np.zeros(self.bundle.total_dim, dtype=np.complex128)
        for g, off in self.bundle.offsets().items():
            if g in self.entries:
                out[off:off + self.bundle.dims[g]] = self.entries[g]
        return out

    @staticmethod
    def unpack(bundle: FellBundle, packed: Array) -> "Section":
        entries = {}
        for g, off in bundle.offsets().items():
            d = bundle.dims[g]
            if d and np.any(packed[off:off + d]):
                entries[g] = packed[off:off + d].copy()
        return Section(bundle, entries)

    def __add__(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        keys = set(self.entries) | set(other.entries)
        return Section(self.bundle, {g: self.at(g) + other.at(g) for g in keys})

    def __sub__(self, other: "Section") -> "Section":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Section":
        return Section(self.bundle, {g: scalar * v for g, v in self.entries.items()})

    def coefficient_norm(self) -> float:
        return float(np.linalg.norm(self.pack()))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.coefficient_norm() <= tol


def _same_bundle(xi: Section, eta: Section) -> None:
    if xi.bundle is not eta.bundle:
        raise ValueError("sections live over different bundles")


def delta_section(bundle: FellBundle, g: str, coords: Array) -> Section:
    return Section(bundle, {g: la.as_complex(coords)})


def basis_sections(bundle: FellBundle) -> list[tuple[str, int, Section]]:
    """All delta sections e_i^g in declared order."""
    out = []
    for g in bundle.groupoid.arrows:
        for i in range(bundle.dims[g]):
            c = np.zeros(bundle.dims[g], dtype=np.complex128)
            c[i] = 1.0
            out.append((g, i, Section(bundle, {g: c})))
    return out


def convolve(xi: Section, eta: Section) -> Section:
    _same_bundle(xi, eta)
    plan = xi.bundle.conv_plan()
    return Section.unpack(xi.bundle, plan.convolve(xi.pack(), eta.pack()))


def involute(xi: Section) -> Section:
    G = xi.bundle.groupoid
    entries = {}
    for g, v in xi.entries.items():
        gi = G.inv[g]
        entries[gi] = entries.get(gi, 0) + xi.bundle.star_coords(g, v)
    return Section(xi.bundle, entries)


def i_norm(xi: Section) -> float:
    """The I-norm, from the fibre norms of all entries at once (one
    ``norm_rows`` request per entry) summed over each range and source fibre."""
    G = xi.bundle.groupoid
    norms = dict.fromkeys(G.arrows, 0.0)
    norms.update(zip(xi.entries, xi.bundle.norm_rows(
        [(g, v[None]) for g, v in xi.entries.items()])[0].tolist()))
    return max((sum(map(norms.__getitem__, fibre(x)))
                for fibre in (G.range_fiber, G.source_fiber) for x in G.objects), default=0.0)


def unit_section(bundle: FellBundle) -> Section:
    """The exact unit: the unit of A_{u(x)} at every unit arrow."""
    G = bundle.groupoid
    return Section(bundle, {G.unit[x]: bundle.unit_algebra_unit(x) for x in G.objects})


def random_section(bundle: FellBundle, rng: np.random.Generator,
                   scale: float = 1.0) -> Section:
    entries = {}
    for g in bundle.groupoid.arrows:
        d = bundle.dims[g]
        if d:
            entries[g] = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return Section(bundle, entries)


def induced_hom(hom: BundleHom):
    """Pointwise application of a bundle hom; a *-homomorphism for (∗, *)."""
    def apply(xi: Section) -> Section:
        if xi.bundle is not hom.source:
            raise ValueError("section does not live over the hom's source bundle")
        return Section(hom.target, {g: hom.apply(g, v) for g, v in xi.entries.items()})
    return apply


def module_action(bundle: FellBundle, coeffs: Mapping[str, Array], xi: Section) -> Section:
    """(b † f)(g) = b(r(g)) . f(g), for b given per object in unit-fibre coords."""
    G = bundle.groupoid
    entries = {}
    for g, v in xi.entries.items():
        x = G.rng[g]
        u = G.unit[x]
        if x in coeffs:
            entries[g] = bundle.mult_coords(u, g, la.as_complex(coeffs[x]), v)
    return Section(bundle, entries)


def factor(f: Section, tols: Tolerances = DEFAULT) -> tuple[dict[str, Array], Section]:
    """Pointwise polar-type factorisation f = f1† . f2.

    Returns (f1, f2) where f1 assigns to each arrow g an element of the range
    ideal span(A_g A_g*) inside the unit fibre at r(g) (as fibre coordinates
    of A_{u(r(g))}), f2 is a section, f(g) = f1(g)* . f2(g) under the module
    action, and |f(g)| = |f1(g)|^2 = |f2(g)|^2.  Computed by exact spectral
    calculus: f1(g) = (f(g) f(g)*)^{1/4} and f2(g) the pseudo-inverse limit.
    """
    bundle = f.bundle
    G = bundle.groupoid
    f1: dict[str, Array] = {}
    f2_entries: dict[str, Array] = {}
    for g, v in f.entries.items():
        x = G.rng[g]
        u = G.unit[x]
        gi = G.inv[g]
        s_coords = bundle.mult_coords(g, gi, v, bundle.star_coords(g, v))  # f f*
        smat = bundle.unit_matrix(x, s_coords)
        quarter = la.psd_power(smat, 0.25, tols.rank_threshold)
        inv_quarter = la.psd_power(smat, -0.25, tols.rank_threshold)
        q_coords, res_q = bundle.unit_coords(x, quarter)
        iq_coords, res_iq = bundle.unit_coords(x, inv_quarter)
        scale = max(1.0, float(np.linalg.norm(quarter)))
        if max(res_q, res_iq) > 1e2 * tols.tolerance * scale:
            raise ValueError(f"functional calculus left the unit fibre at {x} "
                             f"(residual {max(res_q, res_iq):.3e})")
        f1[g] = q_coords
        f2_entries[g] = bundle.mult_coords(u, g, iq_coords, v)
    return f1, Section(bundle, f2_entries)
