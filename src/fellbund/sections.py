"""The convolution *-algebra of sections.

With counting Haar system, a section is one fibre coefficient vector per
arrow (absent arrow = zero fibre element) and

    (xi * eta)(g) = sum over h in G^{r(g)} of xi(h) . eta(h^-1 g),
    xi*(g)        = xi(g^-1)^*,
    |xi|_I        = max( max_x sum_{g in G^x} |xi(g)|,
                         max_x sum_{g in G_x} |xi(g)| ).

A section holds one read-only packed coefficient vector: the fibres in
declared arrow order, each at ``bundle.offsets()[g]``.  Every operation
works on that vector, with index tables built once per bundle and kept in
``bundle.memo``: convolution is one ``ConvolutionPlan.convolve``, sums and
scalar multiples are one vector operation, the involution is one stacked
``matmul`` per group (d_{g^-1}, d_g) of the bundle's ``inv`` store (its
stack read in place), a random section is one normal
draw and one gather, and the I-norm feeds each ``norm_stacks`` group of
fibres to the fibre-norm core at once.  ``entries``, the nonzero fibres in
declared order, is derived from the vector on first use.

Sections are value types; every operation returns a fresh section, and
``pack()``, ``at(g)`` and ``entries`` are read-only views of the vector.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _linalg as la
from ._kernels import _spans
from .bundle import BundleHom, FellBundle
from .config import DEFAULT, Tolerances

Array = np.ndarray


class Section:
    __slots__ = ("bundle", "_packed", "_entries")

    def __init__(self, bundle: FellBundle, entries: Mapping[str, Array] = MappingProxyType({})):
        packed = np.zeros(bundle.total_dim, dtype=np.complex128)
        where = _fibres(bundle)
        for g, v in entries.items():
            v = la.as_complex(v)
            if v.shape != (bundle.dims[g],):
                raise ValueError(f"entry at {g} has shape {v.shape}, "
                                 f"fibre dimension is {bundle.dims[g]}")
            packed[where[g]] = v
        self._wrap(bundle, packed)

    @classmethod
    def _of(cls, bundle: FellBundle, packed: Array) -> "Section":
        """The section whose packed vector is ``packed``, a complex vector
        that the caller has just built and hands over (it becomes read-only)."""
        self = cls.__new__(cls)
        self._wrap(bundle, packed)
        return self

    def _wrap(self, bundle: FellBundle, packed: Array) -> None:
        self.bundle, self._packed, self._entries = bundle, la.readonly(packed), None

    @property
    def entries(self) -> Mapping[str, Array]:
        """The nonzero fibres in declared arrow order (read-only views)."""
        if self._entries is None:
            packed = self._packed
            self._entries = MappingProxyType(
                {g: v for g, s in _fibres(self.bundle).items() if (v := packed[s]).any()})
        return self._entries

    def at(self, g: str) -> Array:
        return self._packed[_fibres(self.bundle)[g]]

    def pack(self) -> Array:
        return self._packed

    @staticmethod
    def unpack(bundle: FellBundle, packed: Array) -> "Section":
        packed = np.array(packed, dtype=np.complex128)
        if packed.shape != (bundle.total_dim,):
            raise ValueError(f"packed vector has shape {packed.shape}, "
                             f"total dimension is {bundle.total_dim}")
        return Section._of(bundle, packed)

    def __add__(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        return Section._of(self.bundle, self._packed + other._packed)

    def __sub__(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        return Section._of(self.bundle, self._packed - other._packed)

    def __rmul__(self, scalar: complex) -> "Section":
        return Section._of(self.bundle, scalar * self._packed)

    def coefficient_norm(self) -> float:
        return float(np.linalg.norm(self._packed))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.coefficient_norm() <= tol


def _same_bundle(xi: Section, eta: Section) -> None:
    if xi.bundle is not eta.bundle:
        raise ValueError("sections live over different bundles")


def _fibres(bundle: FellBundle) -> dict[str, slice]:
    """Per arrow in declared order, its slice of the packed vector."""
    return bundle.memo("fibre_slices", lambda: {
        g: slice(off, off + bundle.dims[g]) for g, off in bundle.offsets().items()})


def delta_section(bundle: FellBundle, g: str, coords: Array) -> Section:
    return Section(bundle, {g: la.as_complex(coords)})


def basis_sections(bundle: FellBundle) -> list[tuple[str, int, Section]]:
    """All delta sections e_i^g in declared order, the order of the packed vector."""
    out = []
    for g in bundle.groupoid.arrows:
        for i in range(bundle.dims[g]):
            c = np.zeros(bundle.total_dim, dtype=np.complex128)
            c[len(out)] = 1.0
            out.append((g, i, Section._of(bundle, c)))
    return out


def convolve(xi: Section, eta: Section) -> Section:
    _same_bundle(xi, eta)
    return Section._of(xi.bundle, xi.bundle.conv_plan().convolve(xi._packed, eta._packed))


def _involution_groups(bundle: FellBundle) -> list[tuple[Array, Array, Array]]:
    """Per group of the ``inv`` store whose two fibre dimensions (d_{g^-1},
    d_g) are nonzero: its stack (P, d_{g^-1}, d_g), the positions of A_g
    (P, d_g) and of A_{g^-1} (P, d_{g^-1}) in the packed vector."""
    def build() -> list:
        inverse = bundle.groupoid.tables.inv
        starts = np.fromiter(bundle.offsets().values(), dtype=np.intp)
        return [(J, _spans(starts[at], J.shape[2]), _spans(starts[inverse[at]], J.shape[1]))
                for at, J in bundle.inv_stacks.groups() if J.shape[1] and J.shape[2]]
    return bundle.memo("involution_groups", build)


def involute(xi: Section) -> Section:
    """xi*(g^-1) = inv[g] conj(xi(g)): one stacked product per shape group;
    ``inv`` is a bijection of the arrows, so each fibre is written once."""
    x = xi._packed
    out = np.zeros(len(x), dtype=np.complex128)
    for J, src, dst in _involution_groups(xi.bundle):
        out[dst] = np.matmul(J, np.conj(x[src])[..., None])[..., 0]
    return Section._of(xi.bundle, out)


def _i_norm_tables(bundle: FellBundle) -> tuple[list[tuple[Array, Array]], Array, Array]:
    """Per ``norm_stacks`` group, the positions of its fibres in the packed
    vector (A, d) and of its arrows in declared order (A,); per arrow, the
    index of its range and of its source object."""
    def build() -> tuple:
        G, offsets = bundle.groupoid, bundle.offsets()
        groups = [(_spans([offsets[g] for g in arrows], tensors.shape[-1]),
                   np.array([G.arrow_index[g] for g in arrows], dtype=np.intp))
                  for arrows, tensors, _ in bundle.norm_stacks()]
        return groups, G.tables.rng, G.tables.src
    return bundle.memo("i_norm_tables", build)


def i_norm(xi: Section) -> float:
    """The I-norm: the fibre norms of every ``norm_stacks`` group at once
    (``FellBundle._group_norms``), summed over each range and source fibre
    in declared arrow order."""
    bundle = xi.bundle
    groups, rng, src = _i_norm_tables(bundle)
    norms = np.zeros(len(rng))
    for k, (where, place) in enumerate(groups):
        bundle._group_norms(k, xi._packed[where], None, norms, None, place)
    objects = len(bundle.groupoid.objects)
    return float(max(np.bincount(rng, norms, objects).max(initial=0.0),
                     np.bincount(src, norms, objects).max(initial=0.0)))


def unit_section(bundle: FellBundle) -> Section:
    """The exact unit: the unit of A_{u(x)} at every unit arrow."""
    G = bundle.groupoid
    return Section(bundle, {G.unit[x]: bundle.unit_algebra_unit(x) for x in G.objects})


def _normal_order(bundle: FellBundle) -> Array:
    """The gather that takes one draw of 2 * total_dim normals, arrow by arrow
    d real parts then d imaginary parts, to the packed vector viewed as floats."""
    def build() -> Array:
        d = np.array([bundle.dims[g] for g in bundle.groupoid.arrows], dtype=np.intp)
        # coefficient p of the fibre at offset o draws its real part at o + p
        real = np.repeat(np.cumsum(d) - d, d) + np.arange(bundle.total_dim)
        return np.stack([real, real + np.repeat(d, d)], axis=1).ravel()
    return bundle.memo("normal_order", build)


def random_section(bundle: FellBundle, rng: np.random.Generator,
                   scale: float = 1.0) -> Section:
    """Standard complex normal coefficients times ``scale``, drawn per arrow
    in declared order: d real parts, then d imaginary parts."""
    z = rng.standard_normal(2 * bundle.total_dim)
    return Section._of(bundle, scale * z[_normal_order(bundle)].view(np.complex128))


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
