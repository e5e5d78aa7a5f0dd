"""Fell-bundle representations: S_g families, integration, disintegration.

A representation assigns a Hilbert dimension d_x to every object and a
linear map S_g : A_g -> Mat(d_{r(g)} x d_{s(g)}) to every arrow, with

    S_g(a) S_h(b) = S_{gh}(a.b),   S_g(a)* = S_{g^-1}(a*),

and the unit-fibre representations nondegenerate.  Integration assembles the
block matrix L(f) with block (x,y) = sum of S_g(f(g)) over arrows x <- y;
disintegration recovers the dimensions from the central projections of the
unit-supported sections and compresses L on delta sections.  Counting
measures make quasi-invariance automatic; nondegeneracy is normalised to
L(unit section) = identity by compressing to the essential subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, ei
from .config import DEFAULT, Tolerances
from .envelope import _cached_regular, envelope_algebra, irreducible_envelope_blocks
from .report import ValidationReport
from .sections import Section, basis_sections, unit_section

Array = np.ndarray


@dataclass
class FellRep:
    bundle: FellBundle
    dims: Mapping[str, int]
    maps: Mapping[str, Array]  # per arrow: (d_{r(g)}, d_{s(g)}, d_g)

    def apply(self, g: str, coords: Array) -> Array:
        return np.einsum("abk,k->ab", la.as_complex(self.maps[g]), la.as_complex(coords))

    def total_dim(self) -> int:
        return sum(self.dims[x] for x in self.bundle.groupoid.objects)

    def offsets(self) -> dict[str, int]:
        out, pos = {}, 0
        for x in self.bundle.groupoid.objects:
            out[x] = pos
            pos += self.dims[x]
        return out


def validate_rep(R: FellRep, tols: Tolerances = DEFAULT) -> ValidationReport:
    bundle = R.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("fell-bundle representation")
    for g in G.arrows:
        m = la.as_complex(R.maps[g])
        want = (R.dims[G.rng[g]], R.dims[G.src[g]], bundle.dims[g])
        if m.shape != want:
            raise ValueError(f"map at {g} has shape {m.shape}, want {want}")
    for g in G.arrows:
        gi = G.inv[g]
        for i in range(bundle.dims[g]):
            lhs = R.apply(g, ei(bundle.dims[g], i)).conj().T
            rhs = R.apply(gi, bundle.inv[g][:, i])
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "involution compatibility S_g(a)* = S_{g^-1}(a*)",
                               f"({g},{i})")
    for g, h in ((g, h) for g in G.arrows for h in G.arrows
                 if G.src[g] == G.rng[h]):
        gh = G.comp[(g, h)]
        for i in range(bundle.dims[g]):
            for j in range(bundle.dims[h]):
                lhs = R.apply(g, ei(bundle.dims[g], i)) @ R.apply(h, ei(bundle.dims[h], j))
                rhs = R.apply(gh, bundle.mult[(g, h)][:, i, j])
                rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                                   tol * max(1.0, float(np.linalg.norm(rhs))),
                                   "multiplicativity S_g S_h = S_{gh}", f"({g},{h})")
    degenerate = True
    for x in G.objects:
        u = G.unit[x]
        d = R.dims[x]
        if d == 0:
            continue
        degenerate = False
        unit_mat = R.apply(u, bundle.unit_algebra_unit(x))
        rep.check_residual(float(np.linalg.norm(unit_mat - np.eye(d))), tol,
                           "unit fibre acts nondegenerately", f"object {x}")
    if degenerate:
        rep.note("degenerate representation: all Hilbert dimensions are zero")
    return rep


def partial_isometry_residuals(R: FellRep, g: str,
                               tols: Tolerances = DEFAULT) -> tuple[float, float]:
    """The induced map a (x) xi -> S_g(a) xi is a partial isometry.

    Returns (isometry residual, support residual): the first compares W*W
    with the Gram form of the source tensor space, the second compares W W*
    with the action of the range-ideal support projection.
    """
    bundle = R.bundle
    G = bundle.groupoid
    x, y = G.src[g], G.rng[g]
    d, ds, dr = bundle.dims[g], R.dims[x], R.dims[y]
    if d == 0 or ds == 0:
        return 0.0, 0.0
    u = G.unit[x]
    W = np.zeros((dr, d * ds), dtype=np.complex128)
    for i in range(d):
        W[:, i * ds:(i + 1) * ds] = R.apply(g, ei(d, i))
    T = bundle.star_mult_tensor(g)
    gram = np.zeros((d * ds, d * ds), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            gram[i * ds:(i + 1) * ds, j * ds:(j + 1) * ds] = R.apply(u, T[:, i, j])
    iso_res = float(np.linalg.norm(W.conj().T @ W - gram))
    # support: projection onto span(S_{u(y)}(A_g A_g*) H_y)
    gi = G.inv[g]
    vecs = []
    for i in range(d):
        for j in range(d):
            c = bundle.mult_coords(g, gi, ei(d, i), bundle.inv[g][:, j])
            vecs.append(R.apply(G.unit[y], c))
    cols = np.hstack(vecs) if vecs else np.zeros((dr, 0))
    frame = la.orth_rows(cols.T, tols.rank_threshold)
    proj = frame.T @ frame.conj()
    ww = W @ la.psd_power(gram, -1.0, tols.rank_threshold) @ W.conj().T
    support_res = float(np.linalg.norm(ww - proj))
    return iso_res, support_res


@dataclass
class IntegratedRep:
    rep: FellRep

    @property
    def dim(self) -> int:
        return self.rep.total_dim()

    def matrix(self, f: Section) -> Array:
        R = self.rep
        G = R.bundle.groupoid
        off = R.offsets()
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for g, coeff in f.entries.items():
            x, y = G.rng[g], G.src[g]
            block = R.apply(g, coeff)
            out[off[x]:off[x] + R.dims[x], off[y]:off[y] + R.dims[y]] += block
        return out


def integrate(R: FellRep) -> IntegratedRep:
    """The *-homomorphism (L(f) xi)(x) = sum over g in G^x of S_g(f(g)) xi(s(g))."""
    return IntegratedRep(R)


def _pivoted_range_frame(P: Array, rtol: float) -> Array:
    """Isometry onto range(P) by greedy column pivoting (stable, earliest
    index wins ties), so coordinate projections yield coordinate frames."""
    work = P.astype(np.complex128).copy()
    n = work.shape[1]
    scale = max(float(np.linalg.norm(work, axis=0).max(initial=0.0)), 1.0)
    cols = []
    for _ in range(n):
        norms = np.linalg.norm(work, axis=0)
        top = float(norms.max(initial=0.0))
        if top <= rtol * scale * 10:
            break
        # earliest column within a tolerance band of the maximum, so exact
        # coordinate projections (up to float noise) give coordinate frames
        j = int(np.nonzero(norms >= top * (1.0 - 1e-8))[0][0])
        v = work[:, j] / norms[j]
        pivot_band = np.nonzero(np.abs(v) >= np.abs(v).max() * (1.0 - 1e-8))[0]
        pivot = int(pivot_band[0])
        v = v * (np.abs(v[pivot]) / v[pivot])
        cols.append(v)
        work -= np.outer(v, v.conj() @ work)
    if not cols:
        return np.zeros((P.shape[0], 0), dtype=np.complex128)
    return np.stack(cols, axis=1)


def disintegrate(bundle: FellBundle, L: Callable[[Section], Array], dim: int,
                 tols: Tolerances = DEFAULT) -> FellRep:
    """Recover the S_g family from a nondegenerate *-homomorphism of sections.

    The central projections L(1_x at unit) decompose the space into the
    H_x; S_g(a) is the compression of L(a delta_g) to the (r(g), s(g))
    corner.  Raises on non-multiplicative, non-involutive or degenerate L.
    """
    G = bundle.groupoid
    tol = max(tols.tolerance, 1e-12)
    e = unit_section(bundle)
    Le = L(e)
    if Le.shape != (dim, dim):
        raise ValueError("L has the wrong dimension")
    if float(np.linalg.norm(Le @ Le - Le)) > 1e-8 * max(1.0, float(np.linalg.norm(Le))) or \
            float(np.linalg.norm(Le - Le.conj().T)) > 1e-8:
        raise ValueError("L(unit section) is not a projection; L is not a *-homomorphism")
    if float(np.linalg.norm(Le)) <= tol:
        raise ValueError("degenerate representation: L(unit section) = 0")
    if float(np.linalg.norm(Le - np.eye(dim))) > 1e-8:
        V0 = _pivoted_range_frame(Le, tols.rank_threshold)
        base = L

        def L(f: Section, _V0=V0, _base=base):  # noqa: E743
            return _V0.conj().T @ _base(f) @ _V0
        dim = V0.shape[1]

    # sanity: multiplicative and involutive on delta sections (images cached)
    deltas = basis_sections(bundle)
    images: dict[str, list[Array]] = {g: [] for g in G.arrows}
    for (g, i, s) in deltas:
        images[g].append(L(s))
    for (g, i, s) in deltas:
        star = sum((c * m for c, m in zip(bundle.inv[g][:, i], images[G.inv[g]])),
                   np.zeros((dim, dim), dtype=np.complex128))
        if float(np.linalg.norm(images[g][i].conj().T - star)) > 1e-7:
            raise ValueError(f"L is not involutive at ({g},{i})")
    for (g, i, s) in deltas:
        for (h, j, t) in deltas:
            prod = images[g][i] @ images[h][j]
            if G.src[g] != G.rng[h]:
                if float(np.linalg.norm(prod)) > 1e-7:
                    raise ValueError(f"L is not multiplicative at ({g},{h})")
                continue
            gh = G.comp[(g, h)]
            conv = sum((c * m for c, m in zip(bundle.mult[(g, h)][:, i, j], images[gh])),
                       np.zeros((dim, dim), dtype=np.complex128))
            if float(np.linalg.norm(prod - conv)) > 1e-7:
                raise ValueError(f"L is not multiplicative at ({g},{h})")

    frames = {}
    dims = {}
    for x in G.objects:
        u = G.unit[x]
        one_x = Section(bundle, {u: bundle.unit_algebra_unit(x)})
        P = L(one_x)
        frames[x] = _pivoted_range_frame(P, tols.rank_threshold)
        dims[x] = frames[x].shape[1]
    total = sum(dims.values())
    if total != dim:
        raise ValueError(f"central projections decompose {total} of {dim} dimensions")
    maps = {}
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        tensor = np.zeros((dims[x], dims[y], bundle.dims[g]), dtype=np.complex128)
        for i in range(bundle.dims[g]):
            tensor[:, :, i] = frames[x].conj().T @ images[g][i] @ frames[y]
        maps[g] = tensor
    R = FellRep(bundle, dims, maps)
    check = validate_rep(R, tols)
    if not check.ok:
        raise ValueError("disintegration produced an invalid representation:\n"
                         + check.summary())
    return R


def regular_fellrep(bundle: FellBundle, x: str, tols: Tolerances = DEFAULT) -> FellRep:
    """The representation whose integrated form is the regular one at x.

    The space over object y collects the Gram quotients of A_g (x) C^{n_x}
    for g in G_x with r(g) = y, in declared arrow order.
    """
    G = bundle.groupoid
    reg = _cached_regular(bundle, tols).at(x)
    members = {y: [g for g in reg.summands if G.rng[g] == y] for y in G.objects}
    dims = {y: sum(reg.quot_dim[g] for g in members[y]) for y in G.objects}
    local = {}
    for y in G.objects:
        pos = 0
        for g in members[y]:
            local[g] = pos
            pos += reg.quot_dim[g]
    maps = {}
    for h in G.arrows:
        yr, ys = G.rng[h], G.src[h]
        tensor = np.zeros((dims[yr], dims[ys], bundle.dims[h]), dtype=np.complex128)
        for g in members[ys]:
            if (h, g) not in reg._blocks:
                continue
            block = reg._blocks[(h, g)]  # (q_out, d_h, q_in)
            out = G.comp[(h, g)]
            r0, c0 = local[out], local[g]
            tensor[r0:r0 + block.shape[0], c0:c0 + block.shape[2], :] = \
                block.transpose(0, 2, 1)
        maps[h] = tensor
    return FellRep(bundle, dims, maps)


def intertwiner_check(R1: FellRep, R2: FellRep, T: Mapping[str, Array],
                      tols: Tolerances = DEFAULT, samples: int = 4) -> ValidationReport:
    """T_{r(g)} S1_g(a) = S2_g(a) T_{s(g)} on fibre bases, then re-checked on
    the integrated forms with seeded random sections."""
    bundle = R1.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("intertwiner")
    for x in G.objects:
        t = la.as_complex(T[x])
        if t.shape != (R2.dims[x], R1.dims[x]):
            raise ValueError(f"intertwiner at {x} has shape {t.shape}")
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        for i in range(bundle.dims[g]):
            lhs = la.as_complex(T[x]) @ R1.apply(g, ei(bundle.dims[g], i))
            rhs = R2.apply(g, ei(bundle.dims[g], i)) @ la.as_complex(T[y])
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs))),
                               "fibre intertwining", f"({g},{i})")
    L1, L2 = integrate(R1), integrate(R2)
    off1, off2 = R1.offsets(), R2.offsets()
    big = np.zeros((R2.total_dim(), R1.total_dim()), dtype=np.complex128)
    for x in G.objects:
        big[off2[x]:off2[x] + R2.dims[x], off1[x]:off1[x] + R1.dims[x]] = \
            la.as_complex(T[x])
    rng = np.random.default_rng(tols.seed)
    from .sections import random_section
    for t in range(samples):
        f = random_section(bundle, rng)
        lhs = big @ L1.matrix(f)
        rhs = L2.matrix(f) @ big
        rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                           1e2 * tol * max(1.0, float(np.linalg.norm(rhs))),
                           "integrated intertwining", f"random section {t}")
    return rep


def random_fellrep(bundle: FellBundle, rng: np.random.Generator,
                   tols: Tolerances = DEFAULT) -> FellRep:
    """Seeded random representation: random multiplicities of the envelope
    blocks conjugated by a Haar unitary, then disintegrated."""
    env = envelope_algebra(bundle, tols)
    blocks = irreducible_envelope_blocks(bundle, tols)
    while True:
        mults = [int(rng.integers(0, 3)) for _ in blocks]
        if any(mults):
            break
    dim = sum(m * b.size for m, b in zip(mults, blocks))
    U = la.random_unitary(dim, rng)

    def L(f: Section) -> Array:
        big = env.lambda_of(f)
        parts = []
        for m, b in zip(mults, blocks):
            if m == 0:
                continue
            small = b.irrep(big)
            parts.extend([small] * m)
        out = np.zeros((dim, dim), dtype=np.complex128)
        pos = 0
        for p in parts:
            out[pos:pos + p.shape[0], pos:pos + p.shape[0]] = p
            pos += p.shape[0]
        return U @ out @ U.conj().T

    return disintegrate(bundle, L, dim, tols)
