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

Both directions check the same equations on the same data, a stack of
basis images in delta order (``basis_sections``): ``validate_rep`` takes the
S_g(e_i) straight from ``maps``, ``disintegrate`` the L(delta_{g,i}).  One
core, ``_star_hom_residuals``, compares the stack with the involution and
the structure constants in one contraction per stack of equal fibre
shapes, through index tables built once per bundle (``_delta_table``),
whose stacks are transposed views of the bundle's ``mult`` and ``inv``
stores; ``disintegrate`` also checks that the products of non-composable
basis images vanish, by a screen with one stacked QR and exact products
only for the rows it cannot clear.  Witnesses come from the flagged entries, in the
order of the element-at-a-time loops these replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import _linalg as la
from ._kernels import _spans
from .bundle import FellBundle, _exponents, _ldexp
from .config import DEFAULT, Tolerances
from .envelope import (envelope_algebra, induced_gram, irreducible_envelope_blocks,
                       regular_at)
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
    """The *-homomorphism equations on the basis images S_g(e_i) (slices of
    ``maps``), each to ``tol`` times max(1, the norm of the image it is
    compared with), then nondegeneracy of the unit fibres."""
    bundle = R.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("fell-bundle representation")
    X = _basis_images(R)
    table = _delta_table(bundle)
    inv, mult = _star_hom_residuals(bundle, X)
    bound = tol * np.fmax(1.0, _scaled_row_norms(X.reshape(len(X), -1)))
    for n in np.flatnonzero(~(inv <= bound)):
        rep.add("involution compatibility S_g(a)* = S_{g^-1}(a*)",
                "({},{})".format(*table.deltas[n]), float(inv[n]))
    for k in np.flatnonzero(~(mult[0] <= tol * np.fmax(1.0, mult[1]))):
        rep.add("multiplicativity S_g S_h = S_{gh}",
                f"({table.deltas[table.rows[k]][0]},{table.deltas[table.cols[k]][0]})",
                float(mult[0, k]))
    degenerate = True
    for x in G.objects:
        u = G.unit[x]
        d = R.dims[x]
        if d == 0:
            continue
        degenerate = False
        unit_mat = R.apply(u, bundle.unit_algebra_unit(x))
        residual = float(_scaled_row_norms((unit_mat - np.eye(d)).reshape(1, -1))[0])
        rep.check_residual(residual, tol, "unit fibre acts nondegenerately", f"object {x}")
    if degenerate:
        rep.note("degenerate representation: all Hilbert dimensions are zero")
    return rep


def _basis_images(R: FellRep) -> Array:
    """The images S_g(e_i) in delta order, each in the top left corner of an
    (m, m) block of zeros, m the largest Hilbert dimension: the corners
    multiply and take adjoints as the blocks do, so every residual of the
    *-homomorphism equations is the blocks' own.  Raises on a map of the
    wrong shape."""
    bundle = R.bundle
    G = bundle.groupoid
    m = max(R.dims.values(), default=0)
    X = np.zeros((bundle.total_dim, m, m), dtype=np.complex128)
    for g, off in bundle.offsets().items():
        S = la.as_complex(R.maps[g])
        want = (R.dims[G.rng[g]], R.dims[G.src[g]], bundle.dims[g])
        if S.shape != want:
            raise ValueError(f"map at {g} has shape {S.shape}, want {want}")
        X[off:off + want[2], :want[0], :want[1]] = S.transpose(2, 0, 1)
    return X


@dataclass(frozen=True)
class _DeltaTable:
    """Index tables over the basis of the packed sections, the deltas e_i^g
    in ``basis_sections`` order, for checking a stack X of their images.

    The products e_i^g e_j^h of composable basis elements are numbered in
    the order (pair (g, h) of ``composable_pairs``, i, j); ``rows`` and
    ``cols`` give the deltas of each one's factors.  ``involution``: per
    group of the bundle's ``inv`` store with d_g > 0, the deltas of g (t,
    d_g) and of g^-1 (t, d_{g^-1}) and the stack transposed (t, d_g,
    d_{g^-1}).  ``products``: per group of its ``mult`` store with d_g, d_h
    > 0, the deltas of g, h and gh, the stack as the coordinates of the
    products in A_gh (t, d_g d_h, d_gh), a transposed view, and the numbers
    of the products (t, d_g d_h).  ``ranges``: per object z, the deltas with
    r(g) = z, padded with N (an index past the last delta).
    """

    deltas: list[tuple[str, int]]
    src: Array
    rows: Array
    cols: Array
    involution: list[tuple[Array, ...]]
    products: list[tuple[Array, ...]]
    ranges: Array


def _delta_table(bundle: FellBundle) -> _DeltaTable:
    def build() -> _DeltaTable:
        G, T = bundle.groupoid, bundle.groupoid.tables
        dims = np.fromiter(bundle.dims.values(), dtype=np.intp)
        starts = np.cumsum(dims) - dims
        # the number of the first product of each pair with both fibres nonzero
        live = (dims[T.pairs[:, 0]] > 0) & (dims[T.pairs[:, 1]] > 0)
        sizes = dims[T.pairs[live, 0]] * dims[T.pairs[live, 1]]
        first = np.zeros(len(T.pairs), dtype=np.intp)
        first[live] = np.cumsum(sizes) - sizes
        rows, cols = np.empty((2, sizes.sum()), dtype=np.intp)
        involution = [(_spans(starts[at], J.shape[2]), _spans(starts[T.inv[at]], J.shape[1]),
                       J.transpose(0, 2, 1)) for at, J in bundle.inv_stacks.groups() if J.shape[2]]
        products = []
        for at, M in bundle.mult_stacks.groups():
            t, do, dg, dh = M.shape
            if dg and dh:
                g, h, numbers = T.pairs[at, 0], T.pairs[at, 1], _spans(first[at], dg * dh)
                g_rows, h_rows = _spans(starts[g], dg), _spans(starts[h], dh)
                rows[numbers], cols[numbers] = np.repeat(g_rows, dh, axis=1), np.tile(h_rows, dg)
                products.append((g_rows, h_rows, _spans(starts[T.comp[g, h]], do),
                                 M.reshape(t, do, dg * dh).transpose(0, 2, 1), numbers))
        in_range = np.repeat(T.rng, dims)
        by_range = [np.flatnonzero(in_range == z) for z in range(len(G.objects))]
        ranges = np.full((len(by_range), max(map(len, by_range), default=0)),
                         bundle.total_dim, dtype=np.intp)
        for z, members in enumerate(by_range):
            ranges[z, :len(members)] = members
        return _DeltaTable([(g, i) for g in G.arrows for i in range(bundle.dims[g])],
                           np.repeat(T.src, dims), rows, cols, involution, products, ranges)
    return bundle.memo("delta_table", build)


def _star_hom_residuals(bundle: FellBundle, X: Array) -> tuple[Array, Array]:
    """How far the basis images X (N, m, m), one per delta in delta order,
    are from a *-homomorphism.  Returns

    * per delta e_i^g, the residual |X(e_i)* - X(e_i*)| (N,), with e_i* =
      sum_k inv[g][k, i] e_k in A_{g^-1};
    * per product of ``_delta_table``, the residual |X(e_i) X(e_j) -
      X(e_i e_j)| and the norm |X(e_i e_j)|, as an array (2, K).

    Each comparison is one contraction per stack of the table, the products
    in slices of at most ``_STACK_CHUNK`` matrix entries.
    """
    table = _delta_table(bundle)
    n, m = X.shape[0], X.shape[-1]
    flat = X.reshape(n, m * m)
    inv = np.empty(n)
    mult = np.empty((2, len(table.rows)))
    # products of images above ~1e154 overflow to inf, which the residuals report
    with np.errstate(over="ignore"):
        for rows, inv_rows, J in table.involution:
            t, d = rows.shape
            lhs = np.swapaxes(X[rows].conj(), -1, -2).reshape(t, d, m * m)
            inv[rows.ravel()] = la.row_norms((lhs - J @ flat[inv_rows]).reshape(t * d, -1))
        for g_rows, h_rows, gh_rows, M, numbers in table.products:
            t, dg = g_rows.shape
            dh = h_rows.shape[1]
            per = max(1, dh * m * m)  # entries of the products of one row e_i^g
            items, step = max(1, la._STACK_CHUNK // (dg * per)), max(1, la._STACK_CHUNK // per)
            for a in range(0, t, items):
                Y, Z = X[h_rows[a:a + items]], flat[gh_rows[a:a + items]]
                for i in range(0, dg, step):
                    prods = (slice(a, a + items), slice(i * dh, (i + step) * dh))
                    conv = M[prods] @ Z
                    prod = (X[g_rows[a:a + items, i:i + step]][:, :, None] @ Y[:, None])
                    k = numbers[prods].ravel()
                    mult[0, k] = la.row_norms((prod.reshape(conv.shape) - conv).reshape(k.size, -1))
                    mult[1, k] = _scaled_row_norms(conv.reshape(k.size, -1))
    return inv, mult


def _scaled_row_norms(rows: Array) -> Array:
    """``la.row_norms``, formed for row / 2^e (2^e just above max |row|) if a square overflows."""
    with np.errstate(over="ignore"):
        norms = la.row_norms(rows)
    if np.isfinite(norms).all():
        return norms
    e = _exponents(rows)
    return np.ldexp(la.row_norms(_ldexp(rows, -e[:, None])), e)


def _vanishing_failures(bundle: FellBundle, X: Array, tol: float) -> Array:
    """The pairs (n, k) of deltas with s(g_n) != r(g_k) whose images have a
    product X[n] X[k] of norm above ``tol``, as an array (c, 2) in delta
    order; X stacks the (D, D) images in delta order.

    Screen first.  For the q images B_1, ..., B_q with range z, sum_j
    |A B_j|^2 = |A R_z*|^2 with R_z the triangular factor of [B_1 ... B_q]*
    (one stacked QR for all objects), so summing over z != s(A) gives the
    sum of |A B|^2 over the products to check.  Its square root is off by at
    most about (qD + D) D eps |A| |B| (backward error of QR and product), so
    a row A whose screen plus that slack stays below tol / 2 has every
    product below tol.  Only the other rows form their products.
    """
    table = _delta_table(bundle)
    n, D = X.shape[0], X.shape[-1]
    zs, q = table.ranges.shape
    if zs < 2 or D == 0:
        return np.zeros((0, 2), dtype=np.intp)
    B = np.concatenate([X, np.zeros((1, D, D), dtype=X.dtype)])[table.ranges]
    r_adj = np.swapaxes(np.linalg.qr(np.swapaxes(B.conj(), -1, -2).reshape(zs, q * D, D),
                                     mode="r").conj(), -1, -2)
    others = table.src[:, None] != np.arange(zs)  # per row A, the ranges z != s(A)
    b_sq = la.row_norms(B.reshape(zs, -1)) ** 2
    slack = (q * D + D) * D * la._EPS * la.row_norms(X.reshape(n, -1)) * np.sqrt(others @ b_sq)
    found = []
    step, width = max(1, la._STACK_CHUNK // (zs * D * D)), max(1, la._STACK_CHUNK // (D * D))
    for a in range(0, n, step):
        sq = la.row_norms((X[a:a + step, None] @ r_adj).reshape(-1, D * D)).reshape(-1, zs) ** 2
        screen = np.sqrt((sq * others[a:a + step]).sum(axis=1))
        for row in a + np.flatnonzero(~(screen + slack[a:a + step] <= tol / 2)):
            cols = table.ranges[others[row]].ravel()
            cols = np.sort(cols[cols < n])
            for c in range(0, len(cols), width):
                block = cols[c:c + width]
                found.extend((row, k) for k in block[la.row_norms(X[row] @ X[block]) > tol])
    return np.array(found, dtype=np.intp).reshape(-1, 2)


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
    # W = [S_g(e_0) ... S_g(e_{d-1})]
    W = np.swapaxes(la.as_complex(R.maps[g]), 1, 2).reshape(dr, d * ds)
    # the unit fibre at x acts on H_x through S_{u(x)}
    gram = induced_gram(bundle, g, la.as_complex(R.maps[G.unit[x]]).transpose(2, 0, 1))
    iso_res = float(np.linalg.norm(W.conj().T @ W - gram))
    # support: projection onto span(S_{u(y)}(A_g A_g*) H_y), spanned by the
    # columns of S_{u(y)}(e_i e_j*) for all (i, j)
    gi = G.inv[g]
    coords = np.einsum("kil,lj->kij", bundle.mult[(g, gi)], bundle.inv[g])
    cols = np.einsum("abk,kij->aijb", la.as_complex(R.maps[G.unit[y]]), coords)
    frame = la.orth_rows(cols.reshape(dr, -1).T, tols.rank_threshold)
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
    work = P.astype(np.complex128)
    n = work.shape[1]
    norms = _column_norms(work)
    scale = max(float(norms.max(initial=0.0)), 1.0)
    cols = []
    for _ in range(n):
        top = float(norms.max(initial=0.0))
        if top <= rtol * scale * 10:
            break
        # earliest column within a tolerance band of the maximum, so exact
        # coordinate projections (up to float noise) give coordinate frames
        j = int(np.argmax(norms >= top * (1.0 - 1e-8)))
        v = work[:, j] / norms[j]
        size = np.abs(v)
        pivot = int(np.argmax(size >= size.max() * (1.0 - 1e-8)))
        v = v * (size[pivot] / v[pivot])
        cols.append(v)
        work -= np.outer(v, v.conj() @ work)
        norms = _column_norms(work)
    if not cols:
        return np.zeros((P.shape[0], 0), dtype=np.complex128)
    return np.stack(cols, axis=1)


def _column_norms(a: Array) -> Array:
    """``np.linalg.norm(a, axis=0)`` of a complex matrix, as numpy forms it."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=0))


def disintegrate(bundle: FellBundle, L: Callable[[Section], Array], dim: int,
                 tols: Tolerances = DEFAULT) -> FellRep:
    """Recover the S_g family from a nondegenerate *-homomorphism of sections.

    The central projections L(1_x at unit) decompose the space into the
    H_x; S_g(a) is the compression of L(a delta_g) to the (r(g), s(g))
    corner.  Raises on non-finite or misshapen images and on
    non-multiplicative, non-involutive or degenerate L.  The basis images
    L(delta_{g,i}) are checked as one stack by ``_star_hom_residuals``:
    involution, products of composable pairs, and vanishing of the
    non-composable products, each to 1e-7; the first failure in delta order
    is the one raised.
    """
    def delta_images() -> Array:
        return np.array([_image(L, s, f"L(delta ({g},{i}))", dim)
                         for g, i, s in _rep_sections(bundle)[2]],
                        dtype=np.complex128).reshape(-1, dim, dim)
    return _disintegrate(bundle, L, dim, tols, delta_images)


def _rep_sections(bundle: FellBundle) -> tuple[Section, dict[str, Section], list]:
    """The unit section, the unit of each unit fibre as a section, and the
    delta sections (``basis_sections``), memoised on the bundle."""
    G = bundle.groupoid
    return bundle.memo("rep_sections", lambda: (
        unit_section(bundle),
        {x: Section(bundle, {G.unit[x]: bundle.unit_algebra_unit(x)}) for x in G.objects},
        basis_sections(bundle)))


def _image(L: Callable[[Section], Array], f: Section, label: str, dim: int) -> Array:
    m = L(f)
    if np.shape(m) != (dim, dim):
        raise ValueError(f"{label} has shape {np.shape(m)}, want {(dim, dim)}")
    return m


def _disintegrate(bundle: FellBundle, L: Callable[[Section], Array], dim: int,
                  tols: Tolerances, delta_images: Callable[[], Array]) -> FellRep:
    """``disintegrate``, with the stack (N, dim, dim) of the images
    L(delta_{g,i}) in delta order gathered by ``delta_images`` after L(unit
    section) is checked."""
    G = bundle.groupoid
    tol = max(tols.tolerance, 1e-12)
    e, ones, _ = _rep_sections(bundle)
    Le = L(e)
    if np.shape(Le) != (dim, dim):
        raise ValueError("L has the wrong dimension")
    _require_finite(Le, "L(unit section)")
    size = float(np.linalg.norm(Le))
    if float(np.linalg.norm(Le @ Le - Le)) > 1e-8 * max(1.0, size) or \
            float(np.linalg.norm(Le - Le.conj().T)) > 1e-8:
        raise ValueError("L(unit section) is not a projection; L is not a *-homomorphism")
    if size <= tol:
        raise ValueError("degenerate representation: L(unit section) = 0")
    V0 = None
    if float(np.linalg.norm(Le - np.eye(dim))) > 1e-8:
        V0 = _pivoted_range_frame(Le, tols.rank_threshold)

    X = delta_images()
    if not np.isfinite(X).all():
        n = np.flatnonzero(~np.isfinite(X).all(axis=(1, 2)))[0]
        raise ValueError("L(delta ({},{})) has a non-finite entry".format(
            *_rep_sections(bundle)[2][n][:2]))
    inner = dim
    if V0 is not None:
        X = V0.conj().T @ X @ V0
        inner = V0.shape[1]
    table = _delta_table(bundle)
    inv, mult = _star_hom_residuals(bundle, X)
    bad = np.flatnonzero(inv > 1e-7)
    if bad.size:
        raise ValueError("L is not involutive at ({},{})".format(*table.deltas[bad[0]]))
    bad = np.flatnonzero(mult[0] > 1e-7)
    failed = _vanishing_failures(bundle, X, 1e-7)
    if bad.size or failed.size:
        failed = np.concatenate([np.stack([table.rows[bad], table.cols[bad]], axis=1), failed])
        # the first failing product in delta order: rows (g, i), then columns (h, j)
        n, m = failed[np.lexsort(failed.T[::-1])[0]]
        raise ValueError(f"L is not multiplicative at ({table.deltas[n][0]},{table.deltas[m][0]})")

    frames = {}
    dims = {}
    for x in G.objects:
        P = _image(L, ones[x], f"L(1_{x})", dim)
        _require_finite(P, f"L(1_{x})")
        if V0 is not None:
            P = V0.conj().T @ P @ V0
        frames[x] = _pivoted_range_frame(P, tols.rank_threshold)
        dims[x] = frames[x].shape[1]
    total = sum(dims.values())
    if total != inner:
        raise ValueError(f"central projections decompose {total} of {inner} dimensions")
    maps = {}
    for g, off in bundle.offsets().items():
        x, y = G.rng[g], G.src[g]
        corner = frames[x].conj().T @ X[off:off + bundle.dims[g]] @ frames[y]
        maps[g] = np.ascontiguousarray(corner.transpose(1, 2, 0))
    R = FellRep(bundle, dims, maps)
    check = validate_rep(R, tols)
    if not check.ok:
        raise ValueError("disintegration produced an invalid representation:\n"
                         + check.summary())
    return R


def _require_finite(m: Array, label: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{label} has a non-finite entry")


def regular_fellrep(bundle: FellBundle, x: str, tols: Tolerances = DEFAULT) -> FellRep:
    """The representation whose integrated form is the regular one at x.

    The space over object y collects the Gram quotients of A_g (x) C^{n_x}
    for g in G_x with r(g) = y, in declared arrow order.
    """
    G = bundle.groupoid
    reg = regular_at(bundle, x, tols)
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
            if (h, g) not in reg.blocks:
                continue
            block = reg.blocks[(h, g)]  # (q_out, d_h, q_in)
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
        # the basis images S_g(e_i) of both representations, (d_g, ., .)
        lhs = la.as_complex(T[x]) @ la.as_complex(R1.maps[g]).transpose(2, 0, 1)
        rhs = la.as_complex(R2.maps[g]).transpose(2, 0, 1) @ la.as_complex(T[y])
        res, norms = la.row_norms(lhs - rhs), la.row_norms(rhs)
        for i in np.flatnonzero(~(res <= tol * np.fmax(1.0, norms))):
            rep.add("fibre intertwining", f"({g},{i})", float(res[i]))
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

    def embed(big: Array) -> Array:
        """The images of regular-representation matrices (..., N, N): each
        block's irrep m times down the diagonal, conjugated by U."""
        out = np.zeros(big.shape[:-2] + (dim, dim), dtype=np.complex128)
        pos = 0
        for m, b in zip(mults, blocks):
            small = b.irrep(big) if m else None
            for _ in range(m):
                out[..., pos:pos + b.size, pos:pos + b.size] = small
                pos += b.size
        return U @ out @ U.conj().T

    # the delta images from the stored Lambda(delta) stack, in one product
    return _disintegrate(bundle, lambda f: embed(env.lambda_of(f)), dim, tols,
                         lambda: embed(env.images))
