"""JSON workspaces: one file naming groupoids, bundles, actions, sections,
ideals, representations and transformation-groupoid comparisons.

Conventions: complex scalars are numbers or [re, im] pairs; matrices are
row-major nested lists; vectors are flat lists.  Name references are plain
strings into the sibling tables.  Loading is strict: dangling references and
malformed entries raise WorkspaceError with the offending location.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .actions import TwistedPartialAction
from .bundle import FellBundle, MatrixModelBundle, UnitFiberAlgebra
from .config import Tolerances, check_seed, env_seed
from .groupoid import (FiniteGroupoid, PartialActionOnSet, composable_pairs,
                       missing_composite, transformation_groupoid)
from .ideals import FellIdeal, ideal_from_invariant_family
from .reps import FellRep
from .sections import Section
from .spectrum import FiberSpectrum, family_from_subset, fiber_spectrum


class WorkspaceError(ValueError):
    pass


def parse_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        parts = [v]
    elif isinstance(v, (list, tuple)) and len(v) == 2 and \
            all(isinstance(t, (int, float)) for t in v):
        parts = v
    else:
        raise WorkspaceError(f"{where}: expected a number or [re, im], got {v!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        raise WorkspaceError(f"{where}: number too large for a float") from None
    if not cmath.isfinite(z):
        raise WorkspaceError(f"{where}: expected a finite number, got {v!r}")
    return z


def parse_positive(v, where: str) -> float:
    """A finite float > 0 (tolerances and thresholds)."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise WorkspaceError(f"{where}: expected a number, got {v!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise WorkspaceError(f"{where}: expected a finite number > 0, got {v!r}")
    return x


def parse_count(v, where: str) -> int:
    """A non-negative integer (dimensions)."""
    # bool is a subclass of int, and a float would be truncated
    if type(v) is not int or v < 0:
        raise WorkspaceError(f"{where}: expected a non-negative integer, got {v!r}")
    return v


def parse_vector(v, where: str) -> np.ndarray:
    if not isinstance(v, list):
        raise WorkspaceError(f"{where}: expected a list")
    return np.array([parse_complex(t, f"{where}[{i}]") for i, t in enumerate(v)],
                    dtype=np.complex128)


def parse_matrix(v, where: str) -> np.ndarray:
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise WorkspaceError(f"{where}: expected a matrix (list of rows)")
    rows = [parse_vector(r, f"{where}[{i}]") for i, r in enumerate(v)]
    if rows and len({r.shape[0] for r in rows}) != 1:
        raise WorkspaceError(f"{where}: ragged matrix")
    return np.array(rows, dtype=np.complex128) if rows else np.zeros((0, 0), np.complex128)


def parse_matrices(v, where: str) -> list[np.ndarray]:
    if not isinstance(v, list):
        raise WorkspaceError(f"{where}: expected a list of matrices")
    return [parse_matrix(m, f"{where}[{i}]") for i, m in enumerate(v)]


def parse_tensor(v, where: str) -> np.ndarray:
    """A three-index array written as a list of matrices."""
    mats = parse_matrices(v, where)
    if len({m.shape for m in mats}) > 1:
        raise WorkspaceError(f"{where}: ragged array")
    return np.array(mats, dtype=np.complex128)


def dump_complex(z: complex) -> Any:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def dump_matrix(m: np.ndarray) -> list:
    return [[dump_complex(z) for z in row] for row in np.atleast_2d(m)]


@dataclass
class Workspace:
    raw: dict
    tols: Tolerances
    _groupoids: dict = field(default_factory=dict)
    _bundles: dict = field(default_factory=dict)

    @staticmethod
    def load(path: str, tolerance: float | None = None,
             seed: int | None = None) -> "Workspace":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise WorkspaceError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
            except ValueError as exc:  # an integer literal too long to convert
                raise WorkspaceError(f"{path}: {exc}") from exc
        return Workspace.from_dict(raw, tolerance=tolerance, seed=seed)

    @staticmethod
    def from_dict(raw: dict, tolerance: float | None = None,
                  seed: int | None = None) -> "Workspace":
        cfg = _object(_object(raw, "workspace").get("config", {}), "config")
        try:  # precedence: explicit CLI seed, then FELLBUND_SEED, then the config
            cfg_seed = check_seed(cfg.get("seed", 0), "config.seed")
            chosen_seed = check_seed(seed, "seed") if seed is not None else env_seed(cfg_seed)
        except ValueError as exc:
            raise WorkspaceError(str(exc)) from None
        # config values are checked even when overridden
        cfg_tolerance = parse_positive(cfg.get("tolerance", 1e-9), "config.tolerance")
        tols = Tolerances(
            tolerance=(cfg_tolerance if tolerance is None
                       else parse_positive(tolerance, "tolerance")),
            rank_threshold=parse_positive(cfg.get("rank_threshold", 1e-10),
                                          "config.rank_threshold"),
            cluster_gap=parse_positive(cfg.get("cluster_gap", 1e-7), "config.cluster_gap"),
            seed=chosen_seed,
        )
        return Workspace(raw, tols)

    # -- lookups ----------------------------------------------------------------

    def _table(self, kind: str) -> dict:
        t = self.raw.get(kind, {})
        if not isinstance(t, dict):
            raise WorkspaceError(f"{kind}: expected an object of named entries")
        return t

    def names(self, kind: str) -> list[str]:
        return list(self._table(kind))

    def find(self, name: str) -> tuple[str, Any]:
        kinds = [kind for kind in ("groupoids", "bundles", "actions", "sections", "ideals",
                                   "reps", "set_actions", "trafo")
                 if name in self._table(kind)]
        if not kinds:
            raise WorkspaceError(f"no entry named {name!r} in the workspace")
        if len(kinds) > 1:
            raise WorkspaceError(f"name {name!r} is ambiguous: it names entries in "
                                 f"{', '.join(kinds)}")
        return kinds[0], self._table(kinds[0])[name]

    def groupoid(self, name: str) -> FiniteGroupoid:
        if name in self._groupoids:
            return self._groupoids[name]
        table = self._table("groupoids")
        if name not in table:
            raise WorkspaceError(f"groupoid {name!r} not found")
        where = f"groupoids.{name}"
        spec = _object(table[name], where)
        arrows = spec.get("arrows", [])
        try:
            G = FiniteGroupoid.from_data(
                spec.get("objects", []),
                [a["id"] for a in arrows],
                {a["id"]: a["src"] for a in arrows},
                {a["id"]: a["rng"] for a in arrows},
                spec.get("units", {}),
                spec.get("inv", {}),
                {(g, h): k for g, h, k in spec.get("comp", [])},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc
        self._groupoids[name] = G
        return G

    def bundle(self, name: str) -> FellBundle:
        if name in self._bundles:
            return self._bundles[name]
        table = self._table("bundles")
        if name not in table:
            raise WorkspaceError(f"bundle {name!r} not found")
        where = f"bundles.{name}"
        spec = _object(table[name], where)
        G = self.groupoid(_ref(spec, "groupoid", where))
        if spec.get("model") == "matrix":
            fibers = {g: parse_matrices(mats, f"{where}.fibers.{g}") for g, mats in
                      _keyed(spec.get("fibers", {}), G.arrow_index, "arrow", f"{where}.fibers")}
            obj_dims = {x: parse_count(n, f"{where}.obj_dims.{x}") for x, n in
                        _keyed(spec.get("obj_dims", {}), G.objects, "object",
                               f"{where}.obj_dims")} or None
            try:
                bundle = MatrixModelBundle(G, fibers, obj_dims,
                                           self.tols.rank_threshold).to_fell_bundle(name=name)
            except ValueError as exc:
                raise WorkspaceError(f"{where}: {exc}") from exc
        else:
            bundle = self._structure_bundle(G, spec, where, name)
        self._bundles[name] = bundle
        return bundle

    def _structure_bundle(self, G: FiniteGroupoid, spec: dict, where: str,
                          name: str) -> FellBundle:
        fibers = _object(spec.get("fibers", {}), f"{where}.fibers")
        dims = {}
        for g in G.arrows:
            entry = fibers.get(g)
            if entry is None:
                raise WorkspaceError(f"{where}.fibers: missing arrow {g!r}")
            dims[g] = parse_count(_object(entry, f"{where}.fibers.{g}").get("dim"),
                                  f"{where}.fibers.{g}.dim")
        if gap := missing_composite(G):
            raise WorkspaceError("{}: composable pair ({},{}) has no composite".format(where, *gap))
        mult = {(g, h): np.zeros((dims[G.comp[(g, h)]], dims[g], dims[h]), dtype=np.complex128)
                for g, h in composable_pairs(G)}
        entries = spec.get("mult", [])
        if not isinstance(entries, list):
            raise WorkspaceError(f"{where}.mult: expected a list of [g,h,k,i,j,value]")
        for entry in entries:
            try:
                g, h, k, i, j, value = entry
            except (TypeError, ValueError):
                raise WorkspaceError(f"{where}.mult: entries are [g,h,k,i,j,value]")
            tensor = mult.get((g, h)) if isinstance(g, str) and isinstance(h, str) else None
            if tensor is None:
                raise WorkspaceError(f"{where}.mult: ({g!r}, {h!r}) is not a composable pair")
            index = (k, i, j)
            if not all(type(t) is int and 0 <= t < n for t, n in zip(index, tensor.shape)):
                raise WorkspaceError(f"{where}.mult: expected integer indices within shape "
                                     f"{tensor.shape} of ({g},{h}), got {list(index)}")
            tensor[index] = parse_complex(value, f"{where}.mult")
        inv = {}
        inv_table = _object(spec.get("inv", {}), f"{where}.inv")
        for g in G.arrows:
            raw = inv_table.get(g)
            if raw is None:
                raise WorkspaceError(f"{where}.inv: missing arrow {g!r}")
            m = parse_matrix(raw, f"{where}.inv.{g}")
            if m.size == 0:
                m = np.zeros((dims[G.inv[g]], dims[g]), dtype=np.complex128)
            inv[g] = m
        unit_rep = {}
        algebras = _object(spec.get("unit_algebras", {}), f"{where}.unit_algebras")
        for x in G.objects:
            raw = algebras.get(x)
            if raw is None:
                raise WorkspaceError(f"{where}.unit_algebras: missing object {x!r}")
            n = parse_count(_object(raw, f"{where}.unit_algebras.{x}").get("n"),
                            f"{where}.unit_algebras.{x}.n")
            mats = parse_matrices(raw.get("basis", []), f"{where}.unit_algebras.{x}")
            for i, m in enumerate(mats):
                if m.shape != (n, n):
                    raise WorkspaceError(f"{where}.unit_algebras.{x}[{i}]: shape {m.shape}, "
                                         f"want {(n, n)}")
            if len(mats) != dims[G.unit[x]]:
                raise WorkspaceError(f"{where}.unit_algebras.{x}: "
                                     f"{len(mats)} matrices for fibre dim {dims[G.unit[x]]}")
            unit_rep[x] = (np.stack(mats) if mats
                           else np.zeros((0, n, n), dtype=np.complex128))
        try:
            return FellBundle(G, dims, mult, inv, unit_rep, name=name)
        except ValueError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc

    def action(self, name: str) -> TwistedPartialAction:
        table = self._table("actions")
        if name not in table:
            raise WorkspaceError(f"action {name!r} not found")
        where = f"actions.{name}"
        spec = _object(table[name], where)
        G = self.groupoid(_ref(spec, "groupoid", where))
        fibers = {}
        fiber_table = _object(spec.get("fibers", {}), f"{where}.fibers")
        for x in G.objects:
            raw = fiber_table.get(x)
            if raw is None:
                raise WorkspaceError(f"{where}.fibers: missing object {x!r}")
            raw = _object(raw, f"{where}.fibers.{x}")
            n = parse_count(raw.get("n"), f"{where}.fibers.{x}.n")
            mats = parse_matrices(raw.get("basis", []), f"{where}.fibers.{x}")
            try:
                fibers[x] = UnitFiberAlgebra.from_matrices(n, mats, self.tols.rank_threshold)
            except ValueError as exc:
                raise WorkspaceError(f"{where}.fibers.{x}: {exc}") from exc
        ideals = {g: parse_matrices(mats, f"{where}.ideals.{g}")
                  for g, mats in _object(spec.get("ideals", {}), f"{where}.ideals").items()}
        alpha = {g: parse_matrix(m, f"{where}.alpha.{g}")
                 for g, m in _object(spec.get("alpha", {}), f"{where}.alpha").items()}
        w = {}
        for key, value in _object(spec.get("w", {}), f"{where}.w").items():
            try:
                g, h = key.split(",")
            except ValueError:
                raise WorkspaceError(f"{where}.w: keys look like \"g,h\"")
            if isinstance(value, list) and value and isinstance(value[0], list):
                w[(g, h)] = parse_matrix(value, f"{where}.w.{key}")
            else:
                w[(g, h)] = parse_complex(value, f"{where}.w.{key}")
        try:
            return TwistedPartialAction.build(G, fibers, ideals, alpha, w,
                                              self.tols.rank_threshold)
        except ValueError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc

    def section(self, name: str) -> Section:
        table = self._table("sections")
        if name not in table:
            raise WorkspaceError(f"section {name!r} not found")
        where = f"sections.{name}"
        spec = _object(table[name], where)
        bundle = self.bundle(_ref(spec, "bundle", where))
        entries = {}
        for g, v in _object(spec.get("entries", {}), f"{where}.entries").items():
            if g not in bundle.dims:
                raise WorkspaceError(f"{where}.entries: unknown arrow {g!r}")
            entries[g] = parse_vector(v, f"{where}.entries.{g}")
        try:
            return Section(bundle, entries)
        except ValueError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc

    def ideal(self, name: str) -> FellIdeal:
        table = self._table("ideals")
        if name not in table:
            raise WorkspaceError(f"ideal {name!r} not found")
        where = f"ideals.{name}"
        spec = _object(table[name], where)
        bundle = self.bundle(_ref(spec, "bundle", where))
        if "invariant_family" in spec:
            if "fibers" in spec:
                raise WorkspaceError(f"{where}: give either fibers or invariant_family, not both")
            spectrum = fiber_spectrum(bundle, self.tols)
            keys = _block_keys(spec["invariant_family"], spectrum, f"{where}.invariant_family")
            family = family_from_subset(bundle, spectrum, keys, self.tols)
            return ideal_from_invariant_family(family, self.tols)
        vectors = {}
        for g, vs in _keyed(spec.get("fibers", {}), bundle.dims, "arrow", f"{where}.fibers"):
            vectors[g] = parse_matrix(vs, f"{where}.fibers.{g}")  # one row per vector
            if vectors[g].size and vectors[g].shape[1] != bundle.dims[g]:
                raise WorkspaceError(f"{where}.fibers.{g}: vectors of length "
                                     f"{vectors[g].shape[1]}, want {bundle.dims[g]}")
        return FellIdeal.from_spanning(bundle, vectors, self.tols.rank_threshold)

    def rep(self, name: str) -> FellRep:
        table = self._table("reps")
        if name not in table:
            raise WorkspaceError(f"rep {name!r} not found")
        where = f"reps.{name}"
        spec = _object(table[name], where)
        bundle = self.bundle(_ref(spec, "bundle", where))
        dims_table = _object(spec.get("dims", {}), f"{where}.dims")
        dims = {x: parse_count(dims_table.get(x, 0), f"{where}.dims.{x}")
                for x in bundle.groupoid.objects}
        maps = {}
        maps_table = _object(spec.get("maps", {}), f"{where}.maps")
        for g in bundle.groupoid.arrows:
            raw = maps_table.get(g)
            shape = (dims[bundle.groupoid.rng[g]], dims[bundle.groupoid.src[g]],
                     bundle.dims[g])
            if raw is None:
                maps[g] = np.zeros(shape, dtype=np.complex128)
                continue
            arr = parse_tensor(raw, f"{where}.maps.{g}")
            if arr.shape != shape:
                raise WorkspaceError(f"{where}.maps.{g}: shape {arr.shape}, want {shape}")
            maps[g] = arr
        return FellRep(bundle, dims, maps)

    def set_action(self, name: str) -> PartialActionOnSet:
        table = self._table("set_actions")
        if name not in table:
            raise WorkspaceError(f"set action {name!r} not found")
        where = f"set_actions.{name}"
        spec = _object(table[name], where)
        G = self.groupoid(_ref(spec, "groupoid", where))
        points = spec.get("points", [])
        if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
            raise WorkspaceError(f"{where}.points: expected a list of point names, "
                                 f"got {points!r}")
        entries = spec.get("act", [])
        if not isinstance(entries, list):
            raise WorkspaceError(f"{where}.act: expected a list of [g, y, g.y]")
        act = {}
        for entry in entries:
            try:
                g, y, x = entry
            except (TypeError, ValueError):
                raise WorkspaceError(f"{where}.act: entries are [g, y, g.y]")
            act[(g, y)] = x
        return PartialActionOnSet(G, tuple(points),
                                  dict(_object(spec.get("anchor", {}), f"{where}.anchor")), act)

    def trafo_instance(self, name: str):
        table = self._table("trafo")
        if name not in table:
            raise WorkspaceError(f"trafo comparison {name!r} not found")
        where = f"trafo.{name}"
        spec = _object(table[name], where)
        action = self.set_action(_ref(spec, "action", where))
        H, arrow_dict = transformation_groupoid(action)
        bundle = self.bundle(_ref(spec, "bundle", where))
        if bundle.groupoid.arrows != H.arrows:
            raise WorkspaceError(f"{where}: bundle base does not match the "
                                 "transformation groupoid of the action "
                                 f"(arrows {bundle.groupoid.arrows} vs {H.arrows})")
        return action, H, arrow_dict, bundle


def _ref(spec: dict, key: str, where: str) -> str:
    v = spec.get(key)
    if not isinstance(v, str):
        raise WorkspaceError(f"{where}: missing reference {key!r}")
    return v


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise WorkspaceError(f"{where}: expected an object, got {v!r}")
    return v


def _keyed(v, known, kind: str, where: str) -> list[tuple[str, Any]]:
    """The items of an object keyed by names from ``known``."""
    items = list(_object(v, where).items())
    for key, _ in items:
        if key not in known:
            raise WorkspaceError(f"{where}: unknown {kind} {key!r}")
    return items


def _block_keys(raw, spectrum: FiberSpectrum, where: str) -> set[tuple[str, int]]:
    """(object, block index) keys of an ``invariant_family`` entry: an object
    from object names to lists of distinct block indices."""
    if not isinstance(raw, dict):
        raise WorkspaceError(f"{where}: expected an object mapping object names "
                             f"to block indices, got {raw!r}")
    for x, sel in raw.items():
        if x not in spectrum.by_object:
            raise WorkspaceError(f"{where}: unknown object {x!r}")
        # bool is a subclass of int, and a float index would be truncated
        if not isinstance(sel, list) or any(type(b) is not int for b in sel):
            raise WorkspaceError(f"{where}.{x}: expected a list of integer block "
                                 f"indices, got {sel!r}")
        if len(set(sel)) != len(sel):
            raise WorkspaceError(f"{where}.{x}: repeated block indices in {sel}")
        bad = [b for b in sel if not 0 <= b < len(spectrum.by_object[x])]
        if bad:
            raise WorkspaceError(f"{where}.{x}: block indices {bad} out of range")
    return {(x, b) for x, sel in raw.items() for b in sel}
