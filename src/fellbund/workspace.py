"""JSON workspaces: one file naming groupoids, bundles, actions, sections,
ideals, representations and transformation-groupoid comparisons.

Conventions: complex scalars are numbers or [re, im] pairs; matrices are
row-major nested lists; vectors are flat lists.  Name references are plain
strings into the sibling tables.  Loading is strict: dangling references and
malformed entries raise WorkspaceError with the offending location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import _linalg as la
from .actions import TwistedPartialAction
from .bundle import FellBundle, MatrixModelBundle, UnitFiberAlgebra
from .config import Tolerances, env_seed
from .groupoid import FiniteGroupoid, PartialActionOnSet, transformation_groupoid
from .ideals import FellIdeal, InvariantFamily
from .reps import FellRep
from .sections import Section


class WorkspaceError(ValueError):
    pass


def parse_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and \
            all(isinstance(t, (int, float)) for t in v):
        return complex(v[0], v[1])
    raise WorkspaceError(f"{where}: expected a number or [re, im], got {v!r}")


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
        return Workspace.from_dict(raw, tolerance=tolerance, seed=seed)

    @staticmethod
    def from_dict(raw: dict, tolerance: float | None = None,
                  seed: int | None = None) -> "Workspace":
        cfg = raw.get("config", {})
        # precedence: explicit CLI seed, then FELLBUND_SEED, then the config
        if seed is not None:
            chosen_seed = int(seed)
        else:
            chosen_seed = env_seed(int(cfg.get("seed", 0)))
        tols = Tolerances(
            tolerance=float(tolerance if tolerance is not None
                            else cfg.get("tolerance", 1e-9)),
            rank_threshold=float(cfg.get("rank_threshold", 1e-10)),
            cluster_gap=float(cfg.get("cluster_gap", 1e-7)),
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
        spec = table[name]
        where = f"groupoids.{name}"
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
        spec = table[name]
        where = f"bundles.{name}"
        G = self.groupoid(_ref(spec, "groupoid", where))
        if spec.get("model") == "matrix":
            fibers = {g: [parse_matrix(m, f"{where}.fibers.{g}[{i}]")
                          for i, m in enumerate(mats)]
                      for g, mats in spec.get("fibers", {}).items()}
            obj_dims = {x: int(n) for x, n in spec.get("obj_dims", {}).items()} or None
            bundle = MatrixModelBundle(G, fibers, obj_dims,
                                       self.tols.rank_threshold).to_fell_bundle(
                self.tols.rank_threshold, name=name)
        else:
            bundle = self._structure_bundle(G, spec, where, name)
        self._bundles[name] = bundle
        return bundle

    def _structure_bundle(self, G: FiniteGroupoid, spec: dict, where: str,
                          name: str) -> FellBundle:
        fibers = spec.get("fibers", {})
        dims = {}
        for g in G.arrows:
            entry = fibers.get(g)
            if entry is None:
                raise WorkspaceError(f"{where}.fibers: missing arrow {g!r}")
            dims[g] = int(entry["dim"])
        mult = {}
        for g, h in ((g, h) for g in G.arrows for h in G.arrows
                     if G.src[g] == G.rng[h]):
            gh = G.comp[(g, h)]
            mult[(g, h)] = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        for entry in spec.get("mult", []):
            try:
                g, h, k, i, j, value = entry
            except (TypeError, ValueError):
                raise WorkspaceError(f"{where}.mult: entries are [g,h,k,i,j,value]")
            mult[(g, h)][int(k), int(i), int(j)] = parse_complex(value, f"{where}.mult")
        inv = {}
        for g in G.arrows:
            raw = spec.get("inv", {}).get(g)
            if raw is None:
                raise WorkspaceError(f"{where}.inv: missing arrow {g!r}")
            m = parse_matrix(raw, f"{where}.inv.{g}")
            if m.size == 0:
                m = np.zeros((dims[G.inv[g]], dims[g]), dtype=np.complex128)
            inv[g] = m
        unit_rep = {}
        for x in G.objects:
            raw = spec.get("unit_algebras", {}).get(x)
            if raw is None:
                raise WorkspaceError(f"{where}.unit_algebras: missing object {x!r}")
            n = int(raw["n"])
            mats = [parse_matrix(m, f"{where}.unit_algebras.{x}[{i}]")
                    for i, m in enumerate(raw.get("basis", []))]
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
        spec = table[name]
        where = f"actions.{name}"
        G = self.groupoid(_ref(spec, "groupoid", where))
        fibers = {}
        for x in G.objects:
            raw = spec.get("fibers", {}).get(x)
            if raw is None:
                raise WorkspaceError(f"{where}.fibers: missing object {x!r}")
            mats = [parse_matrix(m, f"{where}.fibers.{x}") for m in raw.get("basis", [])]
            fibers[x] = UnitFiberAlgebra.from_matrices(int(raw["n"]), mats,
                                                       self.tols.rank_threshold)
        ideals = {g: [parse_matrix(m, f"{where}.ideals.{g}") for m in mats]
                  for g, mats in spec.get("ideals", {}).items()}
        alpha = {g: parse_matrix(m, f"{where}.alpha.{g}")
                 for g, m in spec.get("alpha", {}).items()}
        w = {}
        for key, value in spec.get("w", {}).items():
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
        spec = table[name]
        where = f"sections.{name}"
        bundle = self.bundle(_ref(spec, "bundle", where))
        entries = {}
        for g, v in spec.get("entries", {}).items():
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
        spec = table[name]
        where = f"ideals.{name}"
        bundle = self.bundle(_ref(spec, "bundle", where))
        if "invariant_family" in spec:
            from .envelope import block_decomposition
            from .ideals import ideal_from_invariant_family
            frames = {}
            for x in bundle.groupoid.objects:
                sel = spec["invariant_family"].get(x, [])
                u = bundle.groupoid.unit[x]
                blocks = block_decomposition(bundle.unit_rep[x], self.tols) \
                    if bundle.dims[u] else []
                bad = [b for b in sel if not (0 <= int(b) < len(blocks))]
                if bad:
                    raise WorkspaceError(f"{where}.invariant_family.{x}: "
                                         f"block indices {bad} out of range")
                from .ideals import _block_support_frame
                frames[x] = _block_support_frame(bundle, x,
                                                 [blocks[int(b)] for b in sel], self.tols)
            return ideal_from_invariant_family(InvariantFamily(bundle, frames), self.tols)
        vectors = {g: [parse_vector(v, f"{where}.fibers.{g}") for v in vs]
                   for g, vs in spec.get("fibers", {}).items()}
        return FellIdeal.from_spanning(bundle, vectors, self.tols.rank_threshold)

    def rep(self, name: str) -> FellRep:
        table = self._table("reps")
        if name not in table:
            raise WorkspaceError(f"rep {name!r} not found")
        spec = table[name]
        where = f"reps.{name}"
        bundle = self.bundle(_ref(spec, "bundle", where))
        dims = {x: int(spec.get("dims", {}).get(x, 0)) for x in bundle.groupoid.objects}
        maps = {}
        for g in bundle.groupoid.arrows:
            raw = spec.get("maps", {}).get(g)
            shape = (dims[bundle.groupoid.rng[g]], dims[bundle.groupoid.src[g]],
                     bundle.dims[g])
            if raw is None:
                maps[g] = np.zeros(shape, dtype=np.complex128)
                continue
            arr = np.array([[[parse_complex(z, f"{where}.maps.{g}") for z in col]
                             for col in row] for row in raw], dtype=np.complex128)
            if arr.shape != shape:
                raise WorkspaceError(f"{where}.maps.{g}: shape {arr.shape}, want {shape}")
            maps[g] = arr
        return FellRep(bundle, dims, maps)

    def set_action(self, name: str) -> PartialActionOnSet:
        table = self._table("set_actions")
        if name not in table:
            raise WorkspaceError(f"set action {name!r} not found")
        spec = table[name]
        where = f"set_actions.{name}"
        G = self.groupoid(_ref(spec, "groupoid", where))
        act = {}
        for entry in spec.get("act", []):
            try:
                g, y, x = entry
            except (TypeError, ValueError):
                raise WorkspaceError(f"{where}.act: entries are [g, y, g.y]")
            act[(g, y)] = x
        return PartialActionOnSet(G, tuple(spec.get("points", [])),
                                  dict(spec.get("anchor", {})), act)

    def trafo_instance(self, name: str):
        table = self._table("trafo")
        if name not in table:
            raise WorkspaceError(f"trafo comparison {name!r} not found")
        spec = table[name]
        where = f"trafo.{name}"
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
