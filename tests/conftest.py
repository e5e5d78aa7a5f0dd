import json
import os

import pytest

from fellbund import gallery
from fellbund.groupoid import transformation_groupoid
from fellbund.workspace import Workspace

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def groupoid_json(G):
    return {
        "objects": list(G.objects),
        "arrows": [{"id": g, "src": G.src[g], "rng": G.rng[g]} for g in G.arrows],
        "units": dict(G.unit),
        "inv": dict(G.inv),
        "comp": [[g, h, k] for (g, h), k in G.comp.items()],
    }


def demo_workspace_dict():
    z2 = gallery.cyclic_group(2)
    k4 = gallery.klein_four()
    act = gallery.swap_fix_action()
    H, arrow_dict = transformation_groupoid(act)
    act2 = gallery.swap_action_on_two_points()
    H2, _ = transformation_groupoid(act2)
    return {
        "config": {"tolerance": 1e-9, "rank_threshold": 1e-10, "seed": 0},
        "groupoids": {
            "z2": groupoid_json(z2),
            "klein4": groupoid_json(k4),
            "z2xX": groupoid_json(H),
            "z2xPQ": groupoid_json(H2),
        },
        "bundles": {
            "z2-line": {"groupoid": "z2", "model": "matrix",
                        "fibers": {g: [[[1.0]]] for g in z2.arrows}},
            "a4": {"groupoid": "z2xX", "model": "matrix",
                   "fibers": {g: [[[1.0]]] for g in H.arrows}},
            "pq-line": {"groupoid": "z2xPQ", "model": "matrix",
                        "fibers": {g: [[[1.0]]] for g in H2.arrows}},
        },
        "actions": {
            "swap-c2": {
                "groupoid": "z2",
                "fibers": {"pt": {"n": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]],
                                                    [[0.0, 0.0], [0.0, 1.0]]]}},
                "ideals": {"e": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                           "g1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
                "alpha": {"e": [[1.0, 0.0], [0.0, 1.0]], "g1": [[0.0, 1.0], [1.0, 0.0]]},
            },
            "klein-twisted": {
                "groupoid": "klein4",
                "fibers": {"pt": {"n": 1, "basis": [[[1.0]]]}},
                "ideals": {g: [[[1.0]]] for g in k4.arrows},
                "alpha": {g: [[1.0]] for g in k4.arrows},
                "w": {f"{g},{h}": gallery.klein_cocycle(g, h).real
                      for g in k4.arrows for h in k4.arrows},
            },
        },
        "sections": {
            "f": {"bundle": "z2-line", "entries": {"e": [1.0], "g1": [[0.0, 1.0]]}},
            "e-plus-g": {"bundle": "z2-line", "entries": {"e": [1.0], "g1": [1.0]}},
        },
        "ideals": {
            "a4-pq": {"bundle": "a4",
                      "fibers": {g: [[1.0]] for g in H.arrows
                                 if set(arrow_dict[g][::2]) <= {"p", "q"}}},
            "a4-pq-by-blocks": {"bundle": "a4",
                                "invariant_family": {"p": [0], "q": [0]}},
        },
        "reps": {
            "sign": {"bundle": "z2-line", "dims": {"pt": 1},
                     "maps": {"e": [[[1.0]]], "g1": [[[-1.0]]]}},
        },
        "set_actions": {
            "swap-pq": {"groupoid": "z2", "points": ["p", "q"],
                        "anchor": {"p": "pt", "q": "pt"},
                        "act": [["e", "p", "p"], ["e", "q", "q"],
                                ["g1", "p", "q"], ["g1", "q", "p"]]},
        },
        "trafo": {
            "pq-compare": {"action": "swap-pq", "bundle": "pq-line"},
        },
    }


@pytest.fixture(scope="session")
def demo_workspace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "demo.json"
    path.write_text(json.dumps(demo_workspace_dict(), indent=2, sort_keys=True))
    return str(path)


@pytest.fixture(scope="session")
def certify_raw():
    """A copy of the benchmark's seeded certify workspace (seed 1), kept as
    data so that these tests do not follow changes to its generator: six
    line bundles over pair(n) and Z/n and M_3 over pair(3)."""
    with open(os.path.join(DATA, "certify_seed1.json")) as fh:
        return json.load(fh)


@pytest.fixture
def certify_bundles(certify_raw):
    ws = Workspace.from_dict(certify_raw)
    return {name: ws.bundle(name) for name in ws.names("bundles")}


@pytest.fixture
def certify_bundles_by_seed():
    """The certify workspace's bundles for seeds 1 and 4, by (seed, name),
    from the copies kept as data."""
    out = {}
    for seed in (1, 4):
        with open(os.path.join(DATA, f"certify_seed{seed}.json")) as fh:
            ws = Workspace.from_dict(json.load(fh))
        out.update({(seed, name): ws.bundle(name) for name in ws.names("bundles")})
    return out
