"""Workload definitions: seeded input generation and the CLI command passes.

A workload is a list of CLI invocations (one pass) plus the config and
points files they read.  Everything is generated from one integer seed, so
the same seed gives byte-identical inputs.  ``tiny`` builds the same
workload at a size that runs in well under a second; the benchmark uses the
tiny size as its fixed reference pass and its own test uses it throughout.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("pointmap", "certify", "norms")

# The README's example config (iterated_log, theorem 1) is not used: it exits
# 4 with "nesting fails on domain side at depth 1" at every depth.
LOG_TAU = {"family": "log", "shift": math.e}

TINY_VERIFY = {
    "boundary_points": 100, "face_points": 10, "face_depth": 6,
    "roundtrip_points": 200, "jacobian_points": 200, "fd_points": 30,
    "injectivity_pairs": 300, "mc_samples": 50_000, "depth_cap": 6,
}

# share of each kind of point in the pointmap points file
POINT_MIX = (("uniform", 0.4), ("boundary", 0.1), ("face", 0.2),
             ("centre", 0.1), ("core", 0.2))
FACE_DEPTHS = range(1, 13)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def domain_scales(tau: dict, n: int, depth: int) -> tuple[float, ...]:
    """Domain half-edges r_k = 2^-k a_k for a theorem-1 config."""
    from ponomap.gauge import TauSpec, finite_measure_sequence

    a = finite_measure_sequence(TauSpec.from_dict(tau), n, depth)
    return tuple(math.ldexp(a[k], -k) for k in range(depth + 1))


def _centre(r: tuple[float, ...], word: list[tuple[int, ...]], n: int) -> list[float]:
    # same accumulation order as the hierarchy descent, so the centre is
    # bit-identical to the one the program computes
    z = [0.0] * n
    for k, v in enumerate(word, start=1):
        half = 0.5 * r[k - 1]
        for i in range(n):
            z[i] += half * v[i]
    return z


def _word(rng: random.Random, n: int, depth: int) -> list[tuple[int, ...]]:
    return [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(depth)]


def make_points(rng: random.Random, count: int, n: int,
                r: tuple[float, ...]) -> list[tuple[float, ...]]:
    """Mixed points file: uniform interior points, boundary-face points,
    points on shared faces at depths 1-12 (exercising the ``> 0.0`` tie
    rule), cell centres, and points inside depth-K core cubes."""
    K = len(r) - 1
    pts: list[tuple[float, ...]] = []
    for kind, share in POINT_MIX:
        for _ in range(int(round(share * count))):
            if kind == "uniform":
                x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            elif kind == "boundary":
                x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
                x[rng.randrange(n)] = rng.choice((-1.0, 1.0))
            elif kind == "face":
                d = rng.choice(FACE_DEPTHS)
                z = _centre(r, _word(rng, n, d - 1), n)
                # inside the parent's inner cube, tied on one coordinate
                x = [z[i] + 0.999 * r[d - 1] * rng.uniform(-1.0, 1.0)
                     for i in range(n)]
                j = rng.randrange(n)
                x[j] = z[j]
            elif kind == "centre":
                x = _centre(r, _word(rng, n, rng.randint(1, K)), n)
            else:
                z = _centre(r, _word(rng, n, K), n)
                x = [z[i] + 0.9 * r[K] * rng.uniform(-1.0, 1.0) for i in range(n)]
            pts.append(tuple(x))
    rng.shuffle(pts)
    return pts


def write_points(path: Path, pts) -> Path:
    path.write_text("".join(",".join(repr(c) for c in p) + "\n" for p in pts))
    return path


def build(name: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the inputs of one workload under ``work`` and return its plan.

    The plan lists the config files (whose set-up the benchmark times), one
    pass of CLI invocations, and what the output checks need to know.
    """
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    cmds: list[dict] = []
    configs: list[str] = []

    def command(label: str, argv: list[str], **info) -> None:
        out = work / f"out-{label}"
        cmds.append({"label": label, "argv": argv + ["--out", str(out)],
                     "out": str(out), **info})

    if name == "pointmap":
        depth, res, count = 40, (17 if tiny else 129), (400 if tiny else 20_000)
        cfg = _write_json(work / "pointmap.json", {
            "gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1, "depth": depth,
            "seed": seed, "resolution": res})
        configs.append(str(cfg))
        r = domain_scales(LOG_TAU, 2, depth)
        pts = write_points(work / "points.csv", make_points(rng, count, 2, r))
        command("eval", ["eval", "--config", str(cfg), "--points", str(pts)],
                rows=count, n=2, r_K=r[depth], depth=depth)
        command("render", ["render", "--config", str(cfg)], resolution=res)
    elif name == "certify":
        depth = 12 if tiny else 40
        vcfg = {"gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1, "depth": depth,
                "seed": seed}
        if tiny:
            vcfg["verify"] = TINY_VERIFY
        vpath = _write_json(work / "verify.json", vcfg)
        hpath = _write_json(work / "hausdorff.json", {
            "gauge": {"n": 3, "tau": LOG_TAU}, "theorem": 1, "depth": depth,
            "seed": seed,
            "hausdorff": {"depths": [0, 1, 2, 4, 8],
                          "probe_depth": 2 if tiny else 3,
                          "probe_level": 4 if tiny else 5,
                          "random_covers": 1}})
        configs += [str(vpath), str(hpath)]
        command("verify", ["verify", "--config", str(vpath)])
        command("hausdorff", ["hausdorff", "--config", str(hpath)])
    elif name == "norms":
        depth, count = (12, 32) if tiny else (40, 1024)
        # the seed moves the eps grid, not the gauges, so the work per seed
        # stays the same
        lo = 1e-6 * (1.0 + rng.random())
        gauges = [
            ("log", {"n": 2, "tau": LOG_TAU}, 1),
            ("log_power", {"n": 2, "tau": {"family": "log_power", "exponent": 2.0,
                                           "shift": math.e}}, 1),
            ("exp_inverse", {"n": 2, "raw": {"family": "exp_inverse", "scale": 1.0}}, 2),
        ]
        for gname, gauge, theorem in gauges:
            path = _write_json(work / f"norms-{gname}.json", {
                "gauge": gauge, "theorem": theorem, "depth": depth, "seed": seed,
                "eps_grid": f"{lo!r}:1:{count}"})
            configs.append(str(path))
            command(f"sequence-{gname}", ["sequence", "--config", str(path)],
                    depth=depth)
            command(f"norms-{gname}", ["norms", "--config", str(path)],
                    eps_count=count)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, "tiny": tiny, "configs": configs,
            "commands": cmds}
