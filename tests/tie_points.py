"""Tie-heavy test points, built the way the benchmark's pointmap workload
builds its points file."""

import math
import random

from ponomap import SequencePack
from ponomap.gauge import TauSpec, finite_measure_sequence
from reference_words import VertexWord, center

LOG_TAU = {"family": "log", "shift": math.e}


def log_pack(n: int, K: int = 40) -> SequencePack:
    """Theorem-1 pack of the log gauge tau(t) = log(e + 1/t)."""
    return SequencePack.from_standard(
        n, finite_measure_sequence(TauSpec.from_dict(LOG_TAU), n, K))


def tie_heavy_points(seed: int, per_kind: int, pack: SequencePack) -> list[tuple[float, ...]]:
    """Points of five kinds, ``per_kind`` of each: uniform interior points,
    boundary-face points, points tied on one coordinate with a centre at
    depths 1-12 (a shared face of two children, so the ``> 0.0`` rule
    decides), cell centres at every depth and points inside depth-K core
    cubes."""
    rng = random.Random(seed)
    n, K, r = pack.n, pack.K, pack.r

    def word(depth):
        return VertexWord(n, tuple(tuple(rng.choice((-1, 1)) for _ in range(n))
                                   for _ in range(depth)))

    pts = []
    for _ in range(per_kind):
        pts.append(tuple(rng.uniform(-1.0, 1.0) for _ in range(n)))
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x[rng.randrange(n)] = rng.choice((-1.0, 1.0))
        pts.append(tuple(x))
        d = rng.randint(1, min(12, K))
        z = center(word(d - 1), pack)
        x = [z[i] + 0.999 * r[d - 1] * rng.uniform(-1.0, 1.0) for i in range(n)]
        j = rng.randrange(n)
        x[j] = z[j]
        pts.append(tuple(x))
        pts.append(center(word(rng.randint(1, K)), pack))
        pts += core_points(pack, "domain", 1, rng)
    return pts


def inner_face_points(pack, side, count, rng, deepest=12):
    """Points at sup distance r_k (rt_k on the target side) from a depth-k
    centre, k in 1..deepest, where ``m > r_k`` decides between the annulus
    and descending.  The distance is exact where the centre and the radius
    are dyadic and fit in 53 bits together."""
    n, radii = pack.n, pack.r if side == "domain" else pack.rt
    pts = []
    for _ in range(count):
        k = rng.randint(1, deepest)
        z = center(VertexWord(n, tuple(tuple(rng.choice((-1, 1)) for _ in range(n))
                                       for _ in range(k))), pack, side)
        u = [radii[k] * rng.uniform(-0.9, 0.9) for _ in range(n)]
        u[rng.randrange(n)] = rng.choice((-1.0, 1.0)) * radii[k]
        pts.append(tuple(z[i] + u[i] for i in range(n)))
    return pts


def core_points(pack, side, count, rng):
    """Points within 0.9 r_K of a depth-K centre (rt_K on the target side),
    inside a core cube of that side."""
    n, K = pack.n, pack.K
    radius = (pack.r if side == "domain" else pack.rt)[K]
    pts = []
    for _ in range(count):
        z = center(VertexWord(n, tuple(tuple(rng.choice((-1, 1)) for _ in range(n))
                                       for _ in range(K))), pack, side)
        pts.append(tuple(z[i] + 0.9 * radius * rng.uniform(-1.0, 1.0) for i in range(n)))
    return pts
