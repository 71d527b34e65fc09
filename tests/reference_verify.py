"""The scalar sampling loops of ``verify._check_map`` and
``verify._check_jacobian``, one map call per sample, kept as the oracle of
the batched loops: the same ``rng`` draws in the same order must give the
same checks."""

import math

import numpy as np

from ponomap.cantor import center
from ponomap.errors import PonomapError, RidgeSetError
from ponomap.mapping import PonomarevMap, build
from ponomap.verify import (
    ULP1,
    VerifyScale,
    _annulus_point,
    _gradient_bound,
    _random_word,
    _sup,
    _Suite,
)


def reference_check_map(s: _Suite, pmap: PonomarevMap, rng, scale: VerifyScale):
    pack = pmap.pack
    n = pack.n

    worst = 0.0
    for _ in range(scale.boundary_points):
        x = [float(rng.uniform(-1.0, 1.0)) for _ in range(n)]
        i = int(rng.integers(n))
        x[i] = 1.0 if rng.uniform() > 0.5 else -1.0
        worst = max(worst, _sup(pmap.eval(tuple(x)), x) / ULP1)
    s.add_le("map.boundary_identity_ulps", worst, 8.0)

    worst = 0.0
    for depth in range(1, min(scale.face_depth, pack.K - 1) + 1):
        cond = max(1.0, _gradient_bound(pack, depth),
                   _gradient_bound(pack, min(depth + 1, pack.K)))
        for _ in range(scale.face_points):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            j = int(rng.integers(n))
            direction = [float(rng.uniform(-0.7, 0.7)) for _ in range(n)]
            direction[j] = 1.0
            for radius in (pack.r[depth], pack.r[depth - 1] / 2.0):
                lo = tuple(z[i] + radius * (1.0 - 4e-16) * direction[i] for i in range(n))
                hi = tuple(z[i] + radius * (1.0 + 4e-16) * direction[i] for i in range(n))
                try:
                    err = _sup(pmap.eval(lo), pmap.eval(hi))
                except PonomapError:
                    continue
                worst = max(worst, err / (ULP1 * cond))
    s.add_le("map.face_continuity_ulps", worst, 8.0)

    worst = 0.0
    for depth in range(1, min(6, pack.K) + 1):
        # the noise floor is one coordinate ulp amplified by the core scale
        cond = max(1.0, pack.b[depth] / pack.a[depth])
        for _ in range(20):
            w = _random_word(rng, n, depth)
            got = pmap.eval(center(w, depth, pack, "domain"))
            err = _sup(got, center(w, depth, pack, "target"))
            worst = max(worst, err / (ULP1 * cond))
    s.add_le("map.center_invariance_ulps", worst, 8.0)

    worst = 0.0
    for depth in range(1, min(6, pack.K) + 1):
        cond = max(1.0, _gradient_bound(pack, depth))
        for _ in range(20):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            zt = center(w, depth, pack, "target")
            j = int(rng.integers(n))
            direction = [float(rng.uniform(-1.0, 1.0)) for _ in range(n)]
            direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
            x = tuple(z[i] + pack.r[depth] * direction[i] for i in range(n))
            y = pmap.eval(x)
            dist = max(abs(y[i] - zt[i]) for i in range(n))
            worst = max(worst, abs(dist - pack.rt[depth]) / (ULP1 * cond))
    s.add_le("map.cube_onto_cube_ulps", worst, 8.0)

    bad_rays = 0
    for depth in (1, min(3, pack.K), min(6, pack.K)):
        for _ in range(10):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            zt = center(w, depth, pack, "target")
            direction = [float(rng.uniform(-0.6, 0.6)) for _ in range(n)]
            direction[0] = 1.0
            radii = np.linspace(pack.r[depth] * 1.01,
                                pack.r[depth - 1] / 2.0 * 0.99, 12)
            prev = -math.inf
            for radius in radii:
                x = tuple(z[i] + radius * direction[i] for i in range(n))
                img = max(abs(a - b) for a, b in zip(pmap.eval(x), zt))
                if img <= prev:
                    bad_rays += 1
                    break
                prev = img
    s.add("map.monotone_radial_failures", bad_rays, 0.0, bad_rays == 0)

    worst_ann = 0.0
    worst_core = 0.0
    for _ in range(scale.roundtrip_points):
        x = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
        y = pmap.eval(x)
        err = _sup(pmap.eval(pmap.eval_inverse(y)), y)
        loc = pmap.locate(y)
        if loc.region == "core":
            worst_core = max(worst_core, err)
        else:
            cond = max(1.0, _gradient_bound(pack, loc.depth))
            worst_ann = max(worst_ann, err / cond)
    s.add_le("map.inverse_roundtrip_annulus_ulps", worst_ann / ULP1, 8.0)
    s.add_le("map.inverse_roundtrip_core", worst_core,
             max(2.0 * pmap.truncation_error, 8.0 * ULP1))

    worst_ratio = 0.0
    for kp in sorted({max(1, pack.K // 4), max(1, pack.K // 2)}):
        shallow = build(pack.truncate(kp))
        for _ in range(100):
            x = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
            worst_ratio = max(worst_ratio, _sup(pmap.eval(x), shallow.eval(x))
                              / shallow.truncation_error)
    s.add_le("map.truncation_ratio", worst_ratio, 1.0)

    collisions = 0
    for _ in range(scale.injectivity_pairs):
        x1 = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
        x2 = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
        if x1 != x2 and pmap.eval(x1) == pmap.eval(x2):
            collisions += 1
    s.add("map.injectivity_collisions", collisions, 0.0, collisions == 0)


def reference_check_jacobian(s: _Suite, pmap: PonomarevMap, rng, scale: VerifyScale):
    pack = pmap.pack
    n = pack.n
    min_det = math.inf
    for _ in range(scale.jacobian_points):
        x = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(n))
        try:
            min_det = min(min_det, pmap.jacobian_det(x))
        except RidgeSetError:
            continue
    s.add("jacobian.min_det", min_det, 0.0, min_det > 0.0)

    worst = 0.0
    for _ in range(scale.fd_points):
        depth = int(rng.integers(1, min(7, pack.K) + 1))
        w = _random_word(rng, n, depth)
        x = _annulus_point(pack, w, depth, rng, band=(0.3, 0.7))
        loc = pmap.locate(x)
        mat = pmap.derivative(x, loc)
        m = loc.m
        # the step must stay representable against coordinates of order one
        h = max(1e-7 * m, 64.0 * ULP1)
        fd = np.zeros((n, n))
        for l in range(n):
            xp = list(x)
            xm = list(x)
            xp[l] += h
            xm[l] -= h
            delta = xp[l] - xm[l]
            fp = pmap.eval(tuple(xp))
            fm = pmap.eval(tuple(xm))
            for i in range(n):
                fd[i, l] = (fp[i] - fm[i]) / delta
        ref = float(np.max(np.abs(mat)))
        worst = max(worst, float(np.max(np.abs(fd - mat))) / ref)
    s.add_le("jacobian.fd_relative_error", worst, 1e-6)

    worst = 0.0
    for _ in range(scale.fd_points):
        depth = int(rng.integers(1, min(10, pack.K) + 1))
        w = _random_word(rng, n, depth)
        x = _annulus_point(pack, w, depth, rng)
        loc = pmap.locate(x)
        mat = pmap.derivative(x, loc)
        closed = pmap.jacobian_det(x, loc)
        rel = abs(float(np.linalg.det(mat)) - closed) / closed
        # cancellation in the active column scales with |Df| / alpha
        m = loc.m
        k = loc.depth
        cond = (pack.alpha[k] + pack.beta[k] / m) / pack.alpha[k]
        tol = max(1e-12, 32.0 * ULP1 * cond)
        worst = max(worst, rel / tol)
    s.add("jacobian.det_identity_rel", worst, 1.0, worst <= 1.0,
          note="relative to conditioning-aware tolerance")
