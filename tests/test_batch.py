"""The batch paths against their scalar twins.

Row by row, ``descend_batch``, ``eval_batch`` and ``eval_inverse_batch``
must give what ``descend``, ``eval`` and ``eval_inverse`` give, compared by
``repr`` so that signed zeros and the last ulp count.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponomap import DomainError, VertexWord, build, center
from ponomap.cantor import descend, descend_batch
from tie_points import log_pack, tie_heavy_points


def inner_face_points(pack, side, count, rng):
    """Points at sup distance r_k (rt_k on the target side) from a depth-k
    centre, where ``m > r_k`` decides between the annulus and descending."""
    n, radii = pack.n, pack.r if side == "domain" else pack.rt
    pts = []
    for _ in range(count):
        k = rng.randint(1, 12)
        z = center(VertexWord(n, tuple(tuple(rng.choice((-1, 1)) for _ in range(n))
                                       for _ in range(k))), pack, side)
        u = [radii[k] * rng.uniform(-0.9, 0.9) for _ in range(n)]
        u[rng.randrange(n)] = rng.choice((-1.0, 1.0)) * radii[k]
        pts.append(tuple(z[i] + u[i] for i in range(n)))
    return pts


@functools.lru_cache(maxsize=None)
def case(n: int):
    """The K = 40 log map, special points of each side and the images of
    the domain ones.

    The points are tie-heavy ones (uniform, boundary faces, ties on shared
    faces, cell centres, depth-K cores), points on inner faces and points
    whose coordinates are all +-1 or +-0.0; the images lie on the target
    faces, centres and cores."""
    pmap = build(log_pack(n, 40))
    rng = random.Random(n)
    pts = tie_heavy_points(n, 30, pmap.pack) + inner_face_points(pmap.pack, "domain", 60, rng)
    pts += [tuple(rng.choice((-1.0, -0.0, 0.0, 1.0)) for _ in range(n)) for _ in range(40)]
    images = [pmap.eval(x) for x in pts] + inner_face_points(pmap.pack, "target", 60, rng)
    return pmap, pts, images


def batch_rows(d):
    """Each row of a BatchDescent as (region, depth, z, zt, m, x)."""
    return [("core" if c else "annulus", k, tuple(z), tuple(zt), m, tuple(x))
            for c, k, z, zt, m, x in zip(d.core.tolist(), d.depth.tolist(), d.z.tolist(),
                                         d.zt.tolist(), d.m.tolist(), d.x.tolist())]


def scalar_rows(pts, pack, side):
    return [(d.region, d.depth, d.z, d.zt, d.m, d.x)
            for d in (descend(x, pack, pack.K, side) for x in pts)]


def assert_batch_matches_scalar(pmap, xs, ys):
    pack = pmap.pack
    for side, pts in (("domain", xs), ("target", ys)):
        got = batch_rows(descend_batch(np.array(pts), pack, side))
        assert repr(got) == repr(scalar_rows(pts, pack, side)), side
    loc = descend_batch(np.array(xs), pack)
    expect = repr([list(pmap.eval(x)) for x in xs])
    assert repr(pmap.eval_batch(np.array(xs)).tolist()) == expect
    assert repr(pmap.eval_batch(loc.x, loc).tolist()) == expect
    assert (repr(pmap.eval_inverse_batch(np.array(ys)).tolist())
            == repr([list(pmap.eval_inverse(y)) for y in ys]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_matches_scalar_on_special_points(n):
    pmap, xs, ys = case(n)
    # points of the domain are points of the target cube as well
    assert_batch_matches_scalar(pmap, xs, ys + xs)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_batch_matches_scalar_property(n, data):
    pmap, specials, images = case(n)
    coord = st.floats(-1.0, 1.0)
    point = st.one_of(st.tuples(*[coord] * n), st.sampled_from(specials),
                      st.sampled_from(images))
    xs = data.draw(st.lists(point, min_size=1, max_size=40))
    assert_batch_matches_scalar(pmap, xs, xs + [pmap.eval(x) for x in xs])


def test_batch_of_no_points():
    pmap, _, _ = case(2)
    d = descend_batch(np.empty((0, 2)), pmap.pack)
    assert d.depth.shape == d.m.shape == (0,) and d.z.shape == (0, 2)
    assert pmap.eval_batch(np.empty((0, 2))).shape == (0, 2)
    assert pmap.eval_inverse_batch(np.empty((0, 2))).shape == (0, 2)


def test_batch_rejects_points_outside_the_cube():
    pmap, _, _ = case(2)
    with pytest.raises(DomainError, match=r"point \(nan, 0\.5\) outside"):
        descend_batch(np.array([[0.1, 0.2], [np.nan, 0.5], [2.0, 0.0]]), pmap.pack)
    with pytest.raises(DomainError, match="outside"):
        pmap.eval_inverse_batch(np.array([[1.0000000000000002, 0.0]]))
    with pytest.raises(DomainError, match="expected an"):
        descend_batch(np.zeros((3, 3)), pmap.pack)
