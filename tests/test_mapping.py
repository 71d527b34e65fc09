import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponomap import (
    ConstructionError,
    DomainError,
    RidgeSetError,
    SequencePack,
    VertexWord,
    all_words,
    build,
    center,
    geometric_sequence,
    harmonic_sequence,
)

from ponomap.cantor import descend
from ponomap.mapping import libm_pow
from ponomap.verify import _gradient_bound
from tie_points import log_pack, tie_heavy_points

ULP1 = math.ulp(1.0)


def std_map(K=14, n=2):
    return build(SequencePack.from_standard(n, harmonic_sequence(K)))


def sample_boundary(rng, n, count):
    pts = []
    for _ in range(count):
        x = rng.uniform(-1.0, 1.0, size=n)
        i = rng.integers(n)
        x[i] = 1.0 if rng.uniform() > 0.5 else -1.0
        pts.append(tuple(x))
    return pts


def annulus_point(pack, word, rng, band=(0.1, 0.9), ridge_margin=0.2):
    """Random point in the annulus of `word`, clear of faces and ridge."""
    k = word.depth
    z = center(word, pack)
    lo, hi = pack.r[k], pack.r[k - 1] / 2.0
    radius = lo + (hi - lo) * rng.uniform(*band)
    j = rng.integers(pack.n)
    direction = rng.uniform(-(1.0 - ridge_margin), 1.0 - ridge_margin, size=pack.n)
    direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
    return tuple(z[i] + radius * direction[i] for i in range(pack.n)), radius, j


def test_build_standard_coefficients():
    m = std_map()
    assert (m.pack.alpha[1], m.pack.beta[1]) == (0.5, 0.25)
    assert m.pack.beta[3] == 2.0 ** -4
    assert m.truncation_error == 2.0 * math.sqrt(2) * m.pack.rt[m.pack.K]


def test_build_rejects_tampered_pack():
    pack = SequencePack.from_standard(2, harmonic_sequence(6))
    beta = list(pack.beta)
    beta[2] *= 1.0 + 1e-3
    object.__setattr__(pack, "beta", tuple(beta))
    with pytest.raises(ConstructionError):
        build(pack)


def test_identity_pack_is_identity():
    a = geometric_sequence(10)
    m = build(SequencePack.from_scales(2, a, a))
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = tuple(rng.uniform(-1.0, 1.0, size=2))
        y = m.eval(x)
        assert max(abs(a - b) for a, b in zip(x, y)) <= 4 * ULP1
        assert m.jacobian_det(x) == pytest.approx(1.0, abs=1e-15)


def test_boundary_identity_exact():
    m = std_map()
    rng = np.random.default_rng(11)
    for x in sample_boundary(rng, 2, 1000):
        y = m.eval(x)
        assert max(abs(a - b) for a, b in zip(x, y)) <= 8 * ULP1


def test_origin_fixed():
    m = std_map()
    assert m.eval((0.0, 0.0)) == (0.0, 0.0)
    assert m.eval_inverse((0.0, 0.0)) == (0.0, 0.0)


def test_centers_map_to_target_centers():
    m = std_map(K=8)
    pack = m.pack
    for depth in range(1, 7):
        for w in all_words(2, depth):
            z = center(w, pack, "domain")
            zt = center(w, pack, "target")
            y = m.eval(z)
            assert max(abs(a - b) for a, b in zip(y, zt)) <= 8 * ULP1


def test_inner_face_maps_to_target_inner_face():
    m = std_map(K=10)
    pack = m.pack
    rng = np.random.default_rng(2)
    words = list(all_words(2, 3)) + list(all_words(2, 5))
    for _ in range(100):
        w = words[rng.integers(len(words))]
        k = w.depth
        z = center(w, pack, "domain")
        zt = center(w, pack, "target")
        j = rng.integers(2)
        direction = [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
        direction[j] = 1.0
        x = tuple(z[i] + pack.r[k] * direction[i] for i in range(2))
        y = m.eval(x)
        dist = max(abs(y[i] - zt[i]) for i in range(2))
        assert abs(dist - pack.rt[k]) <= 8 * ULP1


def test_inverse_on_boundary_and_centers():
    m = std_map(K=8)
    pack = m.pack
    rng = np.random.default_rng(13)
    for y in sample_boundary(rng, 2, 200):
        x = m.eval_inverse(y)
        assert max(abs(a - b) for a, b in zip(x, y)) <= 8 * ULP1
    for w in all_words(2, 4):
        zt = center(w, pack, "target")
        x = m.eval_inverse(zt)
        z = center(w, pack, "domain")
        assert max(abs(a - b) for a, b in zip(x, z)) <= 8 * ULP1


def test_inverse_round_trip_contract():
    m = std_map(K=20)
    rng = np.random.default_rng(20260810)
    worst_annulus = 0.0
    worst_core = 0.0
    for _ in range(10_000):
        x = tuple(rng.uniform(-1.0, 1.0, size=2))
        y = m.eval(x)
        back = m.eval(m.eval_inverse(y))
        err = max(abs(a - b) for a, b in zip(back, y))
        if m.locate(y).region == "core":
            worst_core = max(worst_core, err)
        else:
            worst_annulus = max(worst_annulus, err)
    assert worst_annulus <= 8 * ULP1
    assert worst_core <= 2.0 * m.truncation_error


@functools.cache
def round_trip_case(n, K):
    """The log-gauge map and the tie-heavy points of the round-trip property:
    domain faces, centres and cores, plus their images, which lie on the
    target faces, centres and cores."""
    pmap = build(log_pack(n, K))
    pts = tie_heavy_points(n, 40, pmap.pack)
    return pmap, pts + [pmap.eval(x) for x in pts]


@pytest.mark.parametrize("n, K", [(2, 40), (3, 20)])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_round_trip_property(n, K, data):
    # each error is held to the bound of the target-side cell of y, the
    # cell eval_inverse reads
    pmap, ties = round_trip_case(n, K)
    coord = st.floats(-1.0, 1.0)
    y = data.draw(st.one_of(st.tuples(*[coord] * n), st.sampled_from(ties)))
    err = max(abs(a - b) for a, b in zip(pmap.eval(pmap.eval_inverse(y)), y))
    cell = descend(y, pmap.pack, "target")
    if cell.region == "core":
        assert err <= 2.0 * pmap.truncation_error
    else:
        assert err <= 8 * ULP1 * _gradient_bound(pmap.pack, cell.depth)


def test_gluing_continuity_across_faces():
    # approach every inner and outer face from both sides at depths 1..12
    m = std_map(K=14)
    pack = m.pack
    rng = np.random.default_rng(4)
    for depth in range(1, 13):
        for _ in range(40):
            signs = tuple(
                tuple(1 if rng.uniform() > 0.5 else -1 for _ in range(2))
                for _ in range(depth)
            )
            w = VertexWord(2, signs)
            z = center(w, pack)
            j = rng.integers(2)
            direction = [rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)]
            direction[j] = 1.0
            for radius in (pack.r[depth], pack.r[depth - 1] / 2.0):
                lo = tuple(z[i] + (radius * (1.0 - 4e-16)) * direction[i] for i in range(2))
                hi = tuple(z[i] + (radius * (1.0 + 4e-16)) * direction[i] for i in range(2))
                try:
                    ylo, yhi = m.eval(lo), m.eval(hi)
                except DomainError:
                    continue  # outer face of the root-level cubes can poke out
                assert max(abs(a - b) for a, b in zip(ylo, yhi)) <= 8 * ULP1


def test_monotone_radial():
    m = std_map(K=10)
    pack = m.pack
    rng = np.random.default_rng(17)
    for depth in (1, 3, 6):
        for w in list(all_words(2, depth))[:8]:
            z = center(w, pack)
            zt = center(w, pack, "target")
            direction = [1.0, rng.uniform(-0.6, 0.6)]
            radii = np.linspace(pack.r[depth] * 1.01, pack.r[depth - 1] / 2.0 * 0.99, 20)
            images = []
            for radius in radii:
                x = tuple(z[i] + radius * direction[i] for i in range(2))
                y = m.eval(x)
                images.append(max(abs(y[i] - zt[i]) for i in range(2)))
            assert all(b > a for a, b in zip(images, images[1:]))


def test_cube_onto_cube_boundary():
    m = std_map(K=10)
    pack = m.pack
    rng = np.random.default_rng(8)
    for depth in (1, 2, 4, 7):
        for _ in range(50):
            signs = tuple(
                tuple(1 if rng.uniform() > 0.5 else -1 for _ in range(2))
                for _ in range(depth)
            )
            w = VertexWord(2, signs)
            z = center(w, pack)
            zt = center(w, pack, "target")
            j = rng.integers(2)
            direction = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
            direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
            x = tuple(z[i] + pack.r[depth] * direction[i] for i in range(2))
            y = m.eval(x)
            dist = max(abs(y[i] - zt[i]) for i in range(2))
            assert abs(dist - pack.rt[depth]) <= 8 * ULP1


def test_injectivity_probe():
    m = std_map(K=12)
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        x1 = tuple(rng.uniform(-1.0, 1.0, size=2))
        x2 = tuple(rng.uniform(-1.0, 1.0, size=2))
        if x1 == x2:
            continue
        assert m.eval(x1) != m.eval(x2)
    # distinct cubes map into distinct cubes: address-level check
    pack = m.pack
    for w1 in all_words(2, 2):
        for w2 in all_words(2, 2):
            if w1 == w2:
                continue
            z1 = m.eval(center(w1, pack))
            z2 = m.eval(center(w2, pack))
            d = max(abs(a - b) for a, b in zip(z1, z2))
            assert d >= 2.0 * pack.rt[2]


def test_truncation_cauchy():
    pack = SequencePack.from_standard(2, harmonic_sequence(20))
    deep = build(pack)
    rng = np.random.default_rng(31)
    pts = [tuple(rng.uniform(-1.0, 1.0, size=2)) for _ in range(400)]
    # bias some points toward the set of deep survivors
    for w in all_words(2, 2):
        pts.append(center(w, pack))
    for Kp in (5, 10, 15):
        shallow = build(pack.truncate(Kp))
        bound = 2.0 * math.sqrt(2) * pack.rt[Kp]
        for x in pts:
            a = deep.eval(x)
            b = shallow.eval(x)
            assert max(abs(u - v) for u, v in zip(a, b)) <= bound


def test_derivative_core_scaling():
    for K in (3, 7):
        m = std_map(K=K)
        pack = m.pack
        w = list(all_words(2, K))[3]
        x = center(w, pack)
        mat = m.derivative(x)
        loc = m.locate(x)
        assert loc.region == "core" and loc.depth == K
        expected = pack.b[K] / pack.a[K]
        assert np.allclose(mat, expected * np.eye(2), rtol=0, atol=1e-15)
        assert m.jacobian_det(x) == pytest.approx(expected ** 2, rel=1e-15)


def test_derivative_hand_matrix():
    m = std_map()
    x = (1.0, 0.625)  # word (+,+): u = (1/2, 1/8), m = 1/2, depth 1
    mat = m.derivative(x)
    loc = m.locate(x)
    assert loc.region == "annulus" and loc.depth == 1
    assert np.allclose(mat, np.array([[0.5, 0.0], [-0.125, 1.0]]), rtol=0, atol=1e-15)
    assert m.jacobian_det(x) == pytest.approx(0.5, rel=1e-14)


def fd_jacobian(m, x, depth, pack):
    """Central-difference Jacobian; step per the sampling depth."""
    mloc = m.locate(x)
    mm = mloc.m
    if depth <= 7:
        h = 1e-7 * mm
    else:
        # optimal central-difference step for the annulus curvature scale
        h = 0.5 * mm * (math.ulp(1.0) / pack.beta[depth]) ** (1.0 / 3.0)
    n = m.n
    out = np.zeros((n, n))
    for l in range(n):
        xp = list(x)
        xm = list(x)
        xp[l] += h
        xm[l] -= h
        fp = m.eval(tuple(xp))
        fm = m.eval(tuple(xm))
        for i in range(n):
            out[i, l] = (fp[i] - fm[i]) / (2.0 * h)
    return out


def test_derivative_matches_finite_differences():
    m = std_map(K=20)
    pack = m.pack
    rng = np.random.default_rng(6)
    checked = 0
    for depth in (1, 2, 4, 6, 8, 11, 14):
        words = [
            VertexWord(2, tuple(tuple(rng.choice((-1, 1)) for _ in range(2))
                                for _ in range(depth)))
            for _ in range(30)
        ]
        for w in words:
            x, radius, j = annulus_point(pack, w, rng, band=(0.3, 0.7))
            mat = m.derivative(x)
            loc = m.locate(x)
            assert loc.region == "annulus" and loc.depth == depth
            fd = fd_jacobian(m, x, depth, pack)
            scale = np.max(np.abs(mat))
            assert np.max(np.abs(fd - mat)) <= 1e-6 * scale
            checked += 1
    assert checked >= 200


def test_jacobian_closed_form_equals_matrix_det():
    m = std_map(K=16)
    pack = m.pack
    rng = np.random.default_rng(23)
    for _ in range(300):
        depth = int(rng.integers(1, 13))
        w = VertexWord(2, tuple(tuple(rng.choice((-1, 1)) for _ in range(2))
                                for _ in range(depth)))
        x, _, _ = annulus_point(pack, w, rng)
        mat = m.derivative(x)
        det = float(np.linalg.det(mat))
        closed = m.jacobian_det(x)
        assert abs(det - closed) <= 1e-12 * abs(closed)


def test_jacobian_positive_at_random_points():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        m = std_map(K=12, n=n)
        for _ in range(5_000):
            x = tuple(rng.uniform(-1.0, 1.0, size=n))
            try:
                assert m.jacobian_det(x) > 0.0
            except RidgeSetError:
                continue


def test_ridge_set_error():
    m = std_map()
    pack = m.pack
    z = center(VertexWord(2, ((1, 1),)), pack)
    radius = 0.5 * (pack.r[1] + pack.r[0] / 2.0)
    x = (z[0] + radius, z[1] + radius)  # both coordinates attain the sup norm
    with pytest.raises(RidgeSetError):
        m.derivative(x)
    with pytest.raises(RidgeSetError):
        m.jacobian_det(x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_located_point_gives_same_results(n):
    m = build(log_pack(n))
    for x in tie_heavy_points(n, 60, m.pack):
        loc = m.locate(x)
        assert m.eval(x, loc) == m.eval(x)
        try:
            det = m.jacobian_det(x)
        except RidgeSetError:
            with pytest.raises(RidgeSetError):
                m.jacobian_det(x, loc)
            with pytest.raises(RidgeSetError):
                m.derivative(x, loc)
            continue
        assert m.jacobian_det(x, loc) == det
        assert np.array_equal(m.derivative(x, loc), m.derivative(x))


def test_located_ridge_point_raises():
    m = std_map()
    z = center(VertexWord(2, ((1, 1),)), m.pack)
    radius = 0.5 * (m.pack.r[1] + m.pack.r[0] / 2.0)
    x = (z[0] + radius, z[1] + radius)
    loc = m.locate(x)
    with pytest.raises(RidgeSetError):
        m.derivative(x, loc)
    with pytest.raises(RidgeSetError):
        m.jacobian_det(x, loc)


def test_eval_domain_errors():
    m = std_map()
    with pytest.raises(DomainError):
        m.eval((1.2, 0.0))
    with pytest.raises(DomainError):
        m.eval_inverse((0.0, -1.5))
    with pytest.raises(DomainError):
        m.eval((0.0,))


def loop_pow(x, y, scalar=math.pow):
    """``scalar`` one element at a time: the reference for libm_pow."""
    ys = np.broadcast_to(y, np.shape(x)).ravel().tolist()
    return np.array([scalar(a, b) for a, b in zip(np.ravel(x).tolist(), ys)],
                    dtype=float).reshape(np.shape(x))


def outcome(f, *args):
    """The result's bits, or the error's type and text."""
    try:
        return f(*args).view(np.int64).tolist()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_libm_pow_matches_math_pow_bit_for_bit():
    # the norm table's shapes: bases over eleven decades against one power
    # per row, and the abserr ratios against a scalar 1.5
    rng = np.random.default_rng(15)
    x = 10.0 ** rng.uniform(-5.0, 6.0, size=(5000, 20))
    cases = [(x, rng.uniform(0.0, 2.0, size=(5000, 1))), (x, 1.5),
             (rng.uniform(0.0, 1.0, size=100_000), 1.5)]
    differ = 0
    for base, power in cases:
        expect = loop_pow(base, power)
        assert libm_pow(base, power).view(np.int64).tolist() == expect.view(np.int64).tolist()
        differ += int(np.count_nonzero(np.power(base, power) != expect))
    # jacobian_det_batch's (alpha + beta/m) ** (n-1) by Python's float **
    g = 0.5 + rng.uniform(0.0, 1e3, size=100_000)
    for e in (0.0, 1.0, 2.0):
        expect = loop_pow(g, e, operator.pow)
        assert libm_pow(g, e, operator.pow).view(np.int64).tolist() == expect.view(np.int64).tolist()
        differ += int(np.count_nonzero(np.power(g, e) != expect))
    # numpy's SIMD power kernels round some of these differently; hosts
    # without them may have none
    print(f"{differ} elements where np.power differs from libm pow")


def test_libm_pow_falls_back_as_the_scalar_loop():
    with pytest.raises(OverflowError, match="math range error"):
        libm_pow(np.array([[2.0, 0.5], [1e200, 3.0]]), np.array([[1.5], [2.0]]))
    with pytest.raises(OverflowError, match="Numerical result out of range"):
        libm_pow(np.array([2.0, 1e200]), 2.0, operator.pow)
    with pytest.raises(ValueError, match="math domain error"):
        libm_pow(np.array([1.0, 0.0]), -1.5)
    with pytest.raises(ZeroDivisionError):
        libm_pow(np.array([1.0, 0.0]), -2.0, operator.pow)
    # the first error in flat order wins, as in a loop
    assert outcome(libm_pow, np.array([0.0, 1e300]), np.array([-1.0, 2.0])) == \
        outcome(loop_pow, np.array([0.0, 1e300]), np.array([-1.0, 2.0]))
    x = np.array([math.nan, math.inf, -math.inf, 2.0, 0.0, 1.0])
    y = np.array([1.5, 1.5, 3.0, math.nan, 2.0, math.nan])
    got = libm_pow(x, y)
    assert repr(got.tolist()) == "[nan, inf, -inf, nan, 0.0, 1.0]"
    assert got.view(np.int64).tolist() == loop_pow(x, y).view(np.int64).tolist()


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_libm_pow_matches_the_scalar_loop_property(data):
    # any floats under math.pow; integer powers under float **, as
    # jacobian_det_batch takes them, since float ** of a negative base to a
    # fractional power is complex
    if data.draw(st.booleans()):
        scalar, power = math.pow, st.floats()
    else:
        scalar, power = operator.pow, st.integers(-3, 3).map(float)
    base = st.one_of(st.floats(), st.floats(1e-6, 1e6), st.sampled_from([0.0, -0.0, 1.0]))
    x = np.array(data.draw(st.lists(base, min_size=1, max_size=30)))
    y = (data.draw(power) if data.draw(st.booleans())
         else np.array(data.draw(st.lists(power, min_size=len(x), max_size=len(x)))))
    assert outcome(libm_pow, x, y, scalar) == outcome(loop_pow, x, y, scalar)
