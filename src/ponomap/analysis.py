"""Measure and norm computations for nested-cube constructions.

Everything here is a finite-depth, fully checkable stand-in for a limit
statement:

* Lebesgue level measures of the depth-k cube unions (closed form).
* Upper Hausdorff cover sums: 2^(nk) * h(diam Q) with the Euclidean
  diameter convention diam Q(z, r) = 2*sqrt(n)*r.
* A lower-bound probe that takes a concrete ball cover, certifies that the
  cover dominates the canonical cube covers, and records the counting
  constants the comparison uses.
* Exact sup-norm shell integrals (layer-cake identity
  int_{shell} phi(||x||_inf) dx = n 2^n int phi(t) t^(n-1) dt) by adaptive
  quadrature, and a seeded Monte Carlo cross-check that does not use the
  identity.  The norm reports integrate a whole block of annuli at once
  with QUADPACK's first 21-point Gauss-Kronrod step in numpy, bit for bit
  what the quadrature returns; a row that step does not settle goes
  through the adaptive quadrature itself.
* Grand Lebesgue norm reports eps * int |Df_K|^(n-eps) over an eps grid,
  with the telescoping analytic bound, and classical p-norm sums with a
  per-depth profile for the p = n divergence probe.

Reductions use math.fsum, so reports are bit-stable regardless of
evaluation order.  The derivative magnitude convention is max-of-partials:
|Df| = alpha_k + beta_k / ||x - z_v||_inf on annuli and rt_K/r_K on cores.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from .cantor import (
    SequencePack,
    VertexWord,
    all_words,
    center,
    descendant_count,
    half_edge,
)
from .errors import CoverageError, DepthError, GaugeRangeError, ToleranceError
from .gauge import GaugeSpec, eval_h
from .mapping import PonomarevMap, libm_pow

# scipy.integrate.quad, bound by _load_quad on the first quadrature: importing
# scipy costs more than half a second and only shell_integral needs it, so
# a norm report loads it only for a row that needs subdivision
_quad = None


def _load_quad():
    global _quad
    from scipy.integrate import quad
    _quad = quad
    return quad


CONVENTION = "max_partials"


# ---------------------------------------------------------------------------
# cover reports


@dataclass(frozen=True)
class CoverReport:
    """Upper cover sum at one depth: total = count * per_cube exactly."""

    depth: int
    count: int
    per_cube: float
    total: float


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball anchored at the center of an addressed cube."""

    word: VertexWord
    radius: float
    center: tuple[float, ...]


@dataclass(frozen=True)
class BallProbe:
    word: str
    radius: float
    min_contained_depth: int | None
    intersecting_count: int
    contained_count: int
    dominated_sum: float


@dataclass(frozen=True)
class LowerProbeReport:
    level: int
    cover_sum: float
    reference_upper_sum: float
    ratio: float
    balls: tuple[BallProbe, ...]
    max_intersecting: int
    counting_bound: int


def lebesgue_level(pack: SequencePack, k: int, side: Literal["domain", "target"] = "domain") -> float:
    """Measure of the depth-k cube union: 2^(nk) (2 r_k)^n = 2^n a_k^n."""
    if not 0 <= k <= pack.K:
        raise DepthError(f"depth {k} outside 0..{pack.K}")
    scale = pack.a[k] if side == "domain" else pack.b[k]
    return 2.0 ** pack.n * scale ** pack.n


def upper_sum_at_scale(h: GaugeSpec, k: int, a_k: float) -> CoverReport:
    """Cover sum 2^(nk) * h(2 sqrt(n) r_k) over all depth-k cubes, r_k = 2^-k a_k.

    Takes the bare scale value, so sequences whose flat head (clamped tau
    factors give a_k = 1 for small k) does not form a valid pack still get
    their sums.  Raises GaugeRangeError when the sum leaves binary64.
    """
    if k < 0:
        raise DepthError("depth must be >= 0")
    n = h.n
    per = eval_h(h, 2.0 * math.sqrt(n) * half_edge(a_k, k))
    count = 2 ** (n * k)
    try:
        total = float(count) * per
    except OverflowError:  # the count 2^(nk) alone passes the largest float
        total = math.inf
    if math.isinf(total):
        raise GaugeRangeError(f"cover sum 2^({n}*{k}) * h overflows binary64 at depth {k}")
    return CoverReport(depth=k, count=count, per_cube=per, total=total)


# ---------------------------------------------------------------------------
# ball/cube geometry for the lower-bound probe


def _dist_to_cube(c: Sequence[float], z: Sequence[float], r: float) -> float:
    return math.sqrt(math.fsum(max(abs(ci - zi) - r, 0.0) ** 2
                               for ci, zi in zip(c, z)))


def _farthest_corner(c: Sequence[float], z: Sequence[float], r: float) -> float:
    return math.sqrt(math.fsum((abs(ci - zi) + r) ** 2
                               for ci, zi in zip(c, z)))


# tiny relative slack so a circumscribing ball contains its own cube
_IN_BALL_SLACK = 1.0 + 1e-12


def _cube_in_ball(c, z, r, rho) -> bool:
    return _farthest_corner(c, z, r) <= rho * _IN_BALL_SLACK


# balls walked together: bounds the (ball, cube) pairs held at once
_BALL_CHUNK = 64
# a numpy distance this close (relative) to its threshold is decided again
# by the fsum test, so every decision equals the scalar one
_TIE_REL = 1e-13


def _decide(value: np.ndarray, limit: np.ndarray, scalar) -> np.ndarray:
    """value <= limit per pair; near-ties are decided by ``scalar(i)``."""
    out = value <= limit
    for i in np.flatnonzero(np.abs(value - limit) <= _TIE_REL * limit):
        out[i] = scalar(int(i))
    return out


def _probe_walk(pack: SequencePack, cover: Sequence[Ball], level: int):
    """Walk all (ball, cube) pairs down to depth ``level``, depth by depth.

    A cube is entered when it intersects the ball and its parent was
    entered and not contained.  Returns, per ball, the first depth with a
    contained cube (0 if none), the number of cubes entered at that depth
    and the number of depth-``level`` cubes contained, plus one coverage
    flag per depth-``level`` cube.
    """
    n = pack.n
    fan = 2 ** n
    verts = np.array([w.signs[0] for w in all_words(n, 1)], dtype=float)
    min_depth = np.zeros(len(cover), dtype=np.int64)
    intersecting = np.zeros(len(cover), dtype=np.int64)
    contained = np.zeros(len(cover), dtype=np.int64)
    covered = np.zeros(2 ** (n * level), dtype=bool)
    for lo in range(0, len(cover), _BALL_CHUNK):
        chunk = cover[lo:lo + _BALL_CHUNK]
        first = min_depth[lo:lo + len(chunk)]
        count = intersecting[lo:lo + len(chunk)]
        inner = contained[lo:lo + len(chunk)]
        centers = np.array([b.center for b in chunk], dtype=float)
        radius = np.array([b.radius for b in chunk], dtype=float)
        slack = radius * _IN_BALL_SLACK
        ball = np.arange(len(chunk))
        index = np.zeros(len(chunk), dtype=np.int64)
        z = np.zeros((len(chunk), n))
        for d in range(1, level + 1):
            r = pack.r[d]
            z = (z[:, None, :] + (0.5 * pack.r[d - 1]) * verts).reshape(-1, n)
            ball = np.repeat(ball, fan)
            index = (index[:, None] * fan + np.arange(fan)).ravel()
            diff = np.abs(centers[ball] - z)
            gap = np.maximum(diff - r, 0.0)
            hit = _decide(np.sqrt((gap * gap).sum(axis=1)), radius[ball],
                          lambda i: _dist_to_cube(chunk[ball[i]].center, z[i].tolist(), r)
                          <= chunk[ball[i]].radius)
            ball, index, z, diff = ball[hit], index[hit], z[hit], diff[hit]
            far = diff + r
            inside = _decide(np.sqrt((far * far).sum(axis=1)), slack[ball],
                             lambda i: _cube_in_ball(chunk[ball[i]].center, z[i].tolist(), r,
                                                     chunk[ball[i]].radius))
            held = np.bincount(ball[inside], minlength=len(chunk))
            new = (held > 0) & (first == 0)
            first[new] = d
            count[new] = np.bincount(ball, minlength=len(chunk))[new]
            span = descendant_count(d, level, n)
            inner += held * span
            covered.reshape(-1, span)[index[inside]] = True
            ball, index, z = ball[~inside], index[~inside], z[~inside]
            if not len(ball):
                break
    return min_depth, intersecting, contained, covered


# levels below a random-cover ball's cube at which its centre is anchored
ANCHOR_DEPTH = 3


def canonical_cover(pack: SequencePack, m: int) -> list[Ball]:
    """Balls circumscribing every depth-m cube."""
    if not 1 <= m <= pack.K:
        raise DepthError(f"depth {m} outside 1..{pack.K}")
    rho = math.sqrt(pack.n) * pack.r[m]
    out = []
    for word in all_words(pack.n, m):
        out.append(Ball(word=word, radius=rho, center=center(word, pack)))
    return out


def random_cover(pack: SequencePack, m: int, rng: np.random.Generator) -> list[Ball]:
    """One ball per depth-m cube, anchored at the center of a random cube
    ANCHOR_DEPTH levels deeper.

    The radius is the smallest that still contains the depth-m cube, so the
    cover always covers, while staying within twice the circumscribed
    radius; that keeps the per-ball neighbor counts inside the 4^n bound.
    """
    if not 1 <= m <= pack.K:
        raise DepthError(f"depth {m} outside 1..{pack.K}")
    if m + ANCHOR_DEPTH > pack.K:
        raise DepthError(f"anchors {ANCHOR_DEPTH} levels below depth {m} pass the pack "
                         f"depth {pack.K}")
    verts = [w.signs[0] for w in all_words(pack.n, 1)]
    sqrt_n = math.sqrt(pack.n)
    out = []
    for word in all_words(pack.n, m):
        anchor = word
        for _ in range(ANCHOR_DEPTH):
            anchor = anchor.child(verts[rng.integers(len(verts))])
        c = center(anchor, pack)
        zu = center(word, pack)
        dist = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(c, zu)))
        out.append(Ball(word=anchor, radius=dist + sqrt_n * pack.r[m], center=c))
    return out


def hausdorff_lower_probe(h: GaugeSpec, pack: SequencePack, cover: Sequence[Ball],
                          level: int) -> LowerProbeReport:
    """Certify a ball cover against the depth-``level`` cube cover.

    Checks that every depth-``level`` cube is contained in some ball (else
    CoverageError), computes the cover sum sum_j h(diam B_j), the per-ball
    counting data (minimal contained depth m_j, number of depth-m_j cubes
    the ball intersects, dominated cube sums at the reference level), and
    the ratio of the cover sum to the upper cube sum at the reference
    level.  Intersection counts are compared against the 4^n counting
    bound.
    """
    if h.n != pack.n:
        raise ValueError("gauge dimension does not match the pack")
    if not 1 <= level <= pack.K:
        raise DepthError(f"level {level} outside 1..{pack.K}")
    reference = upper_sum_at_scale(h, level, pack.a[level])
    first, count, inner, covered = _probe_walk(pack, cover, level)
    stats = tuple(
        BallProbe(
            word=str(ball.word),
            radius=ball.radius,
            min_contained_depth=d or None,
            intersecting_count=u,
            contained_count=c,
            dominated_sum=c * reference.per_cube,
        )
        for ball, d, u, c in zip(cover, first.tolist(), count.tolist(), inner.tolist())
    )
    total_cubes = covered.size
    missed = total_cubes - int(np.count_nonzero(covered))
    if missed:
        raise CoverageError(f"cover misses {missed} of {total_cubes} depth-{level} cubes")
    cover_sum = math.fsum(eval_h(h, 2.0 * b.radius) for b in cover)
    return LowerProbeReport(
        level=level,
        cover_sum=cover_sum,
        reference_upper_sum=reference.total,
        ratio=cover_sum / reference.total,
        balls=stats,
        max_intersecting=int(count.max(initial=0)),
        counting_bound=4 ** pack.n,
    )


# ---------------------------------------------------------------------------
# shell integrals


@dataclass(frozen=True)
class GradientPower:
    """phi(t) = (alpha + beta/t)^power, the annulus derivative magnitude."""

    alpha: float
    beta: float
    power: float

    def __call__(self, t):
        return (self.alpha + self.beta / t) ** self.power


# quad's relative tolerance in shell_integral, which the norm table's first
# Gauss-Kronrod step must meet as well
_EPSREL = 1e-11


def shell_integral(phi: Callable[[float], float], r: float, R: float, n: int) -> float:
    """Integral of phi(||x||_inf) over the sup-norm shell Q(0,R) \\ Q(0,r).

    Equals n 2^n int_r^R phi(t) t^(n-1) dt, by adaptive quadrature asked
    for relative error 1e-11; an error estimate above 1e-10 relative raises
    ToleranceError.
    """
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    if n < 1:
        raise ValueError("n must be >= 1")
    front = n * 2.0 ** n
    quad = _quad or _load_quad()
    result = quad(lambda t: phi(t) * t ** (n - 1), r, R,
                  epsabs=0.0, epsrel=_EPSREL, limit=200, full_output=True)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise ToleranceError(f"shell quadrature failed: {result[3]}")
    if abserr > 1e-10 * max(abs(value), 1e-300):
        raise ToleranceError(
            f"shell quadrature too loose: abserr={abserr:g} for value={value:g}"
        )
    return front * value


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) in its own decimals: the
# Kronrod abscissae, whose odd-indexed entries are the 10-point Gauss nodes,
# the Kronrod weights (the last is the centre's) and the Gauss weights
_XGK = np.array((
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720))
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980544743, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _gk21_shells(alpha: np.ndarray, beta: np.ndarray, power: np.ndarray,
                 r: np.ndarray, R: np.ndarray, n: int) -> list[float | None]:
    """shell_integral(GradientPower(alpha_i, beta_i, power_i), r_i, R_i, n)
    of every row on which it stops after its first rule, else None.

    QUADPACK's dqagse starts with one 21-point Gauss-Kronrod rule (dqk21)
    over [r, R] and returns it when its error estimate meets the tolerance.
    This runs that step for all rows at once: the same nodes, the same
    integrand operations, each power by libm, and the sums accumulated
    node by node in dqk21's order, so a settled row equals the quadrature
    bit for bit.  Rows outside 0 < r < R or with a non-finite sum stay
    None; so does every row when math.pow raises, so that the scalar call
    raises the same error.
    """
    with np.errstate(all="ignore"):
        centr = (0.5 * (r + R))[:, None]
        hlgth = 0.5 * (R - r)
        absc = hlgth[:, None] * _XGK
        t = np.concatenate((centr, centr - absc, centr + absc), axis=1)
        try:
            f = libm_pow(alpha[:, None] + beta[:, None] / t, power[:, None])
            # pow(t, 1.0) is t exactly
            f = f * (t if n == 2 else libm_pow(t, float(n - 1)))
        except (ArithmeticError, ValueError):
            return [None] * len(r)
        fc, fv1, fv2 = f[:, 0], f[:, 1:11], f[:, 11:]
        resg = 0.0
        resk = _WGK[10] * fc
        resabs = np.abs(resk)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # Gauss nodes first
            fsum = fv1[:, j] + fv2[:, j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
        result = resk * hlgth
        resabs = resabs * np.abs(hlgth)
        resasc = resasc * np.abs(hlgth)
        abserr = np.abs((resk - resg) * hlgth)
        # dqk21 scales abserr by min(1, (200 abserr/resasc)^1.5); the clip
        # first gives the same value and keeps pow from overflowing
        ratio = np.minimum(200.0 * abserr / resasc, 1.0)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0),
                          resasc * libm_pow(ratio, 1.5), abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
        # dqagse's first-step exit with ier = 0; its roundoff exit (ier = 2)
        # needs abserr above the bound and never meets this test.  A settled
        # row's abserr also passes shell_integral's 1e-10 check.
        bound = _EPSREL * np.abs(result)
        settled = ((abserr <= bound) & (abserr != resasc)) | (abserr == 0.0)
        settled &= np.isfinite(result) & (0.0 < r) & (r < R)
        values = (n * 2.0 ** n * result).tolist()  # shell_integral's front * value
    return [v if s else None for v, s in zip(values, settled.tolist())]


def _shell_rows(alpha: np.ndarray, beta: np.ndarray, power: np.ndarray,
                r: np.ndarray, R: np.ndarray, n: int) -> Iterator[float]:
    """shell_integral(GradientPower(alpha_i, beta_i, power_i), r_i, R_i, n)
    row by row, bit for bit and error for error.

    A row the first rule does not settle goes to shell_integral when it is
    reached, so the errors come in the order a loop over the rows raises
    them.
    """
    for i, value in enumerate(_gk21_shells(alpha, beta, power, r, R, n)):
        if value is None:
            value = shell_integral(
                GradientPower(float(alpha[i]), float(beta[i]), float(power[i])),
                float(r[i]), float(R[i]), n)
        yield value


def shell_integral_mc(phi, r: float, R: float, n: int, samples: int,
                      rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the shell integral.

    Samples uniformly in [-R, R]^n and keeps the shell hit indicator, so it
    shares no machinery with the layer-cake identity used by
    shell_integral.
    """
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    pts = rng.uniform(-R, R, size=(samples, n))
    sup = np.max(np.abs(pts), axis=1)
    vals = np.zeros(samples)
    mask = (sup > r) & (sup <= R)
    vals[mask] = phi(sup[mask])
    volume = (2.0 * R) ** n
    est = volume * float(np.mean(vals))
    stderr = volume * float(np.std(vals, ddof=1)) / math.sqrt(samples)
    return est, stderr


# ---------------------------------------------------------------------------
# norm reports


@dataclass(frozen=True)
class NormReport:
    """Grand-norm data over an eps grid.

    values[i] = eps_i * int |Df_K|^(n - eps_i) including the depth-K core
    term; bounds[i] is the analytic telescoping bound
    n 2^n (a_0^eps - a_K^eps) + core.
    """

    eps: tuple[float, ...]
    values: tuple[float, ...]
    bounds: tuple[float, ...]
    sup: float
    convention: str
    depth: int


def default_eps_grid(n: int, count: int) -> tuple[float, ...]:
    """``count`` eps values from 1e-4 to n - 1, evenly spaced in log."""
    return tuple(float(e) for e in np.geomspace(1e-4, n - 1.0, count))


# annulus rows integrated together; bounds the arrays and node lists held
# at once (1,024 rows raised a norms pass's peak memory by about 2.5 MiB)
_TABLE_ROWS = 256


def _annulus_table(pack: SequencePack, powers: Sequence[float]) -> Iterator[list[float]]:
    """Per power, the per-depth totals 2^(nk) * shell_integral over the
    depth-k annulus of (alpha_k + beta_k/t)^power, k = 1..K.

    The (power, k) rows go through _shell_rows a block at a time, so only
    one block of the table is held.  Raises GaugeRangeError at the first
    depth whose 2^(nk) passes binary64.
    """
    n, K = pack.n, pack.K
    # 2^(nk), the number of depth-k annuli, at the depths where it is a
    # binary64 float
    counts = [2.0 ** (n * k) for k in range(1, min(K, (sys.float_info.max_exp - 1) // n) + 1)]
    alpha, beta = np.array(pack.alpha[1:]), np.array(pack.beta[1:])
    r, R = np.array(pack.r[1:]), np.array(pack.r[:-1]) / 2.0
    step = max(1, _TABLE_ROWS // K)
    for lo in range(0, len(powers), step):
        block = np.array(powers[lo:lo + step], dtype=float)
        m = len(block)
        shells = _shell_rows(np.tile(alpha, m), np.tile(beta, m), np.repeat(block, K),
                             np.tile(r, m), np.tile(R, m), n)
        for _ in range(m):
            # zip draws the count before the shell, so it stops after the
            # last count without drawing the next shell
            row = [s * c for c, s in zip(counts, shells)]
            if len(row) < K:
                # as in the scalar loop, the shell integral is taken before
                # its scale, so the shell's own error comes first
                next(shells)
                k = len(row) + 1
                raise GaugeRangeError(
                    f"annulus count 2^({n}*{k}) overflows binary64 at depth {k}")
            yield row


def _core_term(pack: SequencePack, power: float) -> float:
    # 2^(nK) (2 r_K)^n (rt_K/r_K)^power, reduced so nothing overflows
    return (2.0 ** pack.n * pack.a[pack.K] ** (pack.n - power)
            * pack.b[pack.K] ** power)


def grand_norm_report(pmap: PonomarevMap, eps_grid: Sequence[float]) -> NormReport:
    """eps * int |Df_K|^(n-eps) over an eps grid, with analytic bounds.

    Requires a standard pack (alpha = 1/2, beta = 2^(-k-1)); the analytic
    per-eps bound n 2^n (a_0^eps - a_K^eps) + core uses the pointwise
    domination alpha + beta/t <= 2 beta / t on each annulus.
    """
    pack = pmap.pack
    if not pack.standard:
        raise ValueError("grand norm reports require a standard pack")
    n = pack.n
    eps_grid = tuple(float(e) for e in eps_grid)
    for e in eps_grid:
        if not 0.0 < e <= n - 1.0:
            raise ValueError(f"eps {e!r} outside (0, n-1]")
    aK, bK = pack.a[pack.K], pack.b[pack.K]
    const = n * 2.0 ** n
    values = []
    bounds = []
    for e, terms in zip(eps_grid, _annulus_table(pack, [n - e for e in eps_grid])):
        values.append(e * math.fsum(terms) + e * _core_term(pack, n - e))
        bounds.append(const * (1.0 - aK ** e) + e * 2.0 ** n * aK ** e * bK ** (n - e))
    return NormReport(
        eps=eps_grid,
        values=tuple(values),
        bounds=tuple(bounds),
        sup=max(values),
        convention=CONVENTION,
        depth=pack.K,
    )


def sobolev_depth_profile(pmap: PonomarevMap, p: float) -> tuple[tuple[float, ...], float]:
    """Cumulative annulus sums of int |Df_K|^p through each depth, plus the
    depth-K core term."""
    pack = pmap.pack
    if not 0.0 < p <= pack.n:
        raise ValueError("p must lie in (0, n]")
    (terms,) = _annulus_table(pack, (p,))
    running = []
    acc = 0.0
    for t in terms:
        acc = math.fsum((acc, t))
        running.append(acc)
    return tuple(running), _core_term(pack, p)


# ---------------------------------------------------------------------------
# pushforward / coding checks


@dataclass(frozen=True)
class PushforwardReport:
    """``ratios``: the share of the depth-k cover sum under each depth-j
    word, in word order; ``exact`` when each equals ``expected``."""

    expected: Fraction
    ratios: tuple[Fraction, ...]
    exact: bool


_PUSHFORWARD_WORDS = 2 ** 20  # largest depth-k population enumerated


def pushforward_check(pack: SequencePack, k: int, j: int) -> PushforwardReport:
    """Share of the depth-k cover sum carried by each depth-j word.

    All depth-k cubes carry the same gauge value, so each share is the
    exact rational (descendants of the word) / 2^(nk) and must equal
    2^(-jn).  Descendants are counted by exhaustive enumeration of the
    depth-k words, of which there may be at most 2^20.
    """
    if not 0 <= j <= k <= pack.K:
        raise DepthError("need 0 <= j <= k <= K")
    n = pack.n
    total = 2 ** (n * k)
    if total > _PUSHFORWARD_WORDS:
        raise DepthError(f"{total} depth-{k} words exceed the enumeration cap "
                         f"{_PUSHFORWARD_WORDS}")
    expected = Fraction(1, 2 ** (n * j))
    counts: dict[tuple, int] = {}
    for word in all_words(n, k):
        key = word.signs[:j]
        counts[key] = counts.get(key, 0) + 1
    ratios = tuple(
        Fraction(counts.get(w.signs, 0), total) for w in all_words(n, j)
    )
    exact = all(rho == expected for rho in ratios)
    return PushforwardReport(expected=expected, ratios=ratios, exact=exact)
