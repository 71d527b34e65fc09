"""Nested-cube hierarchy: addresses, scale packs, point location, binary coding.

Depth-k cubes are indexed by words of k vertices of [-1,1]^n (every
coordinate is +1 or -1).  A word fixes a center

    z_v = sum_{i=1..k} (r_{i-1}/2) * v_i            (domain side)

with the target side using the radii rt instead of r.  Around each center
sit an outer cube of half-edge r_{k-1}/2 and an inner cube of half-edge
r_k; the outer cubes at depth k tile the inner cube of the parent, so every
interior point lands either in a unique annulus (outer minus inner) at some
depth, or survives to the core cubes at the truncation depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import ConstructionError, DepthError, DomainError, PrecisionError

Side = Literal["domain", "target"]

_ULPS = 4  # allowed gluing residual, in units of spacing at the result's scale


@dataclass(frozen=True)
class VertexWord:
    """Address of a cube: one vertex of {-1,+1}^n per level."""

    n: int
    signs: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for level in self.signs:
            if len(level) != self.n or any(s not in (-1, 1) for s in level):
                raise ValueError(f"invalid vertex {level!r} for n={self.n}")

    @property
    def depth(self) -> int:
        return len(self.signs)

    def child(self, vertex: Sequence[int]) -> "VertexWord":
        return VertexWord(self.n, self.signs + (tuple(vertex),))

    def __str__(self) -> str:
        return "|".join(
            "".join("+" if s > 0 else "-" for s in level) for level in self.signs
        )


def all_words(n: int, depth: int) -> Iterator[VertexWord]:
    """All 2^(n*depth) words at the given depth, in lexicographic bit order."""
    vertices = list(itertools.product((-1, 1), repeat=n))
    for combo in itertools.product(vertices, repeat=depth):
        yield VertexWord(n, combo)


def harmonic_sequence(K: int) -> tuple[float, ...]:
    return tuple(1.0 / (k + 1) for k in range(K + 1))


def geometric_sequence(K: int, ratio: float = 0.5) -> tuple[float, ...]:
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    return tuple(ratio ** k for k in range(K + 1))


def _ulp_close(x: float, y: float, ulps: int = _ULPS) -> bool:
    scale = max(abs(x), abs(y))
    return abs(x - y) <= ulps * math.ulp(scale) if scale > 0.0 else x == y


def half_edge(x_k: float, k: int) -> float:
    """Depth-k inner half-edge 2^-k x_k: r_k from a_k, rt_k from b_k."""
    return math.ldexp(x_k, -k)


def half_edges(scales: Sequence[float]) -> tuple[float, ...]:
    """``half_edge`` at every depth of a scale sequence."""
    return tuple(half_edge(x, k) for k, x in enumerate(scales))


def standard_scales(a: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """(b, r, rt, alpha, beta) of the standard construction on scales a.

    b_k = (1 + a_k)/2, r_k = 2^-k a_k, rt_k = 2^-k b_k, alpha_k = 1/2 and
    beta_k = 2^(-k-1), with alpha_0 = beta_0 = nan.  Nothing is validated,
    so scales that do not nest (a flat head a_k = 1 where tau clamps) still
    get a table.
    """
    K = len(a) - 1
    b = tuple((1.0 + x) / 2.0 for x in a)
    r, rt = half_edges(a), half_edges(b)
    alpha = (math.nan,) + (0.5,) * K
    beta = (math.nan,) + tuple(math.ldexp(1.0, -k - 1) for k in range(1, K + 1))
    return b, r, rt, alpha, beta


@dataclass(frozen=True)
class SequencePack:
    """Scales of one construction to depth K.

    r_k = 2^-k a_k and rt_k = 2^-k b_k are the domain/target inner
    half-edges at depth k.  alpha_k, beta_k solve the two gluing equations

        alpha_k r_k + beta_k = rt_k
        alpha_k r_{k-1}/2 + beta_k = rt_{k-1}/2

    so the radial factor s -> alpha_k s + beta_k carries the annulus
    [r_k, r_{k-1}/2] onto [rt_k, rt_{k-1}/2].  ``standard`` packs use
    b_k = (1 + a_k)/2, which makes alpha_k = 1/2 and beta_k = 2^(-k-1)
    exactly.
    """

    n: int
    K: int
    a: tuple[float, ...]
    b: tuple[float, ...]
    r: tuple[float, ...]
    rt: tuple[float, ...]
    alpha: tuple[float, ...]  # index 0 unused (nan)
    beta: tuple[float, ...]
    standard: bool

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_standard(cls, n: int, a: Sequence[float]) -> "SequencePack":
        """Pack with b_k = (1 + a_k)/2 and exact gluing coefficients."""
        a = tuple(float(x) for x in a)
        b, r, rt, alpha, beta = standard_scales(a)
        return cls(n=n, K=len(a) - 1, a=a, b=b, r=r, rt=rt, alpha=alpha,
                   beta=beta, standard=True)

    @classmethod
    def from_scales(cls, n: int, a: Sequence[float],
                    b: Sequence[float]) -> "SequencePack":
        """Pack for arbitrary target scales; gluing solved numerically."""
        a = tuple(float(x) for x in a)
        b = tuple(float(x) for x in b)
        if len(a) != len(b):
            raise ConstructionError("a and b must have equal length")
        K = len(a) - 1
        r, rt = half_edges(a), half_edges(b)
        alpha = [math.nan]
        beta = [math.nan]
        for k in range(1, K + 1):
            denom = r[k - 1] / 2.0 - r[k]
            if denom <= 0.0:
                raise ConstructionError(f"empty annulus at depth {k}")
            al = (rt[k - 1] / 2.0 - rt[k]) / denom
            alpha.append(al)
            beta.append(rt[k] - al * r[k])
        return cls(n=n, K=K, a=a, b=b, r=r, rt=rt, alpha=tuple(alpha),
                   beta=tuple(beta), standard=False)

    def validate(self) -> None:
        if self.n < 1:
            raise ConstructionError("n must be >= 1")
        if self.K < 1:
            raise ConstructionError("K must be >= 1")
        if len(self.a) != self.K + 1 or len(self.b) != self.K + 1:
            raise ConstructionError("scale arrays must have length K+1")
        if self.a[0] != 1.0 or self.b[0] != 1.0:
            raise ConstructionError("a_0 and b_0 must equal 1")
        for k in range(self.K + 1):
            if not (self.a[k] > 0.0 and self.b[k] > 0.0):
                raise ConstructionError(f"scales must be positive (depth {k})")
        for k in range(1, self.K + 1):
            if self.a[k] > self.a[k - 1]:
                raise ConstructionError(f"a must be non-increasing (depth {k})")
            if not self.r[k] < self.r[k - 1] / 2.0:
                raise ConstructionError(f"nesting fails on domain side at depth {k}")
            if not self.rt[k] < self.rt[k - 1] / 2.0:
                raise ConstructionError(f"nesting fails on target side at depth {k}")
        for k in range(1, self.K + 1):
            inner = self.alpha[k] * self.r[k] + self.beta[k]
            outer = self.alpha[k] * (self.r[k - 1] / 2.0) + self.beta[k]
            if not _ulp_close(inner, self.rt[k]):
                raise ConstructionError(
                    f"gluing residual on inner face at depth {k}: "
                    f"{inner!r} vs {self.rt[k]!r}"
                )
            if not _ulp_close(outer, self.rt[k - 1] / 2.0):
                raise ConstructionError(
                    f"gluing residual on outer face at depth {k}: "
                    f"{outer!r} vs {self.rt[k - 1] / 2.0!r}"
                )
        if self.standard:
            for k in range(1, self.K + 1):
                if self.alpha[k] != 0.5 or self.beta[k] != math.ldexp(1.0, -k - 1):
                    raise ConstructionError(
                        f"standard pack must carry alpha=1/2, beta=2^-(k+1) (depth {k})"
                    )
                if self.b[k] != (1.0 + self.a[k]) / 2.0:
                    raise ConstructionError(
                        f"standard pack requires b=(1+a)/2 (depth {k})"
                    )

    def truncate(self, K: int) -> "SequencePack":
        if not 1 <= K <= self.K:
            raise DepthError(f"cannot truncate depth-{self.K} pack to {K}")
        return SequencePack(
            n=self.n, K=K,
            a=self.a[:K + 1], b=self.b[:K + 1],
            r=self.r[:K + 1], rt=self.rt[:K + 1],
            alpha=self.alpha[:K + 1], beta=self.beta[:K + 1],
            standard=self.standard,
        )


@dataclass(frozen=True)
class Descent:
    """Where a point sits in the hierarchy, down to the pack depth K.

    ``region`` and ``depth`` name the annulus at the first depth with
    ||x - z_v|| > r_k, or the core at depth K; ``z`` and ``zt`` are the
    domain and target centers of that cube's word, ``m`` the sup distance
    to the center on the driving side and ``x`` the point as
    ``check_point`` returned it.
    """

    region: Literal["annulus", "core"]
    depth: int
    z: tuple[float, ...]
    zt: tuple[float, ...]
    m: float
    x: tuple[float, ...]


def outside_message(x: Sequence[float], n: int) -> str:
    """The text of the DomainError for a point x outside [-1,1]^n."""
    return f"point {tuple(map(float, x))!r} outside [-1,1]^{n}"


def check_point(x: Sequence[float], n: int) -> tuple[float, ...]:
    pt = tuple(map(float, x))
    if len(pt) != n:
        raise DomainError(f"expected {n} coordinates, got {len(pt)}")
    for c in pt:
        if not -1.0 <= c <= 1.0:  # NaN fails the comparison too
            raise DomainError(outside_message(pt, n))
    return pt


def descend(x: Sequence[float], pack: SequencePack,
            side: Side = "domain") -> Descent:
    """Walk the hierarchy containing x to the pack depth K, tracking both
    center chains.

    ``side`` selects which radii drive the geometry (and which centers the
    sign choices compare against).  Ties on shared faces go to the vertex
    with -1 in the tied coordinate, i.e. the lexicographically smallest
    child.  x is validated here only; the map reads the checked point
    back from the returned ``Descent``.  A shallower descent is that of
    ``pack.truncate(depth)``.
    """
    n, K = pack.n, pack.K
    x = check_point(x, n)
    r, rt = pack.r, pack.rt
    drive = r if side == "domain" else rt
    z = [0.0] * n
    zt = [0.0] * n
    base = z if side == "domain" else zt
    coords = range(n)
    m = max(map(abs, x))
    # u = x - base for the current centre: it gives this level's m and the
    # next level's signs (x - 0.0 is x, so the first level reads x itself)
    u = x
    for k in range(1, K + 1):
        v = [1 if c > 0.0 else -1 for c in u]
        half = 0.5 * r[k - 1]
        halft = 0.5 * rt[k - 1]
        for i in coords:
            z[i] += half * v[i]
            zt[i] += halft * v[i]
        u = [x[i] - base[i] for i in coords]
        m = max(map(abs, u))
        if m > drive[k]:
            return Descent("annulus", k, tuple(z), tuple(zt), m, x)
    return Descent("core", K, tuple(z), tuple(zt), m, x)


@dataclass(frozen=True)
class BatchDescent:
    """``descend`` of N points to the pack depth K, as arrays.

    Row i holds what ``descend(x[i], pack, side)`` returns: ``depth``
    (N,) is the annulus depth, or K where ``core`` (N,) is set; ``z`` and
    ``zt`` (N, n) are the domain and target centres of the word, ``m`` (N,)
    the sup distance to the centre on the driving side and ``x`` (N, n) the
    checked points.
    """

    depth: np.ndarray
    core: np.ndarray
    z: np.ndarray
    zt: np.ndarray
    m: np.ndarray
    x: np.ndarray


def in_cube(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of x inside [-1,1]^n; NaN fails, as in ``check_point``."""
    return ((x >= -1.0) & (x <= 1.0)).all(axis=1)


def descend_batch(x: np.ndarray, pack: SequencePack,
                  side: Side = "domain") -> BatchDescent:
    """``descend`` to depth K of every row of an (N, n) array at once.

    One level per step over the points still inside, with the scalar
    arithmetic in the scalar order (the ``> 0.0`` tie rule, centres summed
    level by level, m = max|x - centre|), so every field equals the scalar
    descent's bit for bit.  A row outside the cube raises DomainError.
    """
    n, K = pack.n, pack.K
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n:
        raise DomainError(f"expected an (N, {n}) array of points, got shape {x.shape}")
    outside = np.flatnonzero(~in_cube(x))
    if outside.size:
        raise DomainError(outside_message(x[outside[0]], n))
    r, rt = pack.r, pack.rt
    drive = r if side == "domain" else rt
    N = len(x)
    depth = np.full(N, K)
    core = np.zeros(N, dtype=bool)
    z, zt, m = np.empty((N, n)), np.empty((N, n)), np.empty(N)
    # the rows still descending: their index, point, both centres and u = x - base
    rows, xa, za, zta = np.arange(N), x, np.zeros((N, n)), np.zeros((N, n))
    u = x
    for k in range(1, K + 1):
        v = np.where(u > 0.0, 1.0, -1.0)
        za += (0.5 * r[k - 1]) * v
        zta += (0.5 * rt[k - 1]) * v
        u = xa - (za if side == "domain" else zta)
        ma = np.abs(u).max(axis=1)
        leave = ma > drive[k]
        if k == K:
            core[rows[~leave]] = True
            leave[:] = True
        if leave.any():
            out = rows[leave]
            depth[out] = k
            z[out], zt[out], m[out] = za[leave], zta[leave], ma[leave]
            stay = ~leave
            rows, xa, za, zta, u = rows[stay], xa[stay], za[stay], zta[stay], u[stay]
        if not rows.size:
            break
    return BatchDescent(depth, core, z, zt, m, x)


def center(word: VertexWord, pack: SequencePack, side: Side = "domain") -> tuple[float, ...]:
    """Center z_v = sum (r_{i-1}/2) v_i (or rt on the target side)."""
    k = word.depth
    if k > pack.K:
        raise DepthError(f"word depth {k} exceeds pack depth {pack.K}")
    radii = pack.r if side == "domain" else pack.rt
    z = [0.0] * word.n
    for i, level in enumerate(word.signs):
        half = 0.5 * radii[i]
        for c in range(word.n):
            z[c] += half * level[c]
    return tuple(z)


def dyadic_cube(word: VertexWord) -> tuple[tuple[float, ...], float]:
    """Binary coding of a word: the level-k dyadic cube (corner, size 2^-k).

    Coordinate i of the corner reads the i-th coordinate signs of the word
    as binary digits after the point (+1 -> 1, -1 -> 0).
    """
    k = word.depth
    if k > 52:
        raise PrecisionError("dyadic corners are exact only up to depth 52")
    corner = []
    for i in range(word.n):
        bits = 0
        for level in word.signs:
            bits = (bits << 1) | (1 if level[i] > 0 else 0)
        corner.append(math.ldexp(float(bits), -k))
    return tuple(corner), math.ldexp(1.0, -k)


def dyadic_preimage(corner: Sequence[float], k: int, n: int | None = None) -> VertexWord:
    """Inverse of dyadic_cube on level-k grid corners in [0, 1)^n."""
    if k < 0 or k > 52:
        raise PrecisionError("level k must lie in 0..52")
    pts = tuple(float(c) for c in corner)
    if n is None:
        n = len(pts)
    if len(pts) != n:
        raise ValueError("corner dimension mismatch")
    cols = []
    for c in pts:
        if not 0.0 <= c < 1.0:
            raise PrecisionError(f"corner coordinate {c!r} outside [0, 1)")
        scaled = math.ldexp(c, k)
        bits = round(scaled)
        if bits != scaled:
            raise PrecisionError(f"{c!r} is not a level-{k} dyadic corner")
        cols.append(bits)
    levels = []
    for j in range(k):
        shift = k - 1 - j
        levels.append(tuple(1 if (bits >> shift) & 1 else -1 for bits in cols))
    return VertexWord(n, tuple(levels))


def descendant_count(from_depth: int, to_depth: int, n: int) -> int:
    """Number of depth-l words below one depth-m word: 2^(n (l - m))."""
    if to_depth < from_depth:
        raise ValueError("to_depth must be >= from_depth")
    return 2 ** (n * (to_depth - from_depth))
