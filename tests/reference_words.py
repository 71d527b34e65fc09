"""The per-word forms of the binary coding layer, kept as the oracle of
``ponomap.cantor``'s integer words: a ``VertexWord`` holds one sign tuple
per level, ``all_words`` yields them in lexicographic order, and
``word_text``, ``center``, ``dyadic_cube`` and ``dyadic_preimage`` work one
word at a time.  Tests that place points by word may use these too."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ponomap.cantor import SequencePack, Side
from ponomap.errors import DepthError, PrecisionError


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


def word_text(word: int, n: int, depth: int) -> str:
    """The integer word's signs, one group of n per level: ``"++|-+"``."""
    bits = n * depth
    signs = "".join("+" if word >> (bits - 1 - i) & 1 else "-" for i in range(bits))
    return "|".join(signs[i:i + n] for i in range(0, bits, n))


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
