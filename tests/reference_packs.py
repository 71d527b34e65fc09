"""Packs for arbitrary target scales, kept for the tests: the CLI builds
only standard packs, whose gluing coefficients are exact, while tests also
need packs whose target scales b are free and whose gluing is solved
numerically."""

from __future__ import annotations

import math
from typing import Sequence

from ponomap.cantor import SequencePack, half_edges
from ponomap.errors import ConstructionError


def pack_from_scales(n: int, a: Sequence[float], b: Sequence[float]) -> SequencePack:
    """Pack on scales a and b, with alpha_k, beta_k solved from the two
    gluing equations of ``SequencePack``."""
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)
    if len(a) != len(b):
        raise ConstructionError("a and b must have equal length")
    r, rt = half_edges(a), half_edges(b)
    alpha = [math.nan]
    beta = [math.nan]
    for k in range(1, len(a)):
        denom = r[k - 1] / 2.0 - r[k]
        if denom <= 0.0:
            raise ConstructionError(f"empty annulus at depth {k}")
        al = (rt[k - 1] / 2.0 - rt[k]) / denom
        alpha.append(al)
        beta.append(rt[k] - al * r[k])
    return SequencePack(n=n, a=a, b=b, alpha=tuple(alpha), beta=tuple(beta))
