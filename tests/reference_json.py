"""The recursive report converter that ``cli.write_json`` once applied to
every payload, kept as the oracle of its one-level ``fields`` hook and of
its streamed probe balls:
``json.dumps(reference_json_data(payload), sort_keys=True, indent=2)`` is
the text each artifact must keep."""

from ponomap.analysis import LowerProbeReport
from reference_words import word_text


def reference_json_data(value):
    """``value`` as JSON data: a probe report as ``reference_probe_data``
    gives it, another report dataclass as the dict of its fields and a
    tuple as a list, all the way down."""
    kind = type(value)
    if kind is float or kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:
        return [reference_json_data(v) for v in value]
    if kind is dict:
        return {k: reference_json_data(v) for k, v in value.items()}
    if kind is LowerProbeReport:
        return reference_probe_data(value)
    names = getattr(kind, "__dataclass_fields__", None)
    if names is None:
        return value
    return {name: reference_json_data(getattr(value, name)) for name in names}


def reference_probe_data(rep: LowerProbeReport) -> dict:
    """The probe report as hausdorff.json holds it: its summary fields and
    a ``balls`` list of one six-key dict per ball, built ball by ball with
    the scalar ``word_text``."""
    balls = [{"word": word_text(word, rep.n, rep.word_depth), "radius": rho,
              "min_contained_depth": d or None, "intersecting_count": u, "contained_count": c,
              "dominated_sum": c * rep.per_cube}
             for word, rho, d, u, c in zip(rep.words.tolist(), rep.radius.tolist(),
                                           rep.min_contained_depth.tolist(),
                                           rep.intersecting_count.tolist(),
                                           rep.contained_count.tolist(), strict=True)]
    return {"level": rep.level, "cover_sum": rep.cover_sum,
            "reference_upper_sum": rep.reference_upper_sum, "ratio": rep.ratio,
            "balls": balls, "max_intersecting": rep.max_intersecting,
            "counting_bound": rep.counting_bound}
