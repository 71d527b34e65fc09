"""Command-line front end.

Subcommands: sequence | eval | verify | norms | hausdorff | render.
Every output artifact embeds the resolved-config digest and the seed, no
timestamps, so identical config + seed reproduces byte-identical files.

Exit codes: 0 success, 2 verification failure, 3 config error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import analysis, render
from .cantor import (SequencePack, descend_batch, geometric_sequence, harmonic_sequence,
                     in_cube, outside_message, standard_scales)
from .errors import ConstructionError, PonomapError
# eval_h is not called here; perfbench/tracer.py counts its calls at this name
from .gauge import (GaugeSpec, eval_h, finite_measure_sequence, from_json,  # noqa: F401
                    null_measure_sequence, scale_condition)
from .mapping import PonomarevMap, build
from .verify import VerifyScale, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

DEFAULT_CONFIG = {
    "gauge": {"n": 2, "tau": {"family": "log", "shift": math.e}},
    "theorem": 1,
    "sequence": {"kind": "harmonic"},
    "depth": 16,
    "seed": 0,
    "eps_grid": "1e-4:1:64",
    "resolution": 65,
    "safety": 0.5,
    "hausdorff": {"depths": [0, 1, 2, 4, 8], "probe_depth": 3, "probe_level": 5,
                  "random_covers": 5},
    "verify": {},
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class SequenceSection:
    """The ``sequence`` section; ``make_scales`` reads it under
    ``"theorem": "custom"`` only, where ``values`` overrides ``kind``."""

    kind: str
    ratio: float = 0.5
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "geometric"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")


@dataclass(frozen=True)
class HausdorffSection:
    """The ``hausdorff`` section: depths of the upper cover sums and the
    geometry of the lower-bound probe."""

    depths: tuple[int, ...]
    probe_depth: int
    probe_level: int
    random_covers: int

    def __post_init__(self):
        if any(d < 0 for d in self.depths):
            raise ValueError(f"depths must be >= 0, got {list(self.depths)}")
        if self.probe_depth < 1 or self.probe_level < 1:
            raise ValueError("probe_depth and probe_level must be >= 1")
        if self.random_covers < 0:
            raise ValueError("random_covers must be >= 0")


SECTIONS = {"sequence": SequenceSection, "hausdorff": HausdorffSection,
            "verify": VerifyScale}


@dataclass(frozen=True)
class RunConfig:
    gauge: GaugeSpec
    theorem: object  # 1, 2 or "custom"
    sequence: SequenceSection
    depth: int
    seed: int
    eps_grid: tuple[float, ...]
    resolution: int
    safety: float
    hausdorff: HausdorffSection
    verify: VerifyScale
    digest: str


def parse_eps_grid(text: str, n: int) -> tuple[float, ...]:
    if not isinstance(text, str):
        raise ConfigError(f"bad eps grid {text!r}; expected 'lo:hi:count'")
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"bad eps grid {text!r}; expected 'lo:hi:count'") from exc
    if not (0.0 < lo <= hi <= n - 1.0) or count < 1:
        raise ConfigError(f"eps grid {text!r} outside (0, n-1]")
    if count == 1:
        return (hi,)
    return tuple(float(e) for e in np.geomspace(lo, hi, count))


def resolve_config(args: argparse.Namespace) -> RunConfig:
    data = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        data.update(loaded)
    for key in ("depth", "seed", "eps_grid", "resolution", "theorem"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)

    gauge = parse_section("gauge", data)
    sections = {name: parse_section(name, data) for name in SECTIONS}
    theorem = data["theorem"]
    if type(theorem) not in (int, str) or theorem not in (1, 2, "custom"):
        raise ConfigError(f"theorem must be 1, 2 or 'custom', got {theorem!r}")
    for key, low in (("depth", 1), ("seed", 0), ("resolution", 2)):
        if type(data[key]) is not int or data[key] < low:
            raise ConfigError(f"{key} must be a JSON integer >= {low}, got {data[key]!r}")
    safety = data["safety"]
    if type(safety) is not float or not 0.0 < safety < 1.0:
        raise ConfigError(f"safety must be a number in (0, 1), got {safety!r}")
    eps = parse_eps_grid(data["eps_grid"], gauge.n)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return RunConfig(gauge=gauge, theorem=theorem, depth=data["depth"], seed=data["seed"],
                     eps_grid=eps, resolution=data["resolution"], safety=safety,
                     digest=digest, **sections)


def parse_section(name: str, data: dict):
    """Section ``name`` of the merged config ``data`` as its typed value.

    The gauge section is read whole; any other section is a dict whose
    omitted keys take their ``DEFAULT_CONFIG`` values, then the defaults of
    its dataclass in ``SECTIONS``.  An unknown key or a value of the wrong
    type or range is a ConfigError that names the key.
    """
    section = data[name]
    try:
        if name == "gauge":
            return GaugeSpec.from_dict(section)
        if not isinstance(section, dict):
            raise ValueError("expected a JSON object")
        return from_json(SECTIONS[name], {**DEFAULT_CONFIG[name], **section})
    except ValueError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def make_scales(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.theorem == 1:
        if cfg.gauge.tau is None:
            raise ConfigError("theorem 1 requires a tau-form gauge")
        return finite_measure_sequence(cfg.gauge.tau, cfg.gauge.n, cfg.depth)
    if cfg.theorem == 2:
        return null_measure_sequence(cfg.gauge, cfg.depth, safety=cfg.safety)
    seq = cfg.sequence
    if seq.values is not None:
        if len(seq.values) != cfg.depth + 1:
            raise ConfigError("sequence values must have length depth+1")
        return seq.values
    if seq.kind == "harmonic":
        return harmonic_sequence(cfg.depth)
    return geometric_sequence(cfg.depth, seq.ratio)


def make_pack(cfg: RunConfig) -> SequencePack:
    return SequencePack.from_standard(cfg.gauge.n, make_scales(cfg))


def kind_of(cfg: RunConfig) -> str:
    return {1: "finite_measure", 2: "null_measure"}.get(cfg.theorem, "custom")


def provenance(cfg: RunConfig) -> list[str]:
    return [f"config_digest={cfg.digest}", f"seed={cfg.seed}"]


def json_data(value):
    """``value`` as JSON data: a report dataclass as the dict of its fields
    and a tuple as a list, all the way down.  It dispatches on the exact
    type, which costs least on the thousands of numbers a report holds."""
    kind = type(value)
    if kind is float or kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:
        return [json_data(v) for v in value]
    if kind is dict:
        return {k: json_data(v) for k, v in value.items()}
    names = getattr(kind, "__dataclass_fields__", None)
    if names is None:
        return value
    return {name: json_data(getattr(value, name)) for name in names}


def write_json(path: Path, payload, cfg: RunConfig) -> None:
    """The one JSON format of the artifacts: ``json_data(payload)`` with
    ``config_digest`` and ``seed`` added, keys sorted, indented by 2."""
    data = {**json_data(payload), "config_digest": cfg.digest, "seed": cfg.seed}
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def cmd_sequence(cfg: RunConfig, out: Path) -> int:
    a = make_scales(cfg)
    b, r, rt, alpha, beta = standard_scales(a)
    ks = range(cfg.depth + 1)
    check = [True]
    for k in ks[1:]:
        if cfg.theorem == "custom":
            check.append(a[k] < a[k - 1])
        else:
            observed, bound = scale_condition(cfg.gauge, cfg.theorem, k, a[k], cfg.safety)
            check.append(observed <= bound)
    with open(out / "sequence.csv", "w", newline="") as f:
        for line in provenance(cfg):
            f.write(f"# {line}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["k", "a", "b", "r", "rt", "alpha", "beta", "check"])
        for k in ks:
            writer.writerow([
                k, repr(a[k]), repr(b[k]), repr(r[k]), repr(rt[k]),
                "" if math.isnan(alpha[k]) else repr(alpha[k]),
                "" if math.isnan(beta[k]) else repr(beta[k]),
                str(check[k]).lower(),
            ])
    write_json(out / "sequence.json", {
        "k": list(ks),
        "a": list(a),
        "b": list(b),
        "r": list(r),
        "rt": list(rt),
        "alpha": [None if math.isnan(v) else v for v in alpha],
        "beta": [None if math.isnan(v) else v for v in beta],
        "check": check,
        "theorem": cfg.theorem,
        "gauge": cfg.gauge.to_dict(),
    }, cfg)
    return EXIT_OK


def read_points(lines: Iterable[str], n: int) -> Iterator[tuple[float, ...] | str]:
    """The rows of a points file, parsed as they are taken from its lines:
    the coordinates of each point line, or the error text of a line that
    is none.  Blank lines and ``#`` comments are skipped."""
    for chunk in lines:
        # str.splitlines also ends a line at \v, \f and a few more
        for line in chunk.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                yield _parse_point(line, n)


def _parse_point(line: str, n: int) -> tuple[float, ...] | str:
    try:
        vals = tuple(map(float, line.replace(",", " ").split()))
    except ValueError:
        return f"unparsable row: {line!r}"
    if len(vals) != n:
        return f"expected {n} coordinates: {line!r}"
    return vals


# rows per vectorised pass of ``cmd_eval``; it bounds the pass's memory
_EVAL_BLOCK = 4096


def cmd_eval(cfg: RunConfig, out: Path, points_path: Path) -> int:
    pmap = build(make_pack(cfg))
    n = pmap.n
    target = out / "eval.csv"
    # the points file is opened first, so a missing one leaves no eval.csv
    try:
        src = open(points_path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read points {points_path}: {exc}") from exc
    try:
        with src, open(target, "w", newline="") as f:
            rows = read_points(src, n)
            for line in provenance(cfg):
                f.write(f"# {line}\n")
            f.write(",".join([f"{c}{i + 1}" for c in ("x", "y", "back") for i in range(n)]
                             + ["depth", "region"]) + "\n")
            while block := list(itertools.islice(rows, _EVAL_BLOCK)):
                _write_eval_block(f, pmap, block)
    except UnicodeDecodeError as exc:
        # the file is decoded as it is read: drop the rows written before
        target.unlink()
        raise ConfigError(f"cannot read points {points_path}: {exc}") from exc
    return EXIT_OK


def _write_eval_block(f, pmap: PonomarevMap,
                      block: list[tuple[float, ...] | str]) -> None:
    """One domain descent, ``eval_batch``, one target descent and
    ``eval_inverse_batch`` for the block's points, then the block's rows in
    one write; a point outside the cube, or whose image is, gets an error
    row that names that point."""
    n = pmap.n
    at = np.array([i for i, row in enumerate(block) if not isinstance(row, str)], dtype=int)
    x = np.array([block[i] for i in at.tolist()], dtype=np.float64).reshape(len(at), n)
    inside = in_cube(x)
    loc = descend_batch(x[inside], pmap.pack)
    y = pmap.eval_batch(loc.x, loc)
    y_in = in_cube(y)
    back = pmap.eval_inverse_batch(y[y_in])
    lines = [_error_line([""] * n, row, n) if isinstance(row, str) else "" for row in block]
    for i in at[~inside].tolist():
        lines[i] = _error_line(list(map(repr, block[i])), outside_message(block[i], n), n)
    # the block index of each point in the cube, in the order of loc and y
    index = at[inside]
    for i, fy in zip(index[~y_in].tolist(), y[~y_in].tolist()):
        lines[i] = _error_line(list(map(repr, block[i])), outside_message(fy, n), n)
    values = np.concatenate((x[inside][y_in], y[y_in], back), axis=1).tolist()
    for i, row, depth, core in zip(index[y_in].tolist(), values, loc.depth[y_in].tolist(),
                                   loc.core[y_in].tolist()):
        lines[i] = f"{','.join(map(repr, row))},{depth},{'core' if core else 'annulus'}\n"
    f.write("".join(lines))


def _error_line(coords: list[str], message: str, n: int) -> str:
    """The eval.csv row of an error: ``coords``, blank image, inverse and
    depth, then ``error: message``.  The message of a row that is no point
    quotes its input line, which can hold ``,``, ``"`` and ``'``, so the
    row takes csv.writer's quoting."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        coords + [""] * (2 * n + 1) + [f"error: {message}"])
    return buf.getvalue()


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    report = run_suite(make_pack(cfg), gauge=cfg.gauge, kind=kind_of(cfg), seed=cfg.seed,
                       scale=cfg.verify, safety=cfg.safety)
    write_json(out / "verify.json", report, cfg)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status} {c.name}: observed={c.observed:.6g} bound={c.bound:.6g}")
    print(f"verify: {'pass' if report.passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_norms(cfg: RunConfig, out: Path) -> int:
    pmap = build(make_pack(cfg))
    rep = analysis.grand_norm_report(pmap, eps_grid=cfg.eps_grid)
    write_json(out / "norms.json", rep, cfg)
    partials, core = analysis.sobolev_depth_profile(pmap, float(pmap.n))
    write_json(out / "norms_divergence.json", {
        "p": float(pmap.n),
        "partial_sums": list(partials),
        "core_term": core,
        "total": partials[-1] + core,
    }, cfg)
    print(f"grand norm sup over {len(rep.eps)} eps points: {rep.sup:.9g}")
    return EXIT_OK


def cmd_hausdorff(cfg: RunConfig, out: Path) -> int:
    h = cfg.hausdorff
    a = make_scales(cfg)
    uppers = [analysis.upper_sum_at_scale(cfg.gauge, k, a[k])
              for k in h.depths if k <= cfg.depth]
    # "ratio_to_one" is the total again, kept so hausdorff.json keeps its keys
    payload = {"upper_sums": [{**json_data(u), "ratio_to_one": u.total} for u in uppers],
               "theorem": cfg.theorem}
    try:
        pack = SequencePack.from_standard(cfg.gauge.n, a)
    except ConstructionError as exc:
        payload["lower_probe"] = {"skipped": str(exc)}
        pack = None
    if pack is not None and h.probe_level <= pack.K:
        if h.probe_depth > h.probe_level:
            raise ConfigError(f"hausdorff probe_depth {h.probe_depth} exceeds probe_level "
                              f"{h.probe_level}: no depth-{h.probe_level} cube fits its balls")
        if h.random_covers and h.probe_depth + analysis.ANCHOR_DEPTH > pack.K:
            raise ConfigError(
                f"hausdorff probe_depth {h.probe_depth} leaves no room for random_covers: "
                f"their anchors lie {analysis.ANCHOR_DEPTH} levels deeper, past depth {pack.K}")
        rng = np.random.default_rng(cfg.seed)
        canonical = analysis.hausdorff_lower_probe(
            cfg.gauge, pack, analysis.canonical_cover(pack, h.probe_depth),
            h.probe_level)
        randomized = []
        for _ in range(h.random_covers):
            cover = analysis.random_cover(pack, h.probe_depth, rng)
            randomized.append(
                analysis.hausdorff_lower_probe(cfg.gauge, pack, cover, h.probe_level))
        payload["lower_probe"] = {
            "canonical": canonical,
            "randomized": randomized,
            "c_probe": min([canonical.ratio] + [r.ratio for r in randomized]),
        }
    write_json(out / "hausdorff.json", payload, cfg)
    if uppers:
        print(f"upper sum at depth {uppers[-1].depth}: {uppers[-1].total:.6g}")
    return EXIT_OK


def cmd_render(cfg: RunConfig, out: Path) -> int:
    if cfg.gauge.n != 2:
        raise ConfigError("render supports n = 2 only")
    pmap = build(make_pack(cfg))
    res = cfg.resolution
    comments = provenance(cfg)
    grid = render.eval_grid(pmap, res)
    render.write_grid_csv(out / "render_grid.csv", grid, comments)
    disp = render.displacement_field(grid)
    render.write_pgm(out / "displacement.pgm", render.grayscale(disp), comments)
    jac = render.jacobian_field(grid)
    render.write_ppm(out / "jacobian.ppm", render.diverging_colors(jac), comments)
    lines = render.grid_distortion(pmap, res)
    render.write_pgm(out / "grid.pgm", lines, comments)
    print(f"rendered {res}x{res} grids to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ponomap",
        description="Nested-cube homeomorphisms from gauge functions: "
                    "sequences, evaluation, verification, norms, covers, renders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("sequence", "emit the scale/coefficient table (CSV + JSON)"),
        ("eval", "evaluate the map and its inverse on a points file"),
        ("verify", "run the full invariant suite; nonzero exit on failure"),
        ("norms", "grand-norm report and p = n divergence profile"),
        ("hausdorff", "upper cover sums and the lower-bound ball probe"),
        ("render", "PGM/PPM renders and CSV grid (n = 2)"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--depth", type=int, default=None, help="truncation depth K")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--eps-grid", dest="eps_grid", default=None,
                       help="grand-norm grid as lo:hi:count")
        p.add_argument("--resolution", type=int, default=None,
                       help="render resolution (pixels per side)")
        p.add_argument("--theorem", type=int, choices=(1, 2), default=None,
                       help="sequence regime selector")
        if name == "eval":
            p.add_argument("--points", type=Path, required=True,
                           help="CSV/whitespace file of points, one per row")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out
    try:
        cfg = resolve_config(args)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {out}: {exc}") from exc
        if args.command == "sequence":
            return cmd_sequence(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out, args.points)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "norms":
            return cmd_norms(cfg, out)
        if args.command == "hausdorff":
            return cmd_hausdorff(cfg, out)
        if args.command == "render":
            return cmd_render(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PonomapError, MemoryError) as exc:
        # a size past the address space (an eps grid, Monte Carlo samples)
        # fails its allocation at once; a MemoryError of Python's own, as a
        # list grows, carries no text
        print(f"numeric error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
