"""Output checks that do not rely on the program's own verdicts.

Each ``check_<command>`` reads the artifacts one CLI invocation wrote and
returns a list of problems (empty when the output is correct).  Only the
standard library is used.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ULP1 = math.ulp(1.0)


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact in an output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def check_eval(out: Path, cmd: dict) -> list[str]:
    """``back`` returns to ``x``: within the certified truncation bound
    2 sqrt(n) rt_K on core rows, and within 8 ulps conditioned by the
    steepest annulus gradient 1/2 + 1/(2 a_K) and the inverse's Lipschitz
    constant 2 on annulus rows.  The boundary is fixed to 8 ulps."""
    n, K = cmd["n"], cmd["depth"]
    a_K = math.ldexp(cmd["r_K"], K)
    certified = 2.0 * math.sqrt(n) * math.ldexp((1.0 + a_K) / 2.0, -K)
    annulus_bound = 8.0 * ULP1 * 2.0 * (0.5 + 0.5 / a_K)
    rows = _csv_rows(out / "eval.csv")
    problems = []
    if len(rows) != cmd["rows"]:
        problems.append(f"eval.csv has {len(rows)} rows, expected {cmd['rows']}")
    for i, row in enumerate(rows):
        try:
            x = [float(row[f"x{j + 1}"]) for j in range(n)]
            y = [float(row[f"y{j + 1}"]) for j in range(n)]
            back = [float(row[f"back{j + 1}"]) for j in range(n)]
            depth = int(row["depth"])
        except ValueError:
            problems.append(f"row {i}: unparsable {row}")
            continue
        region = row["region"]
        err = max(abs(b - c) for b, c in zip(back, x))
        if region == "core":
            ok = depth == K and err <= certified
        elif region == "annulus":
            ok = 1 <= depth <= K and err <= annulus_bound
        else:
            ok = False
        if max(abs(c) for c in x) == 1.0:
            ok = ok and max(abs(b - c) for b, c in zip(y, x)) <= 8.0 * ULP1
        if not ok or max(abs(c) for c in y) > 1.0:
            problems.append(f"row {i}: region={region} depth={depth} "
                            f"|back-x|={err:.3g} x={x} y={y}")
        if len(problems) > 10:
            break
    return problems


def _raster(path: Path, magic: bytes, channels: int, res: int) -> list[str]:
    data = path.read_bytes()
    pos, fields = 0, []
    while len(fields) < 3:  # magic, "w h", maxval; comment lines skipped
        end = data.index(b"\n", pos)
        if not data.startswith(b"#", pos):
            fields.append(data[pos:end])
        pos = end + 1
    expected = [magic, f"{res} {res}".encode(), b"255"]
    if fields != expected:
        return [f"{path.name}: header {fields!r}, expected {expected!r}"]
    if len(data) - pos != res * res * channels:
        return [f"{path.name}: payload of {len(data) - pos} bytes, "
                f"expected {res * res * channels}"]
    return []


def check_render(out: Path, cmd: dict) -> list[str]:
    res = cmd["resolution"]
    problems = (_raster(out / "displacement.pgm", b"P5", 1, res)
                + _raster(out / "grid.pgm", b"P5", 1, res)
                + _raster(out / "jacobian.ppm", b"P6", 3, res))
    rows = _csv_rows(out / "render_grid.csv")
    if len(rows) != res * res:
        problems.append(f"render_grid.csv has {len(rows)} rows, expected {res * res}")
    return problems


def check_verify(out: Path, cmd: dict) -> list[str]:
    report = json.loads((out / "verify.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if report["passed"] is not True or failed:
        return [f"verify.json not passed: {failed}"]
    return []


def check_hausdorff(out: Path, cmd: dict) -> list[str]:
    data = json.loads((out / "hausdorff.json").read_text())
    probe = data.get("lower_probe", {})
    c_probe = probe.get("c_probe")
    if not isinstance(c_probe, float) or not c_probe > 0.0:
        return [f"hausdorff.json lower probe has no c_probe > 0: {probe.get('skipped')}"]
    if not data["upper_sums"]:
        return ["hausdorff.json has no upper sums"]
    return []


def check_sequence(out: Path, cmd: dict) -> list[str]:
    data = json.loads((out / "sequence.json").read_text())
    a = data["a"]
    if len(a) != cmd["depth"] + 1 or a[0] != 1.0:
        return [f"sequence.json has {len(a)} scales starting at {a[0]}"]
    if not all(data["check"]) or any(y > x for x, y in zip(a, a[1:])):
        return ["sequence.json: a failed check or an increasing scale"]
    return []


def check_norms(out: Path, cmd: dict) -> list[str]:
    rep = json.loads((out / "norms.json").read_text())
    values, bounds = rep["values"], rep["bounds"]
    problems = []
    if not len(rep["eps"]) == len(values) == len(bounds) == cmd["eps_count"]:
        problems.append(f"norms.json has {len(values)} values for {cmd['eps_count']} eps")
    over = [i for i, (v, b) in enumerate(zip(values, bounds))
            if not (math.isfinite(v) and 0.0 < v <= b)]
    if over:
        problems.append(f"norms.json: {len(over)} values above their bound, first at {over[0]}")
    div = json.loads((out / "norms_divergence.json").read_text())
    partial = div["partial_sums"]
    if any(b < a for a, b in zip(partial, partial[1:])):
        problems.append("norms_divergence.json: partial sums decrease")
    return problems


CHECKS = {"eval": check_eval, "render": check_render, "verify": check_verify,
          "hausdorff": check_hausdorff, "sequence": check_sequence,
          "norms": check_norms}


def check(cmd: dict) -> list[str]:
    """Run the check for one invocation; a missing or malformed artifact is a
    problem, not a crash."""
    try:
        return CHECKS[cmd["argv"][0]](Path(cmd["out"]), cmd)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd['label']}: unreadable output ({type(exc).__name__}: {exc})"]
