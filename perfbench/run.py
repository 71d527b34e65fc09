"""ponomap benchmark: drives the real CLI on seeded inputs and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload pointmap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each run generates its inputs from ``--seed``, times set-up in fresh
processes, then runs the workload's CLI invocations in one fresh process
for ``--seconds`` seconds and checks every output.  The traced run runs the
workload twice, untraced and then with every layer wrapped in spans, for
half the time each; the ratio of their pass times is the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  ``--record-digests 0-15`` re-records the artifact
digests that later runs must reproduce byte for byte.
"""

from __future__ import annotations

import os

# one compute thread in this process and every process it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402
from tracer import EXPECTED  # noqa: E402

SETUP_PROBES = 5
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 170

# Every workload reports every end-to-end metric, so these are the ones that
# apply to all three; the per-command figures below apply to one workload
# each and are report lines.
#
# On a shared host the speed a process gets can swing by up to 1.8x for
# seconds to minutes, and CPU time swings with it, so raw times of one run
# mostly measure the neighbours.  setup_s and wall_s are therefore given at
# a reference host speed: each timed interval is multiplied by
# CAL_REF_S / (the calibration loop's time measured next to it), where the
# calibration loop (worker.calibrate) is fixed pure-Python work that does
# not touch the program.  A change to the program moves them in full; a
# change of host speed mostly cancels.  Raw times are printed as report
# lines.  wall_s is the mean normalised pass time over the run, setup_s the
# median of the normalised set-up probes.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
CAL_REF_S = 0.0025

# per-command figures: name, unit, command labels, work unit per command
COMMAND_METRICS = {
    "pointmap": [("eval_pts_per_s", "points/s", ["eval"], "rows"),
                 ("render_px_per_s", "pixels/s", ["render"], "pixels")],
    "certify": [("verify_s", "s", ["verify"], None),
                ("hausdorff_s", "s", ["hausdorff"], None)],
    "norms": [("sequence_s", "s", [f"sequence-{g}" for g in
                                   ("log", "log_power", "exp_inverse")], None),
              ("norms_s", "s", [f"norms-{g}" for g in
                                ("log", "log_power", "exp_inverse")], None)],
}

SPAN_TIMES = [
    "cantor.descend", "cantor.SequencePack.validate",
    *(f"mapping.{m}" for m in ("eval", "eval_inverse", "locate", "jacobian_det",
                               "derivative", "build")),
    "render.eval_grid", "render.displacement_field", "render.jacobian_field",
    "render.grid_distortion", "render.writers",
    *(f"analysis.{f}" for f in ("shell_integral", "grand_norm_report",
                                "sobolev_depth_profile", "shell_integral_mc",
                                "pushforward_check", "upper_sum_at_scale",
                                "random_cover", "hausdorff_lower_probe")),
    "gauge.finite_measure_sequence", "gauge.null_measure_sequence",
    *(f"verify.{f}" for f in ("_check_pack", "_check_cantor", "_check_map",
                              "_check_jacobian", "_check_measures", "_check_norms",
                              "_check_gauge")),
    "cli.read_points", "cli.resolve_config",
]
SPAN_CALLS = ["cantor.descend", "cantor.SequencePack.validate",
              *(f"mapping.{m}" for m in ("eval", "eval_inverse", "locate",
                                         "jacobian_det", "derivative", "build")),
              "render.eval_grid", "analysis.shell_integral",
              "analysis.hausdorff_lower_probe", "gauge.tau_root"]
SELF_TIMES = ["cantor.descend", *(f"mapping.{m}" for m in (
    "eval", "eval_inverse", "locate", "jacobian_det", "derivative", "build"))]


PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in SPAN_CALLS},
    **{f"{n}.s": "s" for n in SPAN_TIMES},
    **{f"{n}.self_s": "s" for n in SELF_TIMES},
    "cantor.descend.mean_depth": "levels",
    "cantor.descend.core_share": "ratio",
    "cantor.descend.per_output": "1/output",
    "cantor.descend.per_eval_row": "1/row",
    "cantor.descend.per_pixel": "1/pixel",
    "cantor.center.calls": "count",
    "mapping.ridge_errors": "count",
    "render.bytes_written": "B",
    "gauge.tau_evals": "count",
    "gauge.tau_evals_per_root": "1/root",
    "gauge.eval_h.calls": "count",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.make_scales.calls": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _sha(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _run_worker(plan: dict, work: Path, tag: str) -> dict:
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    _child(["run", str(plan_path), str(result_path)])
    return json.loads(result_path.read_text())


def _digest_table() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def _plan(name: str, seed: int, work: Path, seconds: float, tiny: bool) -> dict:
    table = _digest_table()
    plan = workloads.build(name, seed, work / "inputs", tiny)
    ref = workloads.build(name, 0, work / "reference", tiny=True)
    plan.update({
        "seconds": seconds, "trace": False, "reference": ref,
        "expect_reference": table.get("reference", {}).get(name, {}),
        "expect": None if tiny else table.get("full", {}).get(name, {}).get(str(seed)),
        "trace_file": str(ROOT / ".perfbench" / f"trace-{name}.npz"),
    })
    return plan


def _records(result: dict) -> list[dict]:
    return result["reference"] + [r for p in result["passes"] for r in p]


def _at_ref_speed(seconds: float, cal: list[float]) -> float:
    return seconds * CAL_REF_S / statistics.mean(cal)


def _pass_times(result: dict) -> tuple[list[float], list[float]]:
    """Raw and normalised time of each pass of a worker run."""
    raw = [sum(r["wall_s"] for r in p) for p in result["passes"]]
    ref = [sum(_at_ref_speed(r["wall_s"], r["cal_s"]) for r in p)
           for p in result["passes"]]
    return raw, ref


def _command_figures(name: str, plan: dict, result: dict) -> dict:
    """Per-command figures: list of per-pass values for each metric."""
    info = {c["label"]: c for c in plan["commands"]}
    out = {}
    for metric, unit, labels, work in COMMAND_METRICS[name]:
        values = []
        for p in result["passes"]:
            wall = sum(r["wall_s"] for r in p if r["label"] in labels)
            if work == "rows":
                values.append(info[labels[0]]["rows"] / wall)
            elif work == "pixels":
                values.append(info[labels[0]]["resolution"] ** 2 / wall)
            else:
                values.append(wall)
        out[metric] = (values, unit)
    return out


def _layer_metrics(plan: dict, stats: dict) -> dict[str, float]:
    spans, counts, by_cmd = stats["spans"], stats["counts"], stats["by_command"]

    def calls(n):
        return spans.get(n, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for n in SPAN_CALLS:
        m[f"{n}.calls"] = calls(n)
    for n in SPAN_TIMES:
        m[f"{n}.s"] = spans.get(n, {}).get("s", 0.0)
    for n in SELF_TIMES:
        m[f"{n}.self_s"] = spans.get(n, {}).get("self_s", 0.0)
    descents = calls("cantor.descend")
    info = {c["label"]: c for c in plan["commands"]}
    rows = info["eval"]["rows"] if "eval" in info else 0
    pixels = info["render"]["resolution"] ** 2 if "render" in info else 0
    in_eval = by_cmd.get("cantor.descend@cli.eval", 0)
    in_render = by_cmd.get("cantor.descend@cli.render", 0)
    m.update({
        "cantor.descend.mean_depth": ratio(counts.get("cantor.descend.depth_sum", 0), descents),
        "cantor.descend.core_share": ratio(counts.get("cantor.descend.core", 0), descents),
        "cantor.descend.per_output": ratio(in_eval + in_render, rows + pixels),
        "cantor.descend.per_eval_row": ratio(in_eval, rows),
        "cantor.descend.per_pixel": ratio(in_render, pixels),
        "cantor.center.calls": counts.get("cantor.center.calls", 0),
        "mapping.ridge_errors": sum(counts.get(f"mapping.{f}.raised.RidgeSetError", 0)
                                    for f in ("jacobian_det", "derivative")),
        "render.bytes_written": counts.get("render.bytes_written", 0),
        "gauge.tau_evals": counts.get("gauge.tau_evals", 0),
        "gauge.tau_evals_per_root": ratio(counts.get("gauge.tau_evals", 0),
                                          calls("gauge.tau_root")),
        "gauge.eval_h.calls": counts.get("gauge.eval_h.calls", 0),
        "verify.checks": counts.get("verify.checks", 0),
        "verify.checks_failed": counts.get("verify.checks_failed", 0),
        "cli.make_scales.calls": counts.get("cli.make_scales.calls", 0),
        "trace.spans": stats["span_count"],
    })
    return m


def _missed_wrappers(name: str, stats: dict) -> list[str]:
    spans, counts = stats["spans"], stats["counts"]
    return sorted(w for w in EXPECTED[name]
                  if not (spans.get(w, {}).get("calls") or counts.get(w)
                          or counts.get(f"{w}.calls")))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, say=print) -> dict:
    """Run one workload and return its result object (also reported via
    ``say``, one line per figure)."""
    work = ROOT / ".perfbench" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(name, seed, seconds, trace, tiny, say, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, tiny, say, work) -> dict:
    import numpy
    import scipy

    plan = _plan(name, seed, work, seconds / 2 if trace else seconds, tiny)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "config_sha256": {Path(c).name: _sha(c) for c in plan["configs"]}}
    say(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
        f" tiny={int(tiny)} nproc={env['nproc']} python={env['python']}"
        f" numpy={env['numpy']} scipy={env['scipy']}")
    for cfg, sha in env["config_sha256"].items():
        say(f"# config {cfg} sha256={sha}")

    setups, setups_raw = [], []
    if not trace:
        for _ in range(2 if tiny else SETUP_PROBES):
            probe = json.loads(_child(["setup", *plan["configs"]]).strip().splitlines()[-1])
            setups_raw.append(probe["setup_s"])
            setups.append(_at_ref_speed(probe["setup_s"], probe["cal_s"]))
    plain = _run_worker(plan, work, "plain")
    records = _records(plain)
    problems = [f"{r['label']}: {p}" for r in records for p in r["problems"]]
    digests = {"reference": [r["digests"] for r in plain["reference"]],
               "passes": [r["digests"] for r in plain["passes"][0]]}
    pass_walls, pass_refs = _pass_times(plain)
    cals = [c for p in plain["passes"] for r in p for c in r["cal_s"]]
    result = {"workload": name, "seed": seed, "env": env, "digests": digests,
              "pass_walls": pass_walls, "pass_ref_s": pass_refs,
              "invocations": [[{k: r[k] for k in ("label", "wall_s", "cal_s")} for r in p]
                              for p in plain["passes"]],
              "checked": sorted({r["label"] for r in records if r["checked"]})}

    say(f"# passes={len(pass_walls)} invocations={len(records)}")
    for metric, (values, unit) in _command_figures(name, plan, plain).items():
        say(f"# {metric} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)}, range {min(values):.6g}..{max(values):.6g})")

    if trace:
        traced_plan = dict(plan, trace=True)
        traced = _run_worker(traced_plan, work, "traced")
        records += _records(traced)
        problems += [f"traced {r['label']}: {p}" for r in _records(traced)
                     for p in r["problems"]]
        traced_digests = {"reference": [r["digests"] for r in traced["reference"]],
                          "passes": [r["digests"] for r in traced["passes"][0]]}
        result["traced_digests"] = traced_digests
        if traced_digests != digests:
            problems.append("traced run wrote different artifact bytes than the untraced run")
        missed = _missed_wrappers(name, traced["trace"][0])
        if missed:
            problems.append(f"wrappers with zero calls: {missed}")
        per_pass = [_layer_metrics(plan, s) for s in traced["trace"]]
        values = {k: statistics.median([p[k] for p in per_pass]) for k in per_pass[0]}
        traced_refs = _pass_times(traced)[1]
        values["trace.overhead_pct"] = 100.0 * (
            statistics.mean(traced_refs) / statistics.mean(pass_refs) - 1.0)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        fail_ratio = sum(bool(r["problems"]) for r in records) / len(records)
        say(f"# fail_ratio = {fail_ratio:.6g} failed/attempted")
        say(f"# setup_s samples at reference speed: {', '.join(f'{s:.4f}' for s in setups)}"
            f"; raw: {', '.join(f'{s:.4f}' for s in setups_raw)}")
        say(f"# raw pass wall: median {statistics.median(pass_walls):.6g} s, max "
            f"{max(pass_walls):.6g} s over {len(pass_walls)} passes "
            f"({', '.join(f'{w:.4f}' for w in pass_walls)})")
        say(f"# pass at reference speed: median {statistics.median(pass_refs):.6g} s, "
            f"max {max(pass_refs):.6g} s")
        say(f"# host calibration loop: median {1e3 * statistics.median(cals):.4g} ms, "
            f"range {1e3 * min(cals):.4g}..{1e3 * max(cals):.4g} ms over {len(cals)} "
            f"(reference {1e3 * CAL_REF_S:.4g} ms)")
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.mean(pass_refs),
                  "peak_rss_mb": plain["peak_rss_kib"] / 1024.0}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    for k, v in metrics.items():
        say(f"# metric {k} = {v['value']:.6g} {v['unit']}")
    for p in problems[:20]:
        say(f"# PROBLEM {p.strip().splitlines()[-1]}")
    failed = sum(bool(r["problems"]) for r in records)
    result.update({"correct": not problems, "attempted": len(records),
                   "failed": failed, "metrics": metrics, "problems": problems})
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def record_digests(seeds: list[int], names) -> None:
    """Record the artifact digests of the reference pass and of one full
    pass per seed; every later run must reproduce them byte for byte."""
    table = _digest_table()
    for name in names:
        work = ROOT / ".perfbench" / f"record-{name}-p{os.getpid()}"
        try:
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                plan = _plan(name, seed, work, 0, tiny=False)
                plan["expect"], plan["expect_reference"] = None, {}
                res = _run_worker(plan, work, "record")
                bad = [p for r in _records(res) for p in r["problems"]]
                if bad:
                    raise RuntimeError(f"{name} seed {seed}: {bad}")
                table.setdefault("reference", {})[name] = {
                    r["label"]: r["digests"] for r in res["reference"]}
                table.setdefault("full", {}).setdefault(name, {})[str(seed)] = {
                    r["label"]: r["digests"] for r in res["passes"][0]}
                print(f"recorded {name} seed {seed}", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI", default=None,
                        help="re-record artifact digests for these seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ponomap" / "cli.py").is_file():
        print(f"error: no ponomap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_digests is not None:
        record_digests(_seed_range(args.record_digests), names)
        return 0
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
