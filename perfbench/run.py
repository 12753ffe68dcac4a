"""Layered benchmark for `lh`.

    python3 perfbench/run.py --workload tail-loop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `lh` is imported from `src/`. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` they are its per-layer metrics, taken from
spans around every call the benchmark makes into an `lh` module. Timings are
scaled to a reference interpreter speed (see `calib.py`). A fuller report
(raw timings, exact counts, environment, failures) and, with `--trace 1`,
the spans are written to `perfbench/out/`.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calib import KERNEL_REF_S, Speed, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_SHARE = 0.2  # share of --seconds spent measuring the tracing overhead
LAYERS = ("bench", "surface", "typecheck", "semantics", "metering", "harness", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["tail-loop", "fuzz-diff", "trace-check"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def setup_sample(args) -> float:
    """Set-up time of a fresh process: import plus input building."""

    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(run, workload, seconds: float, speed: Speed, prefix_end) -> float:
    """Run operations until the counted prefix is done and `seconds` passed,
    sampling the calibration kernel between them."""

    start = perf_counter()
    prefix_done = False
    speed.sample()
    for op in workload.ops():
        if op is prefix_end:
            run.counting = False
            prefix_done = True
            continue
        if prefix_done and perf_counter() - start >= seconds:
            break
        run.execute(op)
        if speed.due():
            speed.sample()
    speed.sample()
    return perf_counter() - start


def overhead_probe(workload, seconds: float, wl):
    """Traced over untraced wall time of the same leading operations. Each
    runs once to warm the caches `lh` keeps, then once each way in
    alternating order, each time from a collected heap. The two runs of a
    pair are adjacent, so their times are compared unscaled."""

    probe = wl.Run(wl.Tracer(True))
    probe.counting = False
    spent = {True: 0.0, False: 0.0}
    start = perf_counter()
    ops = (op for op in workload.ops() if op is not wl.PREFIX_END and op.cls is not None)
    for i, op in enumerate(ops):
        probe.tracer.enabled = False
        probe.execute(op)
        for enabled in ((True, False) if i % 2 == 0 else (False, True)):
            probe.tracer.enabled = enabled
            gc.collect()
            t0 = perf_counter()
            probe.execute(op)
            spent[enabled] += perf_counter() - t0
        if perf_counter() - start >= PROBE_SHARE * seconds:
            break
    return spent[True] / spent[False], probe


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def throughputs(run, scale) -> dict:
    rates = run.rates(scale)
    return {
        "run_steps_per_s": rates["plain"],
        "space_steps_per_s": rates["space"],
        "trace_steps_per_s": rates["trace"],
        "programs_per_s": rates["front"],
        "checked_steps_per_s": rates["check"],
    }


def per_layer(run, overhead_ratio: float, scale, modes, depths) -> dict:
    """Per-layer metrics from the spans of a traced run. A layer the workload
    never calls reads 0."""

    spans = run.tracer.totals(scale)
    lw, counts = run.layer_work, run.counts

    def per_work(name, mode, factor):
        return factor * _ratio(spans.get((name, mode), (0.0, 0))[0], lw.get((name, mode), 0))

    def per_call(name, factor):
        hits = [v for (n, _), v in spans.items() if n == name]
        return factor * _ratio(sum(s for s, _ in hits), sum(c for _, c in hits))

    out = {}
    for m in modes:
        plain = per_work("semantics.eval", m, 1e6)
        metered = per_work("metering.eval_metered", m, 1e6)
        out[f"semantics.eval.us_per_step.{m.value}"] = plain
        out[f"semantics.eval.steps.{m.value}"] = counts.get(f"semantics.eval.steps.{m.value}", 0)
        out[f"metering.eval_metered.us_per_step.{m.value}"] = metered
        out[f"metering.overhead_x.{m.value}"] = _ratio(metered, plain)
        out[f"semantics.eval_traced.us_per_step.{m.value}"] = per_work("semantics.eval_traced", m, 1e6)
        out[f"harness.check_trace.us_per_term.{m.value}"] = per_work("harness.check_trace", m, 1e6)
        for n in depths:
            key = f"metering.pending_peak.{m.value}.n{n}"
            out[key] = counts.get(key, 0)
    out["harness.check_trace.terms"] = counts.get("harness.check_trace.terms", 0)
    out["surface.parse.us_per_char"] = per_work("surface.parse", None, 1e6)
    out["surface.print_term.s"] = per_call("surface.print_term", 1.0)
    out["typecheck.check_source.ms_per_program"] = per_call("typecheck.check_source", 1e3)
    out["harness.gen_source.ms_per_program"] = per_call("harness.gen_source", 1e3)
    out["harness.diff_modes.ms_per_program"] = per_call("harness.diff_modes", 1e3)
    programs = counts.get("harness.diff_modes.programs", 0)
    out["harness.diff_modes.pass_ratio"] = _ratio(counts.get("harness.diff_modes.pass", 0), programs)
    out["harness.diff_modes.skipped"] = counts.get("harness.diff_modes.skipped", 0)
    out["harness.diff_modes.budget_exceeded"] = counts.get("harness.diff_modes.budget_exceeded", 0)
    out["cli.main.s"] = per_call("cli.main", 1.0)
    self_s = run.tracer.self_seconds(scale)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    k_before = statistics.mean(kernel_seconds() for _ in range(5))
    t_setup = perf_counter()
    try:
        import workloads as wl
        from loops import METER_DEPTHS
    except ImportError as exc:
        print(f"error: cannot import lh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(wl.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lh was imported from {wl.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    # set-up calls into lh are spanned too, outside any operation
    run = wl.Run(wl.Tracer(bool(args.trace)))
    workload = wl.WORKLOADS[args.workload](args.seed, OUT, ROOT, run)
    own_setup = perf_counter() - t_setup
    k_after = statistics.mean(kernel_seconds() for _ in range(5))
    own_setup *= 2 * KERNEL_REF_S / (k_before + k_after)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    setup_s = statistics.median([own_setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)])

    speed = Speed()
    window = measure(run, workload, args.seconds, speed, wl.PREFIX_END)
    raw = throughputs(run, lambda t: 1.0)
    if args.trace:
        ratio, probe = overhead_probe(workload, args.seconds, wl)
        run.attempted += probe.attempted
        run.failures += probe.failures
        metrics = per_layer(run, ratio, speed.scale, wl.ALL_MODES, METER_DEPTHS)
        spec = declared["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": _ratio(run.attempted - len(run.failures), run.attempted),
            **throughputs(run, speed.scale),
        }
        spec = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "window_s": window,
        "environment": environment(),
        "counts": dict(sorted(run.counts.items())),
        "raw_throughputs": raw,
        "kernel_s": {"median": statistics.median(speed.kernels), "min": min(speed.kernels), "max": max(speed.kernels)},
        "failures": run.failures[:20],
        **result,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    if args.trace:
        run.tracer.dump(OUT / f"{stem}-spans.json")
    print(json.dumps({"environment": report["environment"], "counts": report["counts"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
