"""massfractal benchmark.

    python3 perfbench/run.py --workload asym-sweep|profile-grid|cli-roundtrip|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and CLI children get ``src`` on PYTHONPATH, so nothing needs to be
installed.  With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  Either way
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable report (sample counts, percentiles, error and oracle-miss
shares, input properties, check results).  The full report, and in a
traced run every span, is also written under ``perfbench/_out/``.
See NOTES.md for the metric definitions and findings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("asym-sweep", "profile-grid", "cli-roundtrip")
SETUP_REPEATS = 9
WARM_UP_SECONDS = 0.5
CHILD_PROBE_REPEATS = 5
# From this many samples on, p99 has at least ten samples beyond it.
TAIL_P99_FROM = 1100

PER_LAYER_UNITS = {
    "core.validate_ms": "ms", "core.validate_elems_per_s": "1/s",
    "core.family_build_ms": "ms", "core.profile_build_us": "us",
    "entropy.compress_ms": "ms", "entropy.bands_per_elem": "ratio",
    "multifractal.eval_us_per_order": "us", "multifractal.terms_per_order": "count",
    "multifractal.ns_per_term": "ns", "multifractal.sweep_overhead_share": "share",
    "multifractal.group_ms": "ms", "multifractal.points_per_elem": "ratio",
    "multifractal.order_errors": "count",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms", "cli.self_ms": "ms",
    "cli.bytes_in": "B", "cli.bytes_out": "B",
    "oracle.ms_per_cell": "ms", "oracle.cells_checked": "count",
    "trace.op_ms": "ms", "trace.untraced_op_ms": "ms", "trace.overhead_share": "share",
    "self.core": "share", "self.entropy": "share", "self.multifractal": "share",
    "self.cli": "share", "self.bench": "share",
}
PROFILE_BUILDERS = tuple(f"core.{f}_profile" for f in
                         ("max_deng", "uniform_powerset", "vacuous", "uniform_singleton"))
SWEEPS = ("multifractal.dimension_sweep", "multifractal.dimension_sweep_from_profile")
SELF_LAYERS = ("core", "entropy", "multifractal", "cli", "bench")


class Package:
    """The massfractal modules, imported from the checkout's ``src``."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import massfractal
        from massfractal import cli, core, entropy, errors, multifractal, oracle
        if Path(massfractal.__file__).resolve().parent != (root / "src" / "massfractal").resolve():
            raise SystemExit(f"imported massfractal from {massfractal.__file__}, not from src/")
        self.core, self.entropy, self.multifractal = core, entropy, multifractal
        self.cli, self.oracle, self.errors = cli, oracle, errors


# --- statistics ---

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond).  The 99th percentile once at
    least ten samples lie beyond it; with fewer samples, the highest
    percentile that has ten samples beyond it (the smallest sample when
    there are eleven or fewer)."""
    ordered = sorted(samples)
    count = len(ordered)
    index = math.ceil(0.99 * count) - 1 if count >= TAIL_P99_FROM else max(0, count - 11)
    return ordered[index], 100.0 * (index + 1) / count, count - 1 - index


def timed_child(argv, root: Path, env=None) -> float:
    t0 = perf_counter()
    subprocess.run(argv, cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_samples(workload: str, root: Path) -> list[float]:
    if workload == "cli-roundtrip":
        argv = [sys.executable, "-m", "massfractal", "table", "T4"]
    else:
        argv = [sys.executable, str(HERE / "probe.py"), workload]
    return [timed_child(argv, root, workloads.src_env(root)) for _ in range(SETUP_REPEATS)]


# --- metrics ---

def metric(value, unit, samples, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(tally, setup: list[float], oracle: dict) -> dict:
    ops = tally.op_seconds
    value, percentile, beyond = tail(ops)
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "ops_per_s": metric(len(ops) / sum(ops), "1/s", len(ops)),
        "op_p50_ms": metric(statistics.median(ops) * 1e3, "ms", len(ops)),
        "op_tail_ms": metric(value * 1e3, "ms", len(ops),
                             percentile=round(percentile, 2), beyond=beyond),
        "orders_per_s": metric(tally.orders / tally.order_seconds, "1/s", tally.orders),
        "peak_rss_mb": metric(tally.peak_rss_mb, "MB", 1),
        "oracle_digits": metric(oracle["digits"], "digits", oracle["checked"]),
    }


def per_layer(tracer, tally, cli_tally, interp: list[float], imported: list[float]) -> dict:
    spans = tracer.spans
    own = [s for s in spans if s.op[0] == "op"]
    fallback = [s for s in spans if s.op[0] == "probe"]

    def pick(*names):
        """The workload's own calls, else the probe battery's."""
        chosen = [s for s in own if s.name in names]
        return chosen or [s for s in fallback if s.name in names]

    def med(chosen, scale):
        return metric(statistics.median(s.seconds for s in chosen) * scale if chosen else 0.0,
                      "", len(chosen))

    def ratio(chosen, field_in, field_out):
        sized = [s for s in chosen if s.size is not None]
        total_in = sum(s.size[field_in] for s in sized)
        total_out = sum(s.size[field_out] for s in sized)
        return metric(total_out / total_in if total_in else 0.0, "", len(sized))

    out = {}
    validate = pick("core.validate_mass_function")
    out["core.validate_ms"] = med(validate, 1e3)
    elems = sum(s.size[0] for s in validate if s.size)
    out["core.validate_elems_per_s"] = metric(
        elems / sum(s.seconds for s in validate) if validate else 0.0, "", len(validate))
    out["core.family_build_ms"] = med(pick("core.max_deng_mass"), 1e3)
    out["core.profile_build_us"] = med(pick(*PROFILE_BUILDERS), 1e6)

    compress = pick("entropy.as_profile_bands")
    out["entropy.compress_ms"] = med(compress, 1e3)
    out["entropy.bands_per_elem"] = ratio(compress, 0, 1)

    evals = [s for s in spans if s.op[0] == "eval" and s.name == "multifractal.dimension_from_profile"]
    terms = sum(s.size[0] for s in evals if s.size)
    out["multifractal.eval_us_per_order"] = med(evals, 1e6)
    out["multifractal.terms_per_order"] = metric(terms / len(evals) if evals else 0.0, "", len(evals))
    out["multifractal.ns_per_term"] = metric(
        sum(s.seconds for s in evals) / terms * 1e9 if terms else 0.0, "", len(evals))
    sweep_by_op, eval_by_op = {}, {}
    for s in own:
        if s.name in SWEEPS:
            sweep_by_op[s.op[1]] = sweep_by_op.get(s.op[1], 0.0) + s.seconds
    for s in evals:
        eval_by_op[s.op[1]] = eval_by_op.get(s.op[1], 0.0) + s.seconds
    shares = [(sweep_by_op[i] - evaluated) / sweep_by_op[i]
              for i, evaluated in eval_by_op.items() if sweep_by_op.get(i)]
    out["multifractal.sweep_overhead_share"] = metric(
        statistics.median(shares) if shares else 0.0, "", len(shares))
    group = pick("multifractal.spectrum", "multifractal.spectrum_from_profile")
    out["multifractal.group_ms"] = med(group, 1e3)
    out["multifractal.points_per_elem"] = ratio(group, 0, 1)
    sweeps = [s for s in own if s.name in SWEEPS and s.size]
    out["multifractal.order_errors"] = metric(sum(s.size[1] for s in sweeps), "", len(sweeps))

    out["cli.interp_ms"] = metric(statistics.median(interp) * 1e3, "", len(interp))
    out["cli.import_ms"] = metric(
        (statistics.median(imported) - statistics.median(interp)) * 1e3, "", len(imported))
    mains = pick("cli.main")
    out["cli.main_ms"] = med(mains, 1e3)
    selfs = tracer.self_seconds()
    main_of = {}
    for index, span in enumerate(spans):
        parent = span.parent
        if span.name == "cli.main":
            main_of[index] = index
        elif parent is not None and parent in main_of:
            main_of[index] = main_of[parent]
    cli_self = {}
    for index, main in main_of.items():
        if spans[index].layer == "cli":
            cli_self[main] = cli_self.get(main, 0.0) + selfs[index]
    chosen = {id(s) for s in mains}
    cli_selfs = [v for k, v in cli_self.items() if id(spans[k]) in chosen]
    out["cli.self_ms"] = metric(statistics.median(cli_selfs) * 1e3 if cli_selfs else 0.0,
                                "", len(cli_selfs))
    cycles = cli_tally.cli_bytes
    out["cli.bytes_in"] = metric(statistics.median(c[0] for c in cycles), "", len(cycles))
    out["cli.bytes_out"] = metric(statistics.median(c[1] for c in cycles), "", len(cycles))

    cells = [s for s in spans if s.op[0] == "check" and s.name == "oracle.oracle_dimension"]
    out["oracle.ms_per_cell"] = med(cells, 1e3)
    out["oracle.cells_checked"] = metric(len(cells), "", len(cells))

    traced, untraced = tally.op_seconds, tally.untraced_seconds
    out["trace.op_ms"] = metric(statistics.median(traced) * 1e3, "", len(traced))
    out["trace.untraced_op_ms"] = metric(statistics.median(untraced) * 1e3, "", len(untraced))
    out["trace.overhead_share"] = metric(sum(traced) / sum(untraced) - 1.0, "", len(traced))
    op_total = sum(s.seconds for s in own if s.name == "bench.op")
    by_layer = dict.fromkeys(SELF_LAYERS, 0.0)
    for span, own_seconds in zip(spans, selfs):
        if span.op[0] == "op":
            by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own_seconds
    for layer in SELF_LAYERS:
        out[f"self.{layer}"] = metric(by_layer[layer] / op_total, "", len(traced),
                                      ms_per_op=by_layer[layer] / len(traced) * 1e3)
    for name, entry in out.items():
        entry["unit"] = PER_LAYER_UNITS[name]
    return out


# --- one workload ---

def run_workload(args, root: Path, work: Path) -> dict:
    mf = Package(root)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    setup = [] if args.trace else setup_samples(args.workload, root)
    tracer = Tracer() if args.trace else None
    cli = (workloads.CliRoundtrip(mf, args.seed, root, work)
           if args.trace or args.workload == "cli-roundtrip" else None)
    extra_tallies = []
    if args.workload == "cli-roundtrip":
        extra_tallies.append(cli.warm_up())
        tally = cli.run_traced(args.seconds, tracer) if args.trace else cli.run(args.seconds)
        cli_tally, sample = tally, cli.oracle
        report["inputs"] = cli.input_properties()
    else:
        if args.workload == "asym-sweep":
            warm = workloads.AsymSweep(mf, args.seed + 1, count=workloads.WARM_UP_F)
            workload = workloads.AsymSweep(mf, args.seed)
        else:
            warm, workload = workloads.ProfileGrid(mf, args.seed + 1), workloads.ProfileGrid(mf, args.seed)
        extra_tallies.append(warm.run(WARM_UP_SECONDS))
        tally = workload.run(args.seconds, tracer)
        sample = tally.oracle
        if args.trace:
            # probe battery: one in-process CLI cycle supplies the layer
            # metrics this workload's own ops never call
            cli_tally = cli.run_traced(0, tracer, kind="probe", cycles=1)
            extra_tallies.append(cli_tally)
        if args.workload == "profile-grid":
            report["edge_n1100"] = workload.edge_probe(tally)
        props = tally.properties
        report["inputs"] = {key: statistics.fmean(p[key] for p in props) for key in props[0]}
        report["inputs"]["distinct_inputs"] = len(props)

    if tracer is not None:
        tracer.install()
        tracer.op = ("check", 0)
    try:
        oracle = sample.run(mf.oracle.oracle_dimension)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        env = workloads.src_env(root)
        interp = [timed_child([sys.executable, "-c", "pass"], root)
                  for _ in range(CHILD_PROBE_REPEATS)]
        imported = [timed_child([sys.executable, "-c", "import massfractal.cli"], root, env)
                    for _ in range(CHILD_PROBE_REPEATS)]
        metrics = per_layer(tracer, tally, cli_tally, interp, imported)
    else:
        metrics = end_to_end(tally, setup, oracle)

    check_failures = tally.check_failures + [f for t in extra_tallies for f in t.check_failures]
    warm_failures = [f for t in extra_tallies for f in t.failures]
    report.update({
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_share": len(tally.failures) / tally.attempted,
        "failures": tally.failures[:20] + warm_failures[:20],
        "oracle_miss_share": oracle["misses"] / max(1, oracle["checked"]),
        "oracle": {k: v for k, v in oracle.items() if k != "missed"},
        "oracle_missed": oracle["missed"][:40],
        "outputs_checked": tally.checked,
        "check_failures": check_failures[:20],
        "notes": tally.notes,
        "metrics": metrics,
        "op_seconds": tally.op_seconds,
    })
    report["correct"] = (not check_failures and not warm_failures
                         and tally.checked > 0 and oracle["checked"] > 0)
    if tracer is not None:
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as handle:
            for index, s in enumerate(tracer.spans):
                handle.write(json.dumps({"id": index, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent,
                                         "op": list(s.op), "size": s.size}) + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}"
          f"  trace={report['trace']}")
    for name, m in report["metrics"].items():
        extra = "".join(f"  {k}={v}" for k, v in m.items() if k not in ("value", "unit", "samples"))
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}{extra}")
    print(f"  error_share {report['error_share']:.6g} ({report['failed']} of "
          f"{report['attempted']} ops failed)")
    print(f"  oracle_miss_share {report['oracle_miss_share']:.6g} ({report['oracle']['misses']} of "
          f"{report['oracle']['checked']} cells beyond 1e-12 relative)")
    print(f"  outputs checked {report['outputs_checked']}, check failures "
          f"{len(report['check_failures'])}, correct={report['correct']}")
    for failure in report["check_failures"] + report["failures"]:
        print(f"    ! {failure}")
    print(f"  inputs {json.dumps(report['inputs'])}")
    if "edge_n1100" in report:
        print(f"  edge n=1100 (untimed, not counted) {json.dumps(report['edge_n1100'])}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "massfractal" / "__init__.py").is_file():
        sys.stderr.write("error: run from the root of a massfractal checkout (no src/massfractal)\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        report = run_workload(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((HERE / "_work").iterdir()):
            (HERE / "_work").rmdir()
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
