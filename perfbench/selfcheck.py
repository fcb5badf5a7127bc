"""Quick self-check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It confirms that every metric named in
BENCHMARK.json is emitted, with its unit and a sample count, by each
workload in both modes; that an op which raises is counted as attempted
and failed, not skipped; that an oracle miss is counted; and that the
near-1 orders are always in the oracle sample.  Exits 1 on the first
failed confirmation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads

ROOT = Path.cwd()


def confirm(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mf = run.Package(ROOT)
    workloads.ASYM_F = 400
    workloads.GRID_NS = (2, 4)
    work = run.HERE / "_work" / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
                report = run.run_workload(args, ROOT, work)
                metrics = report["metrics"]
                wanted = {m["name"]: m["unit"] for m in spec[section]}
                confirm(set(metrics) == set(wanted),
                        f"{workload} trace={trace}: emits exactly the {section} metrics")
                confirm(all(metrics[k]["unit"] == u and isinstance(metrics[k]["samples"], int)
                            for k, u in wanted.items()),
                        f"{workload} trace={trace}: every metric has its unit and a sample count")
                confirm(report["correct"], f"{workload} trace={trace}: outputs pass their checks")
                cells = report["oracle"]["checked"]
                near = {c["alpha"] for c in report["oracle_missed"]} & set(checks.NEAR_ONE_ORDERS)
                print(f"     oracle cells {cells}, near-1 misses at {sorted(near)}")

        # a failing op is counted: one pass of the n=1100 ops, inside the
        # counted loop
        class EdgePass(workloads.ProfileGrid):
            def inputs(self):
                return iter([(family, workloads.EDGE_N) for family in workloads.FAMILIES])

        grid = EdgePass(mf, 1)
        raising = sum(1 for family in workloads.FAMILIES
                      if _raises(lambda: grid.op((family, workloads.EDGE_N))))
        tally = grid.run(60.0)
        confirm(tally.attempted == len(workloads.FAMILIES)
                and tally.attempted == len(tally.op_seconds) + len(tally.failures),
                "every attempted op is either timed or counted as failed")
        confirm(len(tally.failures) == raising,
                f"n=1100: the {raising} raising builders are counted as failed ops")
        for failure in tally.failures:
            print(f"     {failure}")

        # an oracle miss is counted, and near-1 cells are always sampled
        ref = checks.family_reference("max_deng", 6)
        sweep = mf.multifractal.dimension_sweep_from_profile(mf.core.max_deng_profile(6), checks.ORDERS)
        values = {e.alpha: e.result.value for e in sweep}
        sample = checks.OracleSample()
        for alpha in checks.pick_orders(grid.rng, values):
            sample.add("max_deng n=6", ref, alpha, values[alpha])
        exact = mf.oracle.oracle_dimension(ref.exact, 2.0)
        sample.add("exact", ref, 2.0, exact)
        sample.add("off by 1e-9", ref, 2.0, exact * (1 + 1e-9))
        result = sample.run(mf.oracle.oracle_dimension)
        missed = {(m["input"], m["alpha"]) for m in result["missed"]}
        confirm(result["checked"] == 8, "every sampled cell is checked")
        confirm(("off by 1e-9", 2.0) in missed and ("exact", 2.0) not in missed,
                "a cell beyond 1e-12 counts as a miss, an exact one as a hit")
        print(f"     program near-1 misses on max_deng n=6: "
              f"{sorted(a for i, a in missed if i == 'max_deng n=6')}")

        confirm(run.tail([float(i) for i in range(100)])[:2] == (89.0, 90.0)
                and run.tail([float(i) for i in range(2000)])[:2] == (1979.0, 99.0),
                "tail: p99, or the highest percentile with ten samples beyond it")

        # finding: a negative first order needs the --alpha=<list> spelling
        for argv in (["--alpha", "-2,0,1"], ["--alpha=-2,0,1"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = mf.cli.main(["dimension", "--family", "max-deng", "--n", "4", *argv])
                except SystemExit as stop:
                    code = stop.code
            print(f"     finding: dimension {' '.join(argv)} exits {code}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    return 0


def _raises(call) -> bool:
    try:
        call()
    except Exception:  # the failure being counted
        return True
    return False


if __name__ == "__main__":
    sys.exit(main())
