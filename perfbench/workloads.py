"""The three workloads, each a closed loop with one caller.

asym-sweep    one random dyadic mass function per op (n=16, F=20,000):
              validate -> dimension_sweep(ORDERS) -> spectrum.
profile-grid  one (family, n) pair per op over all four profile builders:
              <family>_profile(n) -> dimension_sweep_from_profile(ORDERS)
              -> spectrum_from_profile.
cli-roundtrip one CLI invocation per op, in a child process, cycling
              through family/spectrum/dimension/sweep/table/envelope.

Every op's output is checked outside the timed region.  In a traced run
each library op runs twice on the same input, untraced then traced, so the
gap between the two is the tracing overhead; the CLI is traced in-process
through ``cli.main``, since spans cannot cross into a child process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from checks import ORDERS, CheckFailed, OracleSample, Reference

ASYM_N = 16
ASYM_F = 20_000
CLI_ASYM_F = 5_000
# Focal elements of the asym-sweep warm-up input: the same code paths at a
# tenth of the cost.
WARM_UP_F = 2_000
DYADIC_BITS = 20
# Ops whose inputs join the oracle sample (asym-sweep).
ORACLE_OPS = 2
# Traced asym ops that also time per-order evaluation on pre-built bands.
EVAL_PROBE_OPS = 2

FAMILIES = ("max_deng", "uniform_powerset", "vacuous", "uniform_singleton")
GRID_NS = tuple(range(2, 21, 2)) + (50, 100, 200, 400)
# Frame size at which the max-deng and uniform-powerset profiles fail
# (underflow, overflow).  Timed ops must not fail, so these run once per run
# outside the timed, counted ops.
EDGE_N = 1100

SWEEP_ARGS = ["--alpha-start=-2", "--alpha-stop=30", "--alpha-step=0.5"]
SWEEP_ORDERS = 65
ORDER_COUNTS = {"dimension": len(ORDERS), "sweep": SWEEP_ORDERS}
TABLES = ("T1", "T2", "T3", "T4", "T5", "T6")
GOLDEN = Path(__file__).resolve().parent / "golden"


def dyadic_masses(rng: random.Random, parts: int) -> list[float]:
    """A random composition of 1 into exact multiples of 2**-20."""
    total = 1 << DYADIC_BITS
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [(hi - lo) / total for lo, hi in zip(bounds, bounds[1:])]


def random_raw(seed: int, index: int, n: int, count: int):
    """The test-suite construction: ``count`` distinct random subsets of an
    n-frame carrying dyadic masses."""
    rng = random.Random(seed * 1_000_003 + index)
    masks = rng.sample(range(1, 2 ** n), count)
    masses = dyadic_masses(rng, count)
    raw = [(tuple(i for i in range(n) if mask >> i & 1), mass)
           for mask, mass in zip(masks, masses)]
    return raw, Reference.from_masses(n, [(len(s), m) for s, m in raw])


class Tally:
    """What a workload loop measured."""

    def __init__(self):
        self.op_seconds: list[float] = []      # successful timed ops
        self.untraced_seconds: list[float] = []  # traced run: paired untraced op
        self.attempted = 0
        self.failures: list[str] = []
        self.orders = 0
        self.order_seconds = 0.0
        self.checked = 0
        self.check_failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.properties: list[dict] = []
        self.notes: dict = {}
        self.oracle = OracleSample()
        self.cli_bytes: list[tuple[int, int]] = []

    def failed(self, what: str, error: BaseException) -> None:
        self.failures.append(f"{what}: {type(error).__name__}: {error}")


def guarded(tally: Tally, check, *args) -> None:
    """Run a check; any exception it raises is a failed check, recorded."""
    try:
        check(*args)
    except Exception as error:  # a changed API fails the check, not the run
        tally.check_failures.append(f"{type(error).__name__}: {error}")


def src_env(root: Path) -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LibraryWorkload:
    """Shared loop of the two library workloads.

    Subclasses provide ``inputs()`` (an endless seeded iterator), ``op``
    (the timed calls), ``check`` and ``bands`` (pre-built bands for the
    per-order evaluation probe).
    """

    collect_between_ops = False

    def __init__(self, mf, seed: int):
        self.mf = mf
        self.seed = seed
        self.rng = random.Random(seed)
        self.seen: set = set()

    def record_input(self, key, ref, sweep, tally, sample: bool) -> None:
        """Once per distinct input: its measured properties and, when
        ``sample``, its oracle cells."""
        if key in self.seen:
            return
        self.seen.add(key)
        tally.properties.append(ref.properties())
        if sample:
            values = {e.alpha: e.result.value for e in sweep if e.result is not None}
            for alpha in checks.pick_orders(self.rng, values):
                tally.oracle.add(str(key), ref, alpha, values[alpha])

    def run(self, seconds: float, tracer=None) -> Tally:
        tally = Tally()
        start = perf_counter()
        last = 0.0
        for index, item in enumerate(self.inputs()):
            if index and perf_counter() - start + last > seconds:
                break
            began = perf_counter()
            if self.collect_between_ops:
                gc.collect()
            tally.attempted += 1
            try:
                if tracer is not None:
                    untraced, out = self._timed(item)
                    tally.untraced_seconds.append(untraced)
                    guarded(tally, self.check, item, out, tally, index)
                    del out
                    if self.collect_between_ops:
                        gc.collect()
                    elapsed, out = self._traced(item, tracer, ("op", index))
                else:
                    elapsed, out = self._timed(item)
            except Exception as error:  # an op that raises counts as failed
                tally.failed(self.describe(item), error)
            else:
                tally.op_seconds.append(elapsed)
                guarded(tally, self.check, item, out, tally, index)
                if tracer is not None and index < self.eval_probe_ops:
                    guarded(tally, self.eval_probe, item, out, tracer, index)
            last = perf_counter() - began
        tally.peak_rss_mb = peak_rss_mb()
        tally.orders = len(tally.op_seconds) * len(ORDERS)
        tally.order_seconds = sum(tally.op_seconds)
        return tally

    def _timed(self, item):
        t0 = perf_counter()
        out = self.op(item)
        return perf_counter() - t0, out

    def _traced(self, item, tracer, op_id):
        tracer.install()
        root = tracer.begin("bench.op", op_id)
        try:
            out = self.op(item)
        finally:
            elapsed = tracer.end(root)
            tracer.uninstall()
        return elapsed, out

    def eval_probe(self, item, out, tracer, index) -> None:
        """Time dimension_from_profile per order on bands built once."""
        tracer.install()
        root = tracer.begin("bench.eval", ("eval", index))
        try:
            bands = self.bands(item, out)
            for alpha in ORDERS:
                try:
                    self.mf.multifractal.dimension_from_profile(bands, alpha)
                except self.mf.errors.MassFractalError:
                    pass
        finally:
            tracer.end(root)
            tracer.uninstall()


class AsymSweep(LibraryWorkload):
    collect_between_ops = True
    eval_probe_ops = EVAL_PROBE_OPS

    def __init__(self, mf, seed: int, count: int | None = None):
        super().__init__(mf, seed)
        self.count = ASYM_F if count is None else count

    def inputs(self):
        index = 0
        while True:
            yield random_raw(self.seed, index, ASYM_N, self.count)
            index += 1

    def describe(self, item) -> str:
        return f"asym n={ASYM_N} F={self.count}"

    def op(self, item):
        core, mf = self.mf.core, self.mf.multifractal
        raw, _ = item
        m = core.validate_mass_function(core.FrameOfDiscernment(ASYM_N), raw)
        return m, mf.dimension_sweep(m, ORDERS), mf.spectrum(m)

    def check(self, item, out, tally, index) -> None:
        _, ref = item
        m, sweep, spectrum = out
        if m.focal_count != self.count:
            raise CheckFailed(f"validated {m.focal_count} focal elements of {self.count}")
        checks.check_sweep(ref, sweep)
        checks.check_spectrum(ref, spectrum)
        tally.checked += 1
        self.record_input(f"asym#{index}", ref, sweep, tally, index < ORACLE_OPS)

    def bands(self, item, out):
        return self.mf.entropy.as_profile_bands(out[0])


class ProfileGrid(LibraryWorkload):
    eval_probe_ops = float("inf")

    def __init__(self, mf, seed):
        super().__init__(mf, seed)
        self.refs = {(f, n): checks.family_reference(f, n)
                     for f in FAMILIES for n in GRID_NS + (EDGE_N,)}

    def inputs(self):
        grid = [(f, n) for f in FAMILIES for n in GRID_NS]
        while True:
            self.rng.shuffle(grid)
            yield from grid

    def describe(self, item) -> str:
        return f"{item[0]} n={item[1]}"

    def op(self, item):
        family, n = item
        mf = self.mf.multifractal
        bands = getattr(self.mf.core, f"{family}_profile")(n)
        return bands, mf.dimension_sweep_from_profile(bands, ORDERS), mf.spectrum_from_profile(bands, n)

    def check(self, item, out, tally, index) -> None:
        ref = self.refs[item]
        _, sweep, spectrum = out
        checks.check_sweep(ref, sweep)
        checks.check_spectrum(ref, spectrum)
        tally.checked += 1
        self.record_input(self.describe(item), ref, sweep, tally, True)

    def bands(self, item, out):
        return out[0]

    def edge_probe(self, tally: Tally) -> dict:
        """The n=1100 ops, untimed: which builders succeed, checked if so."""
        outcome = {}
        for family in FAMILIES:
            item = (family, EDGE_N)
            try:
                _, sweep, spectrum = self.op(item)
            except Exception as error:  # recorded as the documented finding
                outcome[family] = type(error).__name__
                continue
            guarded(tally, checks.check_sweep, self.refs[item], sweep)
            guarded(tally, checks.check_spectrum, self.refs[item], spectrum)
            outcome[family] = "ok"
        return outcome


# --- the CLI ---

class CliRoundtrip:
    """One cycle of CLI commands, run in child processes (timed run) or
    in-process through ``cli.main`` (traced run and the probe battery)."""

    def __init__(self, mf, seed: int, root: Path, work: Path):
        self.mf = mf
        self.rng = random.Random(seed)
        self.root = root
        self.work = work
        self.family_path = self.rel(work / "max_deng_14.json")
        self.asym_path = self.rel(work / f"asym_{CLI_ASYM_F}.json")
        raw, self.asym_ref = random_raw(seed, 0, ASYM_N, CLI_ASYM_F)
        labels = [f"h{i + 1}" for i in range(ASYM_N)]
        document = {"frame": labels, "assignments": [
            {"subset": [labels[i] for i in subset], "mass": mass} for subset, mass in raw]}
        (root / self.asym_path).write_text(json.dumps(document), encoding="utf-8")
        alpha_arg = "--alpha=" + ",".join(repr(a) for a in ORDERS)
        self.commands = [
            ("family", ["family", "--family", "max-deng", "--n", "14", "--emit", self.family_path]),
            ("spectrum", ["spectrum", "--input", self.family_path]),
            ("dimension", ["dimension", "--input", self.asym_path, alpha_arg]),
            ("sweep", ["sweep", "--family", "max-deng", "--n", "200", *SWEEP_ARGS]),
            *((t, ["table", t]) for t in TABLES),
            ("envelope", ["envelope", "--n", "10", "--format", "svg"]),
        ]
        self.verified: dict[str, bytes] = {}
        # filled by the first full check of the dimension and sweep outputs
        self.oracle = OracleSample()
        self.env = src_env(root)

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def bytes_in(self, argv) -> int:
        if "--input" in argv:
            return (self.root / argv[argv.index("--input") + 1]).stat().st_size
        return 0

    # --- checks: every output against the in-process library value ---

    def check(self, name: str, stdout: bytes, tally: Tally) -> None:
        data = (self.root / self.family_path).read_bytes() if name == "family" else stdout
        tally.checked += 1
        if self.verified.get(name) == data:
            return
        if name in self.verified:
            raise CheckFailed(f"{name}: output differs from the verified output")
        core, mf, text = self.mf.core, self.mf.multifractal, data.decode("utf-8")
        if name == "family":
            checks.check_family_document(data, core.max_deng_mass(core.FrameOfDiscernment(14)))
        elif name == "spectrum":
            n, raw = checks.load_raw(self.root / self.family_path)
            m = core.validate_mass_function(core.FrameOfDiscernment(n), raw)
            checks.check_spectrum_rows(text, mf.spectrum(m))
        elif name in ("dimension", "sweep"):
            if name == "dimension":
                n, raw = checks.load_raw(self.root / self.asym_path)
                m = core.validate_mass_function(core.FrameOfDiscernment(n), raw)
                entries = mf.dimension_sweep(m, ORDERS)
                ref, orders = self.asym_ref, None
            else:
                alphas = [float(row["alpha"]) for row in checks.csv_rows(text)]
                if len(alphas) != SWEEP_ORDERS:
                    raise CheckFailed(f"sweep printed {len(alphas)} orders, not {SWEEP_ORDERS}")
                entries = mf.dimension_sweep_from_profile(core.max_deng_profile(200), alphas)
                ref, orders = checks.family_reference("max_deng", 200), alphas
            checks.check_dimension_rows(text, entries)
            values = {e.alpha: e.result.value for e in entries if e.result is not None}
            picked = (checks.pick_orders(self.rng, values) if orders is None
                      else self.rng.sample(sorted(values), 2))
            for alpha in picked:
                self.oracle.add(f"cli {name}", ref, alpha, values[alpha])
        elif name in TABLES:
            if data != (GOLDEN / f"{name}.csv").read_bytes():
                raise CheckFailed(f"table {name} differs from its golden copy")
        elif name == "envelope":
            code, expected = self.in_process(self.commands[-1][1])
            if code != 0 or data != expected:
                raise CheckFailed("envelope SVG differs from the in-process rendering")
        self.verified[name] = data

    # --- running one command ---

    def child(self, argv) -> tuple[float, int, bytes, float]:
        """Run one command in a fresh interpreter; (seconds, exit, stdout, peak MB)."""
        out_path = self.work / "stdout.txt"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "massfractal", *argv],
                                    cwd=self.root, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0

    def in_process(self, argv) -> tuple[int, bytes]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.mf.cli.main(list(argv))
        return code, buffer.getvalue().encode("utf-8")

    def warm_up(self) -> Tally:
        """One untimed in-process cycle, which also verifies every output."""
        tally = Tally()
        for name, argv in self.commands:
            tally.attempted += 1
            code, stdout = self.in_process(argv)
            if code != 0:
                tally.failures.append(f"{name}: exit {code}")
            else:
                guarded(tally, self.check, name, stdout, tally)
        return tally

    def run(self, seconds: float) -> Tally:
        """The timed run: whole cycles of child processes until time is up."""
        tally = Tally()
        start, cycle_seconds, cycle = perf_counter(), 0.0, 0
        while cycle == 0 or perf_counter() - start + cycle_seconds <= seconds:
            cycle_start = perf_counter()
            for name, argv in self.commands:
                tally.attempted += 1
                elapsed, code, stdout, rss = self.child(argv)
                if code != 0:
                    stderr = (self.work / "stderr.txt").read_text(errors="replace")
                    tally.failures.append(f"{name}: exit {code}: {stderr[-300:]}")
                    continue
                tally.op_seconds.append(elapsed)
                tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
                if name in ORDER_COUNTS:
                    tally.orders += ORDER_COUNTS[name]
                    tally.order_seconds += elapsed
                guarded(tally, self.check, name, stdout, tally)
            cycle_seconds = perf_counter() - cycle_start
            cycle += 1
        tally.notes["cycles"] = cycle
        return tally

    def run_traced(self, seconds: float, tracer, kind: str = "op", cycles: int | None = None) -> Tally:
        """In-process cycles, each command untraced and then traced; runs
        ``cycles`` cycles, or whole cycles for ``seconds``."""
        tally = Tally()
        start, cycle, index = perf_counter(), 0, 0
        while cycle < cycles if cycles is not None else (
                cycle == 0 or perf_counter() - start < seconds):
            total_in = total_out = 0
            for name, argv in self.commands:
                tally.attempted += 1
                t0 = perf_counter()
                code, stdout = self.in_process(argv)
                untraced = perf_counter() - t0
                guarded(tally, self.check, name, stdout, tally)
                tracer.install()
                root = tracer.begin("bench.op", (kind, index))
                try:
                    traced_code, stdout = self.in_process(argv)
                finally:
                    tracer.end(root)
                    tracer.uninstall()
                if code != 0 or traced_code != 0:
                    tally.failures.append(f"{name}: exit {code}/{traced_code}")
                    continue
                guarded(tally, self.check, name, stdout, tally)
                tally.untraced_seconds.append(untraced)
                tally.op_seconds.append(tracer.spans[root].seconds)
                emitted = (self.root / self.family_path).stat().st_size if name == "family" else 0
                total_in += self.bytes_in(argv)
                total_out += len(stdout) + emitted
                if name == "dimension" and cycle == 0 and kind == "op":
                    guarded(tally, self.eval_probe, tracer, index)
                index += 1
            tally.cli_bytes.append((total_in, total_out))
            cycle += 1
        tally.notes["cycles"] = cycle
        return tally

    def eval_probe(self, tracer, index: int) -> None:
        n, raw = checks.load_raw(self.root / self.asym_path)
        core, mf = self.mf.core, self.mf.multifractal
        m = core.validate_mass_function(core.FrameOfDiscernment(n), raw)
        tracer.install()
        root = tracer.begin("bench.eval", ("eval", index))
        try:
            bands = self.mf.entropy.as_profile_bands(m)
            for alpha in ORDERS:
                mf.dimension_from_profile(bands, alpha)
        finally:
            tracer.end(root)
            tracer.uninstall()

    def input_properties(self) -> list[dict]:
        n, raw = checks.load_raw(self.root / self.family_path)
        family = Reference.from_masses(n, [(len(s), m) for s, m in raw]).properties()
        return [dict(input="max_deng_14.json", **family),
                dict(input=f"asym_{CLI_ASYM_F}.json", **self.asym_ref.properties())]
