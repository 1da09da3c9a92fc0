"""selfsim benchmark: one workload, one seed, verified operations.

Run from the repository root:

    python3 benchmarks/run.py --workload thmD-relations --seed 1 --seconds 20 --trace 0

Workloads are ``thmD-relations``, ``engine-closure`` and ``cli-mix`` (see
``workloads.py``).  The benchmark is a closed loop with one caller in one
thread.  A pass runs the seed's first few batches of operations, each batch
with fresh machines, and verifies each operation's output; passes repeat the
same operations until ``--seconds`` are used up (at least two passes, of at
least 100 operations each), and each operation's latency is its median over
the passes.  Nothing queues, so there is no waiting time.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``
with no tracing wrapper installed.  Their times are scaled to a reference
machine speed by a calibration kernel timed between operations and around
every set-up probe (see ``calibrate.py``); the raw times are printed too.
With ``--trace 1`` it runs two passes untraced and a third with the tracing
wrappers of ``tracing.py`` installed, and reports the per-layer metrics of
the traced pass, the tracing overhead (traced over untraced time) and, for
the first two workloads, a depth ladder.  A layer that a workload never runs
reports zero.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report.
The full result, with its metadata (and the spans of a traced run), is also
written to ``benchmarks/out/``.  ``--corrupt N`` replaces the N-th
operation's output by a wrong one before it is checked, to show that the
checks catch it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # per pass, so that at least ten samples lie beyond p90
MIN_PASSES = 2
SETUP_SAMPLES = 15
SPEED_SAMPLES = 8  # kernel samples before and after each set-up probe
LADDER_REPEATS = 3


def load_selfsim(root: Path):
    """Import selfsim from the checkout's ``src``, and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import selfsim
    import selfsim.cli  # noqa: F401

    if not Path(selfsim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"selfsim was imported from {selfsim.__file__}, not from {src}")
    return selfsim


def setup_samples(workload: str, count: int) -> list[dict]:
    """Set-up time, each sample from a fresh interpreter, with the kernel
    timed in this process just before and after it."""
    out = []
    for _ in range(count):
        before = [calibrate.sample() for _ in range(SPEED_SAMPLES)]
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        after = [calibrate.sample() for _ in range(SPEED_SAMPLES)]
        probe["kernel_s"] = statistics.median(before + after)
        out.append(probe)
    return out


def wrong(result):
    """A wrong output of the same kind as ``result``."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        return (result[0], result[1] + "corrupted\n")
    if hasattr(result, "truncated"):
        return type(result)(result.states, not result.truncated)
    return ()  # a witness: the empty string is never moved


class Runner:
    """The closed loop.  A pass runs the seed's first ``workload.batches``
    batches, each with fresh machines, and times and checks every operation;
    between operations the calibration kernel is timed now and then.  Passes
    repeat the same operations, so a run always measures the same operations,
    and each operation's latency is its median over the passes."""

    def __init__(self, workload, seed: int, tmp: Path, corrupt: int = 0):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.corrupt = corrupt
        self.raw: list[list[float]] = []  # per pass
        self.scaled: list[list[float]] = []  # per pass, see calibrate.scale
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}  # operations of one pass, by kind

    def run(self, seconds: float, between_batches=None) -> None:
        """Passes until ``seconds`` are used up, and at least ``MIN_PASSES``.
        ``between_batches(elapsed)`` is called before each batch, untimed."""
        clock = time.perf_counter
        start = clock()
        hook = None if between_batches is None else lambda: between_batches(clock() - start)
        while True:
            self.run_pass(hook)
            elapsed = clock() - start
            per_pass = elapsed / len(self.raw)
            if len(self.raw) >= MIN_PASSES and elapsed + per_pass / 2 >= seconds:
                return

    def run_pass(self, between_batches=None, tracer=None) -> None:
        clock = time.perf_counter
        raw, after, kernel_s, kinds = [], [], [], {}
        last_sample = clock()
        for index in range(self.workload.batches):
            if between_batches is not None:
                between_batches()
            # each batch starts from an empty collector, as a fresh ``selfsim``
            # process would, so its collections fall on the same operations
            # in every pass and every run
            gc.collect()
            rng = random.Random(f"{self.seed}/{index}")
            for op in self.workload.batch(rng, index, self.tmp):
                error = None
                if tracer is not None:
                    tracer.op_begin(self.attempted, op.kind)
                t0 = clock()
                try:
                    result = op.run()
                except Exception as exc:  # an exception is a failed operation
                    result, error = None, exc
                finally:
                    raw.append(clock() - t0)
                    if tracer is not None:
                        tracer.op_end()
                self.attempted += 1
                kinds[op.kind] = kinds.get(op.kind, 0) + 1
                if self.attempted == self.corrupt:
                    result = wrong(result)
                if error is None:
                    try:
                        ok = bool(op.check(result))
                    except Exception as exc:
                        ok, error = False, exc
                else:
                    ok = False
                if not ok:
                    self.failed += 1
                    if self.failed <= 5:
                        why = repr(error) if error else f"wrong output {result!r:.200}"
                        print(f"FAILED op {self.attempted} ({op.kind}, batch {index}): "
                              f"{why}", file=sys.stderr)
                after.append(len(kernel_s))
                if clock() - last_sample >= calibrate.INTERVAL_S:
                    kernel_s.append(calibrate.sample())
                    last_sample = clock()
        kernel_s.append(calibrate.sample())
        if len(raw) < MIN_OPS:
            raise RuntimeError(f"a pass has {len(raw)} operations, fewer than {MIN_OPS}")
        self.kinds = kinds
        self.raw.append(raw)
        self.kernel_s += kernel_s
        self.scaled.append(calibrate.scale(raw, after, kernel_s))

    @staticmethod
    def per_op(passes: list[list[float]]) -> list[float]:
        """Each operation's median latency over ``passes``."""
        return [statistics.median(times) for times in zip(*passes)]


def metadata(root: Path, args) -> dict:
    commit = ""
    if (root / ".git").exists():  # a checkout without history has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=False,
            ).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "selfsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loop": "closed, 1 caller, 1 thread",
    }


def latency_metrics(lat: list[float], setups: list[float]) -> dict:
    n = len(lat)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (n / sum(lat), n),
        "op_p50_ms": (statistics.median(lat) * 1e3, n),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, n),
    }


def end_to_end(runner: Runner, setups: list[dict]) -> tuple[dict, dict]:
    """Times scaled to the reference speed (see ``calibrate.py``), and the
    same metrics from raw times as notes."""
    lat = runner.per_op(runner.scaled)
    scale = calibrate.REFERENCE_S
    metrics = latency_metrics(lat, [s["setup_s"] * scale / s["kernel_s"] for s in setups])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    p90 = statistics.quantiles(lat, n=10)[8]
    raw = latency_metrics(runner.per_op(runner.raw), [s["setup_s"] for s in setups])
    return metrics, {
        "passes": len(runner.raw),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "kernel_ms_median": statistics.median(runner.kernel_s) * 1e3,
        "raw": {name: value for name, (value, _) in raw.items()},
    }


def ladder_metrics(sf, workload) -> tuple[dict, int]:
    """Untraced median time per depth; longest section word from one pass
    with only ``section_word`` wrapped.  Returns metrics and failed checks."""
    out, failed = {}, 0
    if not workload.ladder:
        return out, failed
    prefix, case, depths, with_len = workload.ladder
    for depth in depths:
        times = []
        for _ in range(LADDER_REPEATS):
            call = case(sf, depth)
            t0 = time.perf_counter()
            failed += call() is not True
            times.append(time.perf_counter() - t0)
        out[f"{prefix}.d{depth}_s"] = (statistics.median(times), len(times))
        if with_len:
            call = case(sf, depth)
            with tracing.Tracer(only=frozenset({"tree_core.section_word"})) as tracer:
                failed += call() is not True
            out[f"{prefix}.d{depth}_out_len_max"] = (tracer.out_len_max, 1)
    return out, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0, help="corrupt the N-th output")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    try:
        sf = load_selfsim(root)
    except ImportError as exc:
        print(f"error: cannot import selfsim from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    meta = metadata(root, args)
    outdir = HERE / "out"
    tmp = outdir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = setup_samples(args.workload, 1)
        gc.collect()
        if tracing.installed_wrappers():
            raise RuntimeError(f"tracing wrappers installed: {tracing.installed_wrappers()}")
        runner = Runner(workload, args.seed, tmp, args.corrupt)
        trace_dump = None
        if not args.trace:
            # set-up samples spread over the run, so that their median does
            # not hang on the machine's speed at one moment
            due = [args.seconds / SETUP_SAMPLES]

            def sample_setup(elapsed: float) -> None:
                if elapsed >= due[0]:
                    setups.extend(setup_samples(args.workload, 1))
                    due[0] += args.seconds / SETUP_SAMPLES

            runner.run(seconds=args.seconds, between_batches=sample_setup)
            setups += setup_samples(args.workload, SETUP_SAMPLES - len(setups))
            metrics, notes = end_to_end(runner, setups)
        else:
            # the first pass warms the interpreter; the same operations then
            # run once more untraced and once traced
            runner.run_pass()
            runner.run_pass()
            with tracing.Tracer() as tracer:
                runner.run_pass(tracer=tracer)
            if tracing.installed_wrappers():
                raise RuntimeError("tracing wrappers left installed")
            setups += setup_samples(args.workload, SETUP_SAMPLES - 1)
            metrics = tracer.layer_metrics()
            reference, replay = runner.scaled[-2:]
            metrics["trace.overhead_ratio"] = (sum(replay) / sum(reference), len(replay))
            metrics["cli.import_s"] = (
                statistics.median(s["import_s"] for s in setups), len(setups))
            ladder, ladder_failed = ladder_metrics(sf, workload)
            metrics.update(ladder)
            for name in units:
                if name.startswith("tree_core.depth_ladder."):
                    metrics.setdefault(name, (0, 0))  # the other workload's ladder
            runner.failed += ladder_failed
            notes = {"ops_per_pass": len(replay), "passes": len(runner.raw)}
            trace_dump = tracer.dump()
        attempted, failed = runner.attempted, runner.failed
        metrics["fail_ratio"] = (failed / attempted, attempted)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"selfsim benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("meta: " + json.dumps(meta))
    print(f"ops: {json.dumps(runner.kinds)}; {json.dumps(notes)}")
    if not args.trace:
        print("waiting: none; a closed loop with one caller, so nothing queues")
    for name in sorted(metrics) if args.trace else [*units, "fail_ratio"]:
        value, n = metrics[name]
        unit = units.get(name, "-")
        print(f"  {name:48s} {value:14.6g} {unit:6s} n={n}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    record = {"meta": meta, "notes": notes, **result,
              "n": {name: metrics[name][1] for name in metrics}}
    if trace_dump is not None:
        record["trace"] = trace_dump
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
