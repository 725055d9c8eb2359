"""hemln benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The seed gives INSTANCES inputs of
the workload; the program writes each of them where its job reads them
(the timed set-up). Then jobs run one after another, cycling over the
instances, each command in a fresh ``python3`` process through
``hemln.cli.main`` (a closed loop with one client), for about S seconds.
Every job's output files are hashed and compared with the golden hashes
or with the first job of the instance that passed the full checks.

Times are scaled to a reference host speed (``hostspeed.py``): each child
times a fixed calibration after its command, as does the parent after a
synthetic set-up, and a timed piece is scaled by the calibrations just
before and just after it. ``run_s`` is the median over instances of each
instance's median scaled job time, so an instance sampled once more than
another does not tilt it.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced and traced jobs alternate,
the line holds the per-layer metrics, and the spans are written to
``.bench_work/``. ``--write-golden`` records the output hashes of every
workload at the golden seeds in ``perfbench/golden.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (0, 1, 7)
INSTANCES = 8
TINY_INSTANCES = 2
MIN_SAMPLES = 3  # traced runs; an untraced run samples every instance
SETUP_REPEATS, SETUP_WINDOW_S = 3, 0.4  # a synthetic set-up saves this often
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a command hangs


class Run:
    """One benchmark run: its instances, where it works, what it counted."""

    def __init__(self, workload: str, seed: int, tiny: bool, directory: Path) -> None:
        import workloads
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload = workload
        self.dir = directory
        count = TINY_INSTANCES if tiny else INSTANCES
        self.inputs = [workloads.generate(workload, seed, i, tiny) for i in range(count)]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_spans: List[list] = []
        self.reference: Dict[str, Dict[str, str]] = {}  # instance -> file -> sha256
        if not tiny and GOLDEN.exists():
            golden = json.loads(GOLDEN.read_text())
            self.reference = golden.get(workload, {}).get(str(seed), {})
        self.checked: set = set()
        self.setup_times: List[float] = []
        self.calibrations: List[float] = []  # host speed, in time order

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None

    def command(self, argv, stdout_path: Path, trace: bool) -> Optional[dict]:
        """Run one CLI command in a fresh process; None if it failed."""
        self.attempted += 1
        report_path = self.dir / "child.json"
        env = {k: v for k, v in os.environ.items() if k != "MLN_SEED"}
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(SRC), str(report_path),
                 str(stdout_path), "1" if trace else "0", "--", *argv],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(f"{argv[0]} ran over {timeout:.0f} s and was stopped")
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return self.fail(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        report = json.loads(report_path.read_text())
        before = self.calibrations[-1:] or [report["calibration_s"]]
        self.calibrations.append(report["calibration_s"])
        report["scaled_s"] = hostspeed.scaled(report["wall_s"],
                                              before + self.calibrations[-1:])
        return report

    def setup(self, index: int, trace: bool) -> Optional[float]:
        """Have the program write instance ``index``; the set-up time, or
        None if it failed.

        Instances are set up when their first job is due, so the set-up
        times are spread over the run like the job samples are."""
        import workloads
        from spans import Tracer, hemln_targets
        target = self.dir / f"inst{index}"
        if self.workload == "imdb-pipeline":
            workloads.write_imdb_tsvs(self.inputs[index], target / "tsv")
            report = self.command(workloads.ingest_argv(target / "tsv", target),
                                  self.dir / "stdout.txt", trace)
            if report is None:
                shutil.rmtree(target, ignore_errors=True)
                return None
            if trace:
                self.setup_spans = report["spans"]
            return report["scaled_s"]
        self.attempted += 1
        tracer = Tracer()
        try:
            if trace:
                with tracer.installed(hemln_targets()):
                    workloads.save_synthetic(self.inputs[index], target)
                self.setup_spans = tracer.spans
                return 0.0
            times: List[float] = []  # one save takes tens of milliseconds
            while len(times) < SETUP_REPEATS or sum(times) < SETUP_WINDOW_S:
                shutil.rmtree(target, ignore_errors=True)
                started = time.perf_counter()
                workloads.save_synthetic(self.inputs[index], target)
                times.append(time.perf_counter() - started)
            before = self.calibrations[-1:]
            self.calibrations.append(hostspeed.calibrate())
            return hostspeed.scaled(statistics.median(times),
                                    before + self.calibrations[-1:])
        except Exception as exc:  # the program failed: counted, not raised
            shutil.rmtree(target, ignore_errors=True)
            return self.fail(f"set-up raised {exc!r}")

    def job(self, index: int, trace: bool) -> Optional[dict]:
        """One sample: every command of the job on instance ``index``. Jobs
        are checked in full until one on the instance passes; every job is
        checked by hash."""
        import workloads
        from check import check_outputs
        setup_dir, out = self.dir / f"inst{index}", self.dir / "out"
        if not setup_dir.exists():
            took = self.setup(index, trace=trace)
            if took is None:
                return None
            if not trace:
                self.setup_times.append(took)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        commands = []
        for cmd in workloads.job_commands(self.workload, setup_dir, out):
            stdout = out / cmd.stdout_name if cmd.stdout_name else self.dir / "stdout.txt"
            report = self.command(cmd.argv, stdout, trace)
            if report is None:
                return None
            commands.append(report)
        names = sorted(p.name for p in out.iterdir())
        if names != workloads.expected_files(self.workload):
            return self.fail(f"job wrote {names}")
        hashes = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
        if index not in self.checked:  # until one job of the instance passes
            try:
                problems = check_outputs(self.workload, self.inputs[index], setup_dir, out)
            except Exception as exc:  # malformed output: counted, not raised
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                return self.fail("; ".join(problems))
            self.checked.add(index)
        reference = self.reference.setdefault(str(index), hashes)
        if hashes != reference:
            bad = sorted(n for n in names if hashes[n] != reference.get(n))
            return self.fail(f"instance {index}: hashes differ from the reference: {bad}")
        return {"instance": index,
                "wall_s": sum(c["wall_s"] for c in commands),
                "scaled_s": sum(c["scaled_s"] for c in commands),
                "rss_mib": max(c["rss_kib"] for c in commands) / 1024.0,
                "commands": commands}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def balanced(samples: List[dict], key: str) -> float:
    """Median over instances of each instance's median ``key``."""
    per_instance: Dict[int, List[float]] = {}
    for s in samples:
        per_instance.setdefault(s["instance"], []).append(s[key])
    return statistics.median(statistics.median(v) for v in per_instance.values())


def sample_loop(run: Run, seconds: float, trace: bool):
    """Jobs until the time is up: (untraced samples, traced samples). The
    k-th untraced and the k-th traced job use the same instance."""
    deadline = time.perf_counter() + seconds
    plain, traced, lengths = [], [], []
    done = {False: 0, True: 0}
    while True:
        use_trace = trace and done[True] < done[False]
        started = time.perf_counter()
        sample = run.job(done[use_trace] % len(run.inputs), use_trace)
        done[use_trace] += 1
        lengths.append(time.perf_counter() - started)
        if sample is not None:
            (traced if use_trace else plain).append(sample)
        now = time.perf_counter()
        if now > deadline + seconds or now > run.deadline:  # jobs keep failing
            return plain, traced
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_SAMPLES
        else:
            enough = len({s["instance"] for s in plain}) == len(run.inputs)
        if enough and now + statistics.median(lengths) > deadline:
            return plain, traced


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    run.job(0, trace=False)  # untimed warm-up
    plain, _ = sample_loop(run, seconds, trace=False)
    setups = run.setup_times
    if not plain or not setups:
        return {}
    run_s = balanced(plain, "scaled_s")
    q1, _, q3 = quartiles([s["scaled_s"] for s in plain])
    w1, wall, w3 = quartiles([s["wall_s"] for s in plain])
    s1, smed, s3 = quartiles(setups)
    c1, cal, c3 = quartiles(run.calibrations)
    rss = statistics.median(s["rss_mib"] for s in plain)
    print(f"setup_s         {smed:.4f} s    median of {len(setups)}, "
          f"quartiles {s1:.4f} .. {s3:.4f}")
    print(f"run_s           {run_s:.4f} s    {len(plain)} jobs on {len(run.inputs)} "
          f"instances, quartiles {q1:.4f} .. {q3:.4f}")
    print(f"peak_rss_mib    {rss:.2f} MiB")
    print(f"unscaled job    {wall:.4f} s    quartiles {w1:.4f} .. {w3:.4f}")
    print(f"calibration     {cal:.4f} s    quartiles {c1:.4f} .. {c3:.4f}, "
          f"reference {hostspeed.REFERENCE_S} s")
    return {"setup_s": smed, "run_s": run_s, "peak_rss_mib": rss}


def per_layer(run: Run, seconds: float, seed: int) -> Dict[str, float]:
    import spans
    run.job(0, trace=True)  # untimed warm-up; sets instance 0 up traced
    plain, traced = sample_loop(run, seconds, trace=True)
    if not plain or not traced:
        return {}
    metrics = spans.medians([spans.job_metrics(s["commands"]) for s in traced])
    metrics.update(spans.setup_metrics(run.setup_spans))
    metrics["trace.overhead_frac"] = (
        statistics.median(s["scaled_s"] for s in traced)
        / statistics.median(s["scaled_s"] for s in plain) - 1.0)
    metrics["job.wall_s"] = statistics.median(s["wall_s"] for s in plain)
    metrics["job.scaled_s"] = statistics.median(s["scaled_s"] for s in plain)
    metrics["host.calibration_s"] = statistics.median(run.calibrations)
    metrics["purpose.holds"] = float(spans.purpose_holds(run.workload, metrics))
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{run.workload}-seed{seed}.json").write_text(json.dumps({
        "setup": run.setup_spans,
        "jobs": [[c["spans"] for c in s["commands"]] for s in traced]}))
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:.6g}")
    return metrics


def write_golden() -> int:
    """Hash every output file of each workload at the golden seeds."""
    import workloads
    golden: Dict[str, Dict[str, Dict[str, Dict[str, str]]]] = {}
    for name in workloads.NAMES:
        for seed in GOLDEN_SEEDS:
            directory = WORK / f"golden-{name}-{seed}"
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            try:
                run = Run(name, seed, tiny=False, directory=directory)
                run.reference = {}
                for i in range(len(run.inputs)):
                    run.job(i, trace=False)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if run.failed:
                print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = run.reference
            print(f"{name} seed {seed}: {len(run.reference)} instances", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; golden hashes are not checked")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hemln" / "cli.py").is_file():
        print(f"perfbench: no hemln sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.write_golden:
        return write_golden()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    directory = WORK / f"run-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.tiny, directory)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"instances {len(run.inputs)}", flush=True)
        if args.trace:
            metrics = per_layer(run, args.seconds, args.seed)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if not metrics and not run.failed:
        run.fail("no job completed")
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed_frac = run.failed / max(1, run.attempted)
    print(f"ops_failed_frac {failed_frac:.4f}    {run.failed} of {run.attempted} "
          "commands failed")
    if not args.trace:
        metrics["ops_ok_frac"] = 1.0 - failed_frac
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
