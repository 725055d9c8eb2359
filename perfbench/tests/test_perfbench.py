"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from run import INSTANCES  # noqa: E402
from spans import Tracer, hemln_targets, job_metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write(inputs, directory: Path) -> dict:
    if inputs.tsvs:
        workloads.write_imdb_tsvs(inputs, directory)
    else:
        workloads.save_synthetic(inputs, directory)
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_input_files(name, tmp_path):
    first = _write(workloads.generate(name, 5, 0, tiny=True), tmp_path / "a")
    again = _write(workloads.generate(name, 5, 0, tiny=True), tmp_path / "b")
    assert first and first == again
    assert first != _write(workloads.generate(name, 6, 0, tiny=True), tmp_path / "c")
    assert first != _write(workloads.generate(name, 5, 1, tiny=True), tmp_path / "d")


def test_wrappers_only_while_installed(tmp_path):
    from hemln import cli
    targets = hemln_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    inputs = workloads.generate("match-dense", 0, 0, tiny=True)
    workloads.save_synthetic(inputs, tmp_path)
    argv = list(workloads.job_commands("match-dense", tmp_path, tmp_path / "out")[0].argv)

    tracer = Tracer()
    with tracer.installed(targets):
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _, _), raw in zip(targets, originals))
        assert cli.main(argv) == 0
    assert all(vars(owner)[attr] is raw
               for (owner, attr, _, _), raw in zip(targets, originals))
    names = {s[0] for s in tracer.spans}
    assert {"fileio.load_mln", "cbg.build", "matching.match", "engine.compose"} <= names
    assert "community.detect" not in names
    assert tracer.counts["kspec.steps"] == 3

    recorded = len(tracer.spans)
    assert cli.main(argv) == 0
    assert len(tracer.spans) == recorded


def test_self_time_and_coverage_arithmetic():
    spans = [["fileio.load_mln", 0.0, 1.0, None],
             ["model.build", 0.2, 0.5, 0],
             ["engine.compose", 1.0, 3.0, None],
             ["cbg.build", 1.0, 1.5, 2],
             ["matching.match", 1.5, 2.5, 2]]
    m = job_metrics([{"wall_s": 4.0, "spans": spans,
                      "counts": {"matching.pairs": 3, "matching.edges": 6}}])
    assert m["engine.self.s"] == pytest.approx(0.5)
    assert m["cli.self.s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(0.75)
    assert m["matching.pairs_per_edge"] == pytest.approx(0.5)
    assert m["layer.max_share"] == pytest.approx(0.25)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "ops_failed_frac 0.0000" in proc.stdout
    else:
        assert result["metrics"]["trace.coverage"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "match-dense", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_hashes_cover_every_workload_and_seed():
    golden = json.loads((BENCH / "golden.json").read_text())
    assert sorted(golden) == sorted(workloads.NAMES)
    for name in workloads.NAMES:
        assert sorted(golden[name]) == ["0", "1", "7"]
        for instances in golden[name].values():
            assert len(instances) == INSTANCES
            for hashes in instances.values():
                assert sorted(hashes) == workloads.expected_files(name)


@pytest.mark.parametrize("verdict", [["wrong tuples"], TypeError("null pairs")])
def test_every_job_on_a_bad_instance_fails(verdict, tmp_path, monkeypatch):
    import check
    from run import Run

    def check_outputs(*args):
        if isinstance(verdict, Exception):
            raise verdict
        return verdict

    monkeypatch.setattr(check, "check_outputs", check_outputs)
    run = Run("match-dense", 3, tiny=True, directory=tmp_path)
    assert run.job(0, trace=False) is None
    assert run.job(0, trace=False) is None
    assert run.failed == 2 and not run.reference


def test_host_scaling_and_instance_balance():
    import hostspeed
    from run import balanced
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.scaled(3.0, [slow, slow]) == pytest.approx(1.5)
    assert hostspeed.scaled(3.0, [slow, 2 * slow]) == pytest.approx(1.0)
    samples = [{"instance": 0, "t": 1.0}, {"instance": 0, "t": 1.0},
               {"instance": 0, "t": 9.0}, {"instance": 1, "t": 3.0},
               {"instance": 2, "t": 7.0}, {"instance": 2, "t": 8.0}]
    assert balanced(samples, "t") == pytest.approx(3.0)
