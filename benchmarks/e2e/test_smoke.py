"""Smoke test of the e2e benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — not part of the
tier-1 ``testpaths``.  Everything runs at ``--quick`` sizes in subprocesses,
exactly as the driver would start the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = [w for w in WORKLOADS if w != "campaign_sharded2"]


def run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "set.json"
    done = run(RUN, "--all", "--quick", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    data = json.loads(out.read_text())
    assert data["quick"] is True  # quick numbers are marked, never recorded
    return data["workloads"]


def test_every_metric_is_emitted_and_checks_pass(quick_set):
    assert sorted(quick_set) == sorted(WORKLOADS)
    for name, result in quick_set.items():
        assert result["correct"], name
        assert result["ops_failed"] == 0
        for metric in SPEC["end_to_end"]:
            entry = result["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["median"] > 0, (name, metric["name"])
        assert sorted(result["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
        for metric in SPEC["per_layer"]:
            entry = result["per_layer"][metric["name"]]
            assert entry is None or entry["unit"] == metric["unit"]


def test_workloads_discriminate(quick_set):
    def active(workload, prefix):
        layers = quick_set[workload]["per_layer"]
        return [k for k, v in layers.items() if k.startswith(prefix) and v is not None]

    for name in WORKLOADS:
        assert bool(active(name, "sketch.")) == (name == "flood_gated")
        for prefix in ("sharding.", "buffers.", "checkpoint."):
            assert bool(active(name, prefix)) == (name == "campaign_sharded2"), (name, prefix)
    for name in ("campaign_inproc", "campaign_sharded2"):
        assert quick_set[name]["per_layer"]["flow_table.evicted"]["value"] == 0
    gated = quick_set["flood_gated"]["per_layer"]
    assert gated["sketch.admit_ratio"]["value"] < 0.1
    # same stream and bundle: the sharded digest equals the in-process one
    assert quick_set["campaign_sharded2"]["digests"] == quick_set["campaign_inproc"]["digests"]


@pytest.mark.usefixtures("quick_set")
def test_trace_accounts_for_the_lap():
    """Reads the trace files the fixture's runs wrote."""
    for name in IN_PROCESS:
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        assert trace["meta"]["missing_hooks"] == []
        summary = trace["summary"]
        assert all(row["self_ns"] >= 0 for row in summary.values())
        root = summary["mechanism.run_stream"]
        assert root["self_ns"] <= 0.1 * root["total_ns"]  # >= 90 % attributed
        assert all(start <= end for _n, start, end, _p in trace["spans"])


def test_contract_line():
    done = run(RUN, "--workload", "flood_gated", "--quick", "--seed", "7",
               "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0


def session_members(sid):
    """Pids, zombies included, whose session id is ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[3]) == sid:
                found.append(int(entry.name))
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
def test_no_process_is_left_running(trace):
    """A sharded run starts workers and a shared-memory resource tracker;
    all of them have ended, and been waited for, when the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "campaign_sharded2", "--quick", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-2000:]
    assert session_members(proc.pid) == []


def test_reaper_ends_a_stray_child(tmp_path):
    """A child that ignores SIGTERM and a grandchild whose parent has exited
    are both gone when ``reap`` returns."""
    script = tmp_path / "stray.py"
    script.write_text(
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import reaper\n"
        "reaper.adopt_orphans()\n"
        "stubborn = 'import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "time.sleep(60)'\n"
        "subprocess.Popen([sys.executable, '-c', stubborn])\n"
        "orphaner = 'import subprocess, sys; "
        "subprocess.Popen([sys.executable, \"-c\", \"import time; time.sleep(60)\"])'\n"
        "subprocess.run([sys.executable, '-c', orphaner])\n"
        "print(reaper.reap(grace_s=0.5), reaper.child_pids())\n"
    )
    proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    out, _err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.split(None, 1)[1].strip() == "[]"
    assert int(out.split()[0]) >= 1
    assert session_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run("benchmarks/e2e/run.py", "--workload", "flood_gated", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_flags_a_breach(tmp_path):
    def result(throughput):
        return {
            "benchmark": "e2e-set",
            "workloads": {"w": {"seeds": [1], "digests": ["d"], "end_to_end": {
                "throughput_rps": {"better": "higher", "bound": 0.1, "values": [throughput]},
            }}},
        }

    for name, value in (("a", 100.0), ("same", 95.0), ("worse", 80.0)):
        (tmp_path / f"{name}.json").write_text(json.dumps(result(value)))
    compare = str(HERE / "compare.py")
    assert run(compare, str(tmp_path / "a.json"), str(tmp_path / "same.json")).returncode == 0
    assert run(compare, str(tmp_path / "a.json"), str(tmp_path / "worse.json")).returncode == 1


def test_lint_stays_clean():
    done = subprocess.run(
        [sys.executable, "-m", "repro.quality.lint", "benchmarks"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stdout[-2000:]
