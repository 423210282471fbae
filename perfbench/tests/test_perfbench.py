"""The benchmark's own tests, at the seconds-scale ``--size tiny``.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import check_passes  # noqa: E402
from perfbench.inputs import SIZES, write_access_log  # noqa: E402
from perfbench.layers import PER_LAYER, SPEC, WORKLOAD_NAMES  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

TINY = SIZES["tiny"]


@pytest.fixture
def workdir():
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=out))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = run_bench(workload, seed=1, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])
    if trace:
        for name, unit, _, _ in PER_LAYER:   # the full table, zeros included
            assert name in proc.stdout
    else:
        assert "failed_frac" in proc.stdout


def test_checker_flags_a_corrupted_cost(workdir):
    wl = make_workload("paper-grid")
    wl.setup(3, TINY, workdir, NullTracer())
    cells = wl.run_pass(workdir / "pass")
    ref = {cells[5].key: wl.reference_cost(cells[5].key)}
    assert check_passes([cells, cells], wl.n_cells, ref).failed == 0

    below_opt = dataclasses.replace(cells[1], online=cells[1].optimal * 0.5)
    nan = dataclasses.replace(cells[2], online=float("nan"))
    off_by_ulp = dataclasses.replace(cells[5], online=math.nextafter(cells[5].online, 0))
    for bad, i in ((below_opt, 1), (nan, 2), (off_by_ulp, 5)):
        corrupted = list(cells)
        corrupted[i] = bad
        check = check_passes([corrupted], wl.n_cells, {} if i != 5 else ref)
        assert check.failed == 1 and check.failed_frac > 0, bad
    # a robustness-bound breach on an Algorithm-1 cell with alpha > 0
    k = next(i for i, c in enumerate(cells) if c.bound is not None)
    over = dataclasses.replace(cells[k], online=cells[k].optimal * cells[k].bound * 1.01)
    assert check_passes([cells[:k] + [over] + cells[k + 1:]], wl.n_cells, {}).failed == 1
    # a pass that raised fails all of its cells
    assert check_passes([cells, None], wl.n_cells, {}).failed == wl.n_cells


def test_two_seeds_give_other_inputs_and_the_same_metric_names(workdir):
    logs = [write_access_log(workdir / f"log{s}", s, TINY) for s in (1, 2)]
    assert logs[0].path.read_text() != logs[1].path.read_text()
    assert logs[0].reads == logs[1].reads

    traces = []
    for seed in (1, 2):
        wl = make_workload("long-grid")
        wl.setup(seed, TINY, workdir, NullTracer())
        traces.append(wl.trace)
    assert traces[0] != traces[1]

    names = []
    for seed in (1, 2):
        proc = run_bench("adaptive-grid", seed=seed, trace=0)
        assert proc.returncode == 0, proc.stderr
        names.append(sorted(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]))
    assert names[0] == names[1]


def test_fails_without_the_program_source(workdir):
    (workdir / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, workdir / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
