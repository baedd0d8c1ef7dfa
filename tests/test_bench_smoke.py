"""The benchmark's own checks, run as part of the test suite, so a broken
chow product, thm2 chain form, registry path or workload contract fails
here before a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_plane_grid_bundles_verify(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    grid = workloads.PlaneGrid(seed=1, workdir=tmp_path)
    bundles = grid.pass_inputs(0)[:5]
    assert len(bundles) == 5
    for inp in bundles:
        assert grid.verify(inp, grid.call(inp)) is None


def _workload(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads.WORKLOADS[name](seed=1, workdir=tmp_path)


def test_divisor_grid_cases_verify(tmp_path, monkeypatch):
    grid = _workload("divisor-grid", tmp_path, monkeypatch)
    cases = [grid.warmup_input(), *grid.pass_inputs(0)[:50]]
    for inp in cases:
        assert grid.verify(inp, grid.call(inp)) is None


def test_registry_files_verify(tmp_path, monkeypatch):
    registry = _workload("registry", tmp_path, monkeypatch)
    files = [registry.warmup_input(), *registry.pass_inputs(0)[:3]]
    for inp in files:
        assert registry.verify(inp, registry.call(inp)) is None


def test_plane_grid_fails_on_a_corrupted_hrr_form(tmp_path, monkeypatch):
    """The thm3 forms are derived afresh, so a wrong HRR form (a bad plane
    rule, tangent class or twist in the code) fails these bundles; a form
    corrupted on purpose must fail every one of them."""
    from bottcheck import theorems
    from bottcheck.exact import Poly

    grid = _workload("plane-grid", tmp_path, monkeypatch)
    bundles = [grid.warmup_input(), *grid.pass_inputs(0)[:5]]
    theorems.thm3_hrr_form.cache_clear()
    theorems.thm3_Q_form.cache_clear()
    for inp in bundles:
        assert grid.verify(inp, grid.call(inp)) is None
    corrupted = theorems.thm3_hrr_form() + Poly.sym("b") ** 2
    monkeypatch.setattr(theorems, "thm3_hrr_form", lambda: corrupted)
    for inp in bundles:
        assert grid.verify(inp, grid.call(inp)).startswith("HRR crosscheck differs")
