"""Shrunk smoke runs of the study scripts in scripts/, each through its own
command-line flags, writing only under tmp_path."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_chain_transition_writes_both_probes(tmp_path):
    out = run_script("chain_transition.py", "--cells", "8",
                     "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    assert "site" in out and "chiral_block" in out
    for probe in ("site", "chiral_block"):
        for ext in ("csv", "svg"):
            assert (tmp_path / "out" / f"chain_{probe}.{ext}").stat().st_size > 0


def test_corner_mode_scan_writes_both_probes(tmp_path):
    out = run_script("corner_mode_scan.py", "--cells", "3",
                     "--out-prefix", str(tmp_path / "corner"), cwd=tmp_path)
    assert out.count("power-law crossing estimate") == 2
    for probe in ("corner", "three_site"):
        assert (tmp_path / f"corner_{probe}.csv").stat().st_size > 0


def test_disorder_study_reports_both_parts(tmp_path):
    out = run_script("disorder_study.py", "--configs", "1", cwd=tmp_path)
    assert out.count("plateau =") == 4
    assert "crossing at threshold 0.1: clean" in out
    assert list(tmp_path.iterdir()) == []
