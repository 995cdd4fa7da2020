"""Smoke tests of the experiment scripts under ``scripts/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_type_dichotomy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_type_dichotomy.py"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads((tmp_path / "type_dichotomy.json").read_text())
    assert sorted(results) == ["hex", "tri8"]
    for report in results.values():
        assert report["radii_list"] == [2, 3, 4, 5, 6, 7, 8]
        assert len(report["rho"]) == 7
    for name in ("hex", "tri8"):
        svg = (tmp_path / f"packing_{name}.svg").read_text()
        assert svg.startswith("<svg") and "<line" in svg
        assert "-0.000000" not in svg
