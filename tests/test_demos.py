"""The quick demos run to completion and leave nothing in the temp dir.

``demos/06_identical_negatives.py`` trains for about ten seconds and is
left out; run it by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted(ROOT.glob("demos/0[1-5]_*.py"))


def test_quick_demos_are_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_cleans_up(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
