import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "demos" / "expected"


def run_demo(demo: Path, tmp_path: Path) -> str:
    """Run one demo in a temp dir of its own and return its stdout, with the
    random name of the demo's temporary directory replaced by a fixed one."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # a demo that leaves files behind is caught here
    assert not any(tmpdir.iterdir())
    pattern = re.escape(str(tmpdir) + os.sep) + r"kicked_ising_demo_[^/\s]+"
    return re.sub(pattern, "$TMPDIR/kicked_ising_demo_*", result.stdout)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # each demo prints exactly the text recorded under demos/expected
    expected = (EXPECTED / f"{demo.stem}.txt").read_text()
    assert run_demo(demo, tmp_path) == expected


def test_readme_library_tour_runs():
    # the tour's comments state these values, so a changed call surface or
    # result fails here instead of leaving the README stale
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    namespace = {}
    exec(re.search(r"```python\n(.*?)```", tour, re.S).group(1), namespace)
    assert namespace["q"].f_q == pytest.approx(100, abs=1e-8)
    assert namespace["q"].depth == 10
    assert namespace["g"].e_g == pytest.approx(0.5, abs=1e-8)
