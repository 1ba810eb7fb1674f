"""Every walkthrough in demos/ and README.md's examples run against the
package source."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import margrid as mg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*argv):
    """A fresh interpreter on the package source, from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def readme_block(lang):
    """The one fenced ``lang`` block of README.md."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, lang
    return blocks[0]


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # without a single warning, the rule pyproject's filter sets for Tier-1
    proc = run_python("-W", "error", str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs_without_a_warning():
    proc = run_python("-W", "error", "-c", readme_block("python"))
    assert proc.returncode == 0, proc.stderr


def test_readme_config_loads():
    # the config that README says exercises every command
    config = mg.ExperimentConfig.from_text(readme_block("ini"))
    sim, ev = mg.build_grids(config, mg.build_model(config))
    assert (len(sim), len(ev)) == (16, 33)
