"""The six walkthrough scripts print exactly their recorded output.

Each demo runs in a fresh interpreter against the source tree; its stdout
must equal ``demos/expected/NN.txt`` byte for byte.  After an intended
change to a demo's output, regenerate the file with
``PYTHONPATH=src python3 demos/NN_name.py > demos/expected/NN.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_a_recording():
    assert len(DEMOS) == 6
    recorded = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert recorded == [demo.name[:2] for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name[:2])
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120, check=False
    )
    assert result.returncode == 0, result.stderr.decode()
    expected = (ROOT / "demos" / "expected" / f"{demo.name[:2]}.txt").read_bytes()
    assert result.stdout == expected
