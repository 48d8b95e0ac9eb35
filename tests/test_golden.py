"""``tests/golden.py --check`` as a test, run as it is run by hand.

The digests are raw bytes of one numpy build on one platform, so the check
runs only where the environment line of ``tests/golden/digests.txt`` is
this machine's ``golden.environment()``, and is skipped elsewhere.  The
other golden files keyed by that line must carry the same one.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import golden


def test_outputs_match_the_recorded_digests():
    if golden.recorded_here(golden.DIGESTS) is None:
        pytest.skip(f"digests were written under {golden.read_golden(golden.DIGESTS)[0]}; "
                    f"this machine is {golden.environment()}")
    out = subprocess.run([sys.executable, golden.__file__, "--check"], cwd=golden.ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


def test_golden_files_share_the_digests_environment_line():
    # a file keyed by an environment line that no machine has is skipped
    # without a word, as the acceptance and demo goldens were once
    paths = sorted(Path(golden.DIGESTS).parent.rglob("*.txt"))
    assert {"digests.txt", "acceptance.txt"} <= {p.name for p in paths}
    recorded, _ = golden.read_golden(golden.DIGESTS)
    assert [p.name for p in paths if golden.read_golden(p)[0] != recorded] == []
