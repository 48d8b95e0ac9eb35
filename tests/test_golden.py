"""``tests/golden.py --check`` as a test, run as it is run by hand.

The digests are raw bytes of one numpy build on one platform, so the check
runs only where the environment line of ``tests/golden/digests.txt`` is
this machine's ``golden.environment()``, and is skipped elsewhere.
"""

import subprocess
import sys

import pytest

import golden


def test_outputs_match_the_recorded_digests():
    recorded, _ = golden.read_digests()
    here = golden.environment()
    if recorded != here:
        pytest.skip(f"digests were written under {recorded}; this machine is {here}")
    out = subprocess.run([sys.executable, golden.__file__, "--check"], cwd=golden.ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
