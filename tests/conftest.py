import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

import evcalc

# default profile is derandomized so every run checks the same examples;
# HYPOTHESIS_PROFILE=stress explores 2000 fresh examples per property
settings.register_profile("default", max_examples=100, derandomize=True)
settings.register_profile("stress", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def src_env() -> dict:
    """The current environment, with PYTHONPATH set so a child interpreter imports this checkout's evcalc."""
    return dict(os.environ, PYTHONPATH=str(Path(evcalc.__file__).parents[1]))


@pytest.fixture
def evcalc_script():
    """Run argv through the `evcalc` script beside this interpreter, on this checkout: (exit code, stdout, stderr)."""
    script = shutil.which("evcalc", path=sysconfig.get_path("scripts"))
    if script is None:
        pytest.skip("no evcalc console script is installed beside this interpreter")

    def run(*argv):
        proc = subprocess.run([script, *argv], capture_output=True, env=src_env(), timeout=60)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return run
