"""Shared fixtures."""

import os
import shlex
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def interlace_env(tmp_path):
    """An environment for shell scripts that call ``interlace``: PATH starts
    with a shim that runs ``python -m interlace`` on ``src``, so the scripts
    of CI and the README run from the source tree without ``pip install .``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "interlace"
    shim.write_text(f"#!/bin/sh\nPYTHONPATH={shlex.quote(str(REPO / 'src'))} "
                    f"exec {shlex.quote(sys.executable)} -m interlace \"$@\"\n")
    shim.chmod(0o755)
    return dict(os.environ, PATH=os.pathsep.join((str(bin_dir), os.environ.get("PATH", ""))))
