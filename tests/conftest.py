"""Shared fixtures."""

import os
import shlex
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def interlace_shim_env(bin_dir: Path, python: str = sys.executable) -> dict:
    """An environment for shell scripts that call ``interlace``: PATH starts
    with bin_dir (created here), holding a shim that runs ``python -m
    interlace`` on ``src`` with the given interpreter, so the scripts of CI and
    the README run from the source tree without ``pip install .``."""
    bin_dir.mkdir()
    shim = bin_dir / "interlace"
    shim.write_text(f"#!/bin/sh\nPYTHONPATH={shlex.quote(str(REPO / 'src'))} "
                    f"exec {shlex.quote(python)} -m interlace \"$@\"\n")
    shim.chmod(0o755)
    return dict(os.environ, PATH=os.pathsep.join((str(bin_dir), os.environ.get("PATH", ""))))


@pytest.fixture
def interlace_env(tmp_path):
    """``interlace_shim_env`` in the test's temporary directory, with the
    interpreter that runs the tests."""
    return interlace_shim_env(tmp_path / "bin")
