"""The exact checks that CI pins on the installed entry point, run here from
the source tree: ``tests/entry_points.sh``, which the entry-point step of
``.github/workflows/tests.yml`` runs after ``pip install .``, under
``bash -e``, with an ``interlace`` on PATH that runs ``python -m interlace``
on ``src`` (the ``interlace_env`` fixture).

Run as a script, ``python tests/test_workflow.py`` runs the same checks once
under each of ``python3.10`` to ``python3.13`` found on PATH, the versions CI
tests, and prints one line per interpreter; it exits 0 when at least one ran
and every one that ran passed.  The script itself needs pytest (it imports
``conftest``); the interpreters it tries need nothing but the standard library.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
SCRIPT = REPO / "tests" / "entry_points.sh"
PYTHONS = [f"python3.{minor}" for minor in range(10, 14)]


def _run_entry_point_step(cwd, env) -> subprocess.CompletedProcess:
    """The checks under ``bash -e -x``: each command is echoed to stderr, so
    its last line names the command that failed."""
    return subprocess.run(["bash", "-e", "-x", str(SCRIPT)], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_the_workflow_runs_the_entry_point_script():
    assert "\n          pip install .\n          bash -e tests/entry_points.sh\n" in WORKFLOW.read_text()


def test_entry_point_step_of_the_workflow(tmp_path, interlace_env):
    proc = _run_entry_point_step(tmp_path, interlace_env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _interpreter(name: str) -> tuple[str, str] | None:
    """(path, version) of the interpreter called name on PATH, or None when
    there is none or it does not run (a pyenv shim of a version not selected)."""
    python = shutil.which(name)
    if python is None:
        return None
    proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True)
    return (python, proc.stdout.strip()) if proc.returncode == 0 else None


def main() -> int:
    from conftest import interlace_shim_env  # tests/ is sys.path[0] for a script

    ran = failed = 0
    for name in PYTHONS:
        found = _interpreter(name)
        if found is None:
            print(f"{name}: not found or does not run")
            continue
        python, version = found
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            proc = _run_entry_point_step(tmp, interlace_shim_env(Path(tmp) / "bin", python))
            seconds = time.perf_counter() - start
        ran += 1
        if proc.returncode == 0:
            outcome = "passed"
        else:
            failed += 1
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            outcome = f"FAILED (exit {proc.returncode}) at {last[0][:100]}"
        print(f"{name} ({version}): entry-point step {outcome} in {seconds:.1f} s")
    return 0 if ran and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
