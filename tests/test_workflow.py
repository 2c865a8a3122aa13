"""The exact checks that CI pins on the installed entry point, run here from
the source tree: the ``run:`` block of that step in
``.github/workflows/tests.yml``, under ``bash -e``, with an ``interlace`` on
PATH that runs ``python -m interlace`` on ``src`` (the ``interlace_env``
fixture)."""

import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
STEP = "- name: the installed entry point"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _entry_point_script() -> str:
    """The ``run: |`` block of the entry-point step, read by indentation: the
    lines after ``run: |`` indented deeper than ``run:``, without the
    ``pip install .`` line."""
    lines = WORKFLOW.read_text().splitlines()
    step = next(i for i, line in enumerate(lines) if line.strip().startswith(STEP))
    run = next(i for i in range(step + 1, len(lines)) if lines[i].strip() == "run: |")
    block = []
    for line in lines[run + 1:]:
        if line.strip() and _indent(line) <= _indent(lines[run]):
            break
        block.append(line)
    return "".join(line.strip() + "\n" for line in block if line.strip() != "pip install .")


def test_entry_point_step_of_the_workflow(tmp_path, interlace_env):
    script = _entry_point_script()
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=interlace_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
