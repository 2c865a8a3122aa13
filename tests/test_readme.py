"""The README's CLI examples, run as written: its ``sh`` block under the
"## CLI" heading, under ``bash -e`` in a temporary directory, with the
``interlace_env`` shim on PATH.  Every command must exit 0, and a command
annotated ``# -> text`` must print exactly that line."""

import re
import subprocess
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
ANNOTATION = re.compile(r"\s#\s->\s(.*)$")
MARK = "@@ README line "


def _cli_block() -> list[str]:
    """The lines of the first ``sh`` block after the "## CLI" heading."""
    lines = README.read_text().splitlines()
    start = lines.index("```sh", lines.index("## CLI")) + 1
    return lines[start:lines.index("```", start)]


def test_cli_examples_of_the_readme(tmp_path, interlace_env):
    block = _cli_block()
    expected = {i: m.group(1) for i, line in enumerate(block)
                if (m := ANNOTATION.search(line))}
    assert len(expected) >= 10
    # a marker line before each command splits stdout by command
    script = "".join(f"echo '{MARK}{i}'\n{line}\n" for i, line in enumerate(block))
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=interlace_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    outputs = {}
    for chunk in proc.stdout.split(MARK)[1:]:
        i, _, out = chunk.partition("\n")
        outputs[int(i)] = out
    assert sorted(outputs) == list(range(len(block)))
    for i, text in expected.items():
        assert outputs[i] == text + "\n", block[i]
