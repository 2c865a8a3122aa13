"""Rewrite ``digests.json`` from the library in this checkout.

    python tests/golden/regenerate.py

Run it only when a change of an output is intended, and say in the change
which inputs moved and why: ``tests/test_golden.py`` holds the root layer
to the committed file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from golden.corpus import DIGESTS, digests  # noqa: E402

if __name__ == "__main__":
    table = digests()
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n")
    print(f"{len(table)} digests written to {DIGESTS}")
