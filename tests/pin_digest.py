"""Check the bytes of one saved ``verify`` report against its golden digest.

    python tests/pin_digest.py REPORT KEY

REPORT is the stdout a ``verify`` run wrote, with its inputs named by paths
relative to the repo root; KEY names its digest in
``tests/golden/frontier.json`` (``SUITE-QUANTALE-bBOUND``).  Exits 0 when
the sha256 of REPORT is that digest, and exits 1 with both digests
otherwise (also under ``python -O``).  A change that alters such a report on
purpose replaces its digest, the ``sha256sum`` of the new report, and says
which digests changed, and why.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "frontier.json"


def main(argv: list[str]) -> None:
    report, key = argv
    want = json.loads(GOLDEN.read_text())[key]
    got = hashlib.sha256(Path(report).read_bytes()).hexdigest()
    if got != want:
        sys.exit(f"{key}: report sha256 {got}, golden {want}")


if __name__ == "__main__":
    main(sys.argv[1:])
