"""Check the counts of one saved ``verify`` report.

    python tests/pin_suite.py REPORT LABEL COUNT DISCREPANCIES

REPORT is the JSON a ``verify`` run printed; LABEL is the count's key in its
``result`` (``categories``, or ``functors`` for t54).  Exits 0 when the
report counts COUNT items with DISCREPANCIES disagreements, and exits 1
with the whole result otherwise (also under ``python -O``).
"""

import json
import sys


def main(argv: list[str]) -> None:
    report, label, count, discrepancies = argv
    with open(report) as handle:
        result = json.load(handle)["result"]
    if (result[label], result["discrepancies"]) != (int(count), int(discrepancies)):
        sys.exit(f"expected {label}={count}, discrepancies={discrepancies}: {result}")


if __name__ == "__main__":
    main(sys.argv[1:])
