"""Run one workload of the enritch benchmark; see ``perfbench/bench.py``.

    python3 perfbench/run.py --workload tight-span --seed 1 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

# Import the benchmark as the package ``perfbench`` from the checkout root,
# in place of this script's own directory.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
