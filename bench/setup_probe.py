"""Time a cold start: import mgonal from <root>/src and run the warm-up tour.

Usage: python3 bench/setup_probe.py <checkout root> <scratch dir>
Prints the elapsed seconds, measured from before the import.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

import mgonal  # noqa: E402
import mgonal.cli  # noqa: E402
from warmup import warm_up  # noqa: E402

warm_up(mgonal, Path(sys.argv[2]))
print(time.perf_counter() - T0)
