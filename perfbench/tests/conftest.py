"""Put the benchmark's modules and the simulator source on the path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for entry in (SRC, BENCH):
    if entry not in sys.path:
        sys.path.insert(0, entry)
