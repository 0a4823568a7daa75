"""Print the seconds a fresh interpreter needs to import convlab and
convlab.cli and build the carriers named on the command line.

Run from the root of a convlab checkout: python3 perfbench/setup_probe.py 4
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")

import convlab  # noqa: E402
import convlab.cli  # noqa: E402,F401

for n in sys.argv[1:]:
    convlab.Carrier(int(n))
print(time.perf_counter() - start)
