"""Run a command and print its wall time and peak memory.

Usage: python .github/timed.py LABEL CMD [ARG ...]

Runs CMD, prints ``LABEL: X s wall, ru_maxrss N MiB``, where N is the
largest resident set of any child process waited for, and exits with
CMD's exit code.
"""

import resource
import subprocess
import sys
import time

label, *cmd = sys.argv[1:]
start = time.perf_counter()
code = subprocess.call(cmd)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{label}: {time.perf_counter() - start:.1f} s wall, ru_maxrss {peak:.0f} MiB")
sys.exit(code)
