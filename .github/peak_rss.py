"""Runs a command and fails if its peak resident memory exceeds a ceiling.

Usage: python3 .github/peak_rss.py MAX_MB COMMAND [ARG ...]

The peak is the child's `ru_maxrss` from `getrusage(RUSAGE_CHILDREN)`
(kilobytes on Linux). Linux also counts this script's own resident
memory at the spawn, about 14 MB, so the figure never reads lower. The
script exits with the command's own status when it fails, 1 when the
peak is over MAX_MB, and 0 otherwise.
"""

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ceiling = float(sys.argv[1])
    command = sys.argv[2:]
    status = subprocess.run(command).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB (ceiling {ceiling:g} MB): {' '.join(command)}", file=sys.stderr)
    if status != 0:
        return status
    return 1 if peak > ceiling else 0


if __name__ == "__main__":
    sys.exit(main())
