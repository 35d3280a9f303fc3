"""Rewrite golden fixtures: ``python -m tests.golden [stem ...]``."""

import sys

from tests.golden import WORKLOADS, write


def main(stems) -> int:
    known = {name.split(".")[0]: name for name in WORKLOADS}
    unknown = sorted(set(stems) - set(known))
    if unknown:
        print(f"unknown fixtures: {unknown}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    for stem in stems or known:
        write(known[stem])
        print(f"wrote tests/golden/{known[stem]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
