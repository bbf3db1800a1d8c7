"""Set-up probe: import the CLI and parse configs, simulating nothing.

Usage: python -m setup_probe CONFIG...   (with src/ and bench/ on PYTHONPATH)

Prints ``<import seconds> <parse seconds>`` measured inside the process.
"""

import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import bell_lab.cli

    t1 = time.perf_counter()
    for path in argv:
        bell_lab.cli.parse_config_file(path)
    t2 = time.perf_counter()
    print(f"{t1 - t0!r} {t2 - t1!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
