"""Entry of the ``rwp`` console script and of ``python -m rwp``.

It imports nothing heavy itself, so a Ctrl-C while ``rwp.cli`` loads numpy
ends in one ``rwp: interrupted`` line and exit 130, as it does once the
command runs.
"""

import sys


def main() -> int:
    try:
        from . import cli
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it
        print("rwp: interrupted", file=sys.stderr)
        return 130
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
