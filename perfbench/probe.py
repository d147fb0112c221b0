"""Set-up probe: a fresh interpreter imports relfacts from SRC and runs one
CLI command, so the parent can time import plus first-call costs.

Usage: python3 probe.py SRC ARG...   (exits with the command's exit code)
"""
import os
import sys


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    import relfacts.cli

    if not os.path.abspath(relfacts.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"relfacts was imported from {relfacts.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    return relfacts.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
