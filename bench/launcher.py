"""Traced ``sgr`` call: ``python -X importtime launcher.py SPANS ARGS...``.

Installs the span wrappers in this fresh process, runs
``semigraded.cli.main(ARGS)`` and writes the spans to SPANS once, at exit.
Memo tables start cold, as in an untraced ``sgr`` call.
"""

import sys

import tracing


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    log = tracing.install()
    try:
        return sys.modules["semigraded.cli"].main(argv)
    finally:
        sys.stdout.flush()
        log.write(spans)


if __name__ == "__main__":
    sys.exit(main())
