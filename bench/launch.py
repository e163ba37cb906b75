"""Traced CLI job, the child-process entry point of the traced run.

    launch.py SPANS JOB -- ARGS...

Import ``balpack.cli`` (recorded as the span ``cli.import``), wrap the
package's functions, run ``balpack.cli.main(ARGS)`` and write the spans
to SPANS on exit.  The exit code is the command's own.

The untraced CLI jobs do not come through here: they run as
``python -m balpack.cli``, the way a user starts the program.
"""

from __future__ import annotations

import sys
import time

import spans


def main(spans_path, job, argv) -> int:
    tracer = spans.Tracer(job)
    start = time.perf_counter()
    import balpack.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return balpack.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: launch.py SPANS JOB -- ARGS...")
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[4:]))
