"""Run one tonnetz CLI command with tracing installed, for the traced run.

    python3 cli_child.py OUT.json library|suites -- ARGS...

Measures the import of tonnetz.cli, wraps the library functions (or the
verify suites), runs the command exactly as the console script would,
writes the spans to OUT.json and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    out, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("library", "suites"):
        print(__doc__, file=sys.stderr)
        return 2
    t0 = perf_counter()
    import tonnetz.cli

    import_ms = (perf_counter() - t0) * 1e3
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(library=mode == "library", suites=mode == "suites")
    try:
        code = tonnetz.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        dump = tracer.dump()
        dump["import_ms"] = import_ms
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
