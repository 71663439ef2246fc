"""`python -m ncf.cli` with the benchmark's tracer installed.

    python -m perfbench.cli_shim ARGV...

Used by the traced `cli-mix` pass in place of `python -m ncf.cli`.  Stdout
and the exit code are the CLI's own; the spans (the import of `ncf.cli`, then
`cli.main` and every wrapped call under it) go to stderr as one JSON line
after a marker, which the benchmark strips.
"""

import json
import sys
from time import perf_counter_ns

from perfbench.trace import MARKER, Tracer


def main() -> None:
    t0 = perf_counter_ns()
    import ncf.cli
    t1 = perf_counter_ns()
    tracer = Tracer()
    tracer.spans.append((tracer.name_id("cli.import"), t0, t1, -1, None, None))
    tracer.install()
    try:
        code = ncf.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stderr.write(MARKER + json.dumps(tracer.export()) + "\n")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
