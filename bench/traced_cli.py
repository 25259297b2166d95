"""Run one zetafree CLI command with the span tracer installed.

Usage: python traced_cli.py SPANS_JSON ARG...

Behaves like `python -m zetafree.cli ARG...` (same stdout, same exit
code) and also writes the import time, the spans and the counters of
the command to SPANS_JSON.
"""

import json
import sys
import time


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import zetafree.cli

    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = zetafree.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans(),
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
