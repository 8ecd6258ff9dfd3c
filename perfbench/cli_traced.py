"""Run ``python -m gptdisc`` with span tracing and write the spans to a file.

Usage: ``python3 perfbench/cli_traced.py SPANS_JSON [gptdisc arguments...]``,
with ``src`` on ``PYTHONPATH``.  The exit code is the CLI's own.
"""

import json
import runpy
import sys

import spans


def main() -> int:
    out = sys.argv[1]
    sys.argv = ["gptdisc", *sys.argv[2:]]
    tracer = spans.Tracer()
    tracer.install()
    code = 0
    try:
        runpy.run_module("gptdisc", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        with open(out, "w") as handle:
            json.dump([list(span) for span in tracer.take()], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
