"""Run one `stardec` command in this interpreter with the tracer installed.

    python3 bench/launcher.py SPANS.json -- <stardec arguments>

Times this interpreter's import of stardecomp.cli, runs the command through
`stardecomp.cli.main` with every layer wrapped, writes the spans and
counters to SPANS.json and exits with the command's exit code.  The
traced cli-cold run starts one of these per command, with PYTHONPATH
naming the checkout's src directory and BLAS pinned to one thread.
"""

import sys
import time


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS.json -- <stardec arguments>")
    t0 = time.perf_counter()
    import stardecomp.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.counters["import_s"] = import_s
    tracer.install()
    try:
        with tracer.request():
            code = stardecomp.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
