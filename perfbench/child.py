"""Run one nctorus subcommand in a fresh process and report how it went.

    python3 perfbench/child.py START TRACE CONFIG [SUBCOMMAND ARGS...]

START is the parent's `time.monotonic()` taken just before it started this
process (the clock is system-wide), so set-up time covers interpreter start,
`import nctorus` and loading CONFIG.  TRACE is 0 or 1; with 1 the span
tracer is installed after set-up.  Without a subcommand the process only
sets up and reports the machine's library versions (a set-up probe).

The subcommand's own output goes to stdout unchanged; the last line is
MARKER followed by one JSON record.
"""

import json
import resource
import sys
import time
import traceback

MARKER = "PERFBENCH-CHILD "


def _libraries():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv):
    start, trace, config, command = float(argv[0]), argv[1] == "1", argv[2], argv[3:]
    from nctorus import cli
    from nctorus import io as nio

    nio.load_config(config)
    record = {"setup_s": time.monotonic() - start}
    if not command:
        record["libraries"] = _libraries()
    else:
        recorder = None
        if trace:
            import tracer

            recorder = tracer.install()
        t0, c0 = time.monotonic(), time.process_time()
        try:
            record["rc"] = cli.main(command)
        except SystemExit as exc:
            record["rc"] = exc.code
        except Exception:  # report a crashing command as a failed run
            traceback.print_exc()
            record["rc"] = "exception"
        record["main_s"] = time.monotonic() - t0
        record["main_cpu_s"] = time.process_time() - c0
        if recorder is not None:
            record["wrapper_call_s"] = tracer.wrapper_cost()
            record["wrapped"] = sorted(recorder.stats)
            record["spans"] = {k: v for k, v in recorder.stats.items() if v["calls"]}
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(MARKER + json.dumps(record), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
