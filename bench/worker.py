"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py setup OUT
    python3 bench/worker.py run|trace PLAN OUT

Imports flagmaps from the checkout's src/, checks that no cache of the
package holds anything (as for a CLI user, every pass starts cold), does
the CLI's set-up, and writes to OUT a JSON object whose "ready" is the
time.perf_counter() value when set-up finished. CLOCK_MONOTONIC is
system-wide on Linux, so the parent subtracts its own spawn time from
it. With run or trace it then runs each operation of PLAN in turn and
adds per-operation times and results, peak RSS, and with trace the
per-layer metrics. "refs" holds, per operation, the mean time of a
fixed reference kernel sampled around and during it (see Speedometer),
which tracks how fast the machine ran then.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from speed import Speedometer

BENCH = Path(__file__).resolve().parent


def _warm_caches(modules):
    """Names of caches in the package that are not empty."""
    warm = []
    for modname, module in modules.items():
        for name, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                if info().currsize:
                    warm.append(f"{modname}.{name}")
            elif ("CACHE" in name and isinstance(value, (dict, list, set))
                  and value):
                warm.append(f"{modname}.{name}")
    return warm


def _invoke(cli, argv):
    # cli.main without its MapError handler, so that the class of a
    # rejection stays visible; the caller maps MapError to exit 1 as
    # cli.main does.
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def _attempt(cli, map_error, argv, tracer, index):
    """(exit code, error class name, error text, stdout) of one CLI call."""
    buf = io.StringIO()
    rc, error, detail = None, None, ""
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = _invoke(cli, argv)
            else:
                rc = tracer.run_op(index, _invoke, cli, argv)
    except map_error as exc:
        rc, error, detail = 1, type(exc).__name__, str(exc)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation
        error, detail = type(exc).__name__, str(exc)
    return {"rc": rc, "error": error, "detail": detail[:300],
            "stdout": buf.getvalue()}


def _run_ops(cli, map_error, ops, tracer):
    meter = Speedometer()
    times = []
    refs = []
    results = []
    for index, op in enumerate(ops):
        result, seconds, ref = meter.timed(
            _attempt, cli, map_error, op["argv"], tracer, index)
        results.append(result)
        times.append(seconds)
        refs.append(ref)
    return {"times": times, "refs": refs, "results": results,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def main(argv):
    mode, *paths = argv
    sys.path.insert(0, str(BENCH.parent / "src"))
    import flagmaps  # noqa: F401  (the package, as a CLI user loads it)
    from flagmaps import cli, names
    from flagmaps.errors import MapError
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "flagmaps" or name.startswith("flagmaps.")}
    warm = _warm_caches(modules)
    if warm:
        raise SystemExit(f"caches are not cold at start: {warm}")
    cli.build_parser()
    names.registry()
    result = {"ready": time.perf_counter()}
    if mode in ("run", "trace"):
        ops = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer(modules)
        result.update(_run_ops(cli, MapError, ops, tracer))
        if tracer is not None:
            result["layers"] = tracer.metrics(result["refs"])
            result["untraced"] = tracer.missing
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    Path(paths[-1]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
