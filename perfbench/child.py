"""One benchmark child: runs the barrierwalk CLI once, as `python -m barrierwalk`.

Usage: child.py <barrierwalk CLI arguments>

The CLI sees only its own arguments.  The benchmark talks to the child
through environment variables and writes nothing the program can read:

  PERFBENCH_RESULT  JSON file this child writes its measurements to
  PERFBENCH_PROBE   "1": stop after `import barrierwalk` (a set-up sample)
  PERFBENCH_TRACE   "1": record spans around barrierwalk's public functions
  PERFBENCH_FLOOR   "<state bytes>,<bandwidth array bytes>": after the run,
                    time np.copyto on arrays of these sizes (traced runs;
                    a state size of 0 skips the first)

Set-up time is taken against CLOCK_MONOTONIC, which the parent also read
just before it spawned this process.
"""

import os
import sys
import time


def _copy_seconds(nbytes: int, repeats: int) -> float:
    import numpy as np

    src = np.ones(nbytes // 16, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def main() -> int:
    import barrierwalk

    record = {"import_done": time.monotonic(), "barrierwalk_file": barrierwalk.__file__}
    code = 0
    if os.environ.get("PERFBENCH_PROBE") != "1":
        import resource

        from barrierwalk import cli

        tracer = None
        if os.environ.get("PERFBENCH_TRACE") == "1":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        start = time.perf_counter()
        code = cli.main(sys.argv[1:])
        record["solve_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux; workers are reaped once main returns.
        record["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["worker_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.dump()
        floor = os.environ.get("PERFBENCH_FLOOR")
        if floor:
            state_bytes, bw_bytes = map(int, floor.split(","))
            if state_bytes:
                record["copy_s"] = _copy_seconds(state_bytes, 5)
            record["bw_copy_s"] = _copy_seconds(bw_bytes, 3)
    import json

    with open(os.environ["PERFBENCH_RESULT"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
