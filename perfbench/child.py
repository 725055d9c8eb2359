"""Run one ``hemln`` CLI command in this fresh process and report on it.

Usage: python3 child.py SRC RESULT_JSON STDOUT_FILE TRACE(0|1) -- ARGV...

The wall time runs from before ``hemln`` is imported until ``main``
returns, so every sample pays the import and the lazy adjacency build
as a CLI user does. Peak resident memory is this process's ``VmHWM``:
on Linux ``ru_maxrss`` also keeps the parent's peak across ``exec``.
After the peak is read, the child times the host-speed calibration
(``hostspeed.py``); the parent scales the command's wall time by it.
With TRACE=1 the module wrappers are installed around the command and
the spans and counts go into RESULT_JSON as well.
"""
import json
import resource
import sys
import time
import traceback

from hostspeed import calibrate


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src, result_path, stdout_path, trace = sys.argv[1:5]
    argv = sys.argv[sys.argv.index("--") + 1:]
    if trace == "1":  # the tracer's own import is not part of the job
        from spans import Tracer, hemln_targets
    started = time.perf_counter()
    sys.path.insert(0, src)
    from hemln import cli
    imported = time.perf_counter()
    tracer = None
    with open(stdout_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            if trace == "1":
                tracer = Tracer()
                tracer.spans.append(["cli.import", started, imported, None])
                with tracer.installed(hemln_targets()):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported, counted as a failed command
            traceback.print_exc()
            code = 3
        finally:
            sys.stdout = sys.__stdout__
    wall = time.perf_counter() - started
    report = {"code": code, "wall_s": wall, "rss_kib": peak_rss_kib(),
              "calibration_s": calibrate(),
              "spans": tracer.spans if tracer else [],
              "counts": tracer.counts if tracer else {}}
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
