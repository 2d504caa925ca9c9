"""The processes the benchmark harness (run.py) measures.

    worker.py cli OUT [--trace] -- ARGV...
        Runs ``siegel2.cli.main(ARGV)``, as ``python -m siegel2 ARGV`` does,
        and exits with its return code.  Stdout is the command's own, byte
        for byte.

    worker.py certify OPS OUT [--trace]
        Runs the certificate ops listed in the JSON file OPS on one fresh
        ``GeneratorRegistry`` over the cache directory named there and
        records each op's time and verdict.

Both write to the JSON file OUT, when the work is done: the reference-loop
timings taken while it ran (see calibrate.py), the time to import
``siegel2.cli``, the certificate rows, and with ``--trace`` the spans of
every traced layer (see tracer.py).  The import time and each row's time
leave out the reference loop's own time.  The program's directory must be
on PYTHONPATH.
"""

import json
import sys
from time import perf_counter_ns

import calibrate

SAMPLER = calibrate.Sampler()


def _certify(job, record, tracer):
    from siegel2 import generators, verify

    registry = generators.GeneratorRegistry(job["cache_dir"])
    rows = record["rows"] = []
    for kind, k, p, precision in job["ops"]:
        taken = len(SAMPLER.samples)
        t = perf_counter_ns()
        if kind == "theorem1":
            report = verify.verify_theorem1_rank(k, p, precision, registry)
            verdict = [report.passed, report.rank_truncated, report.rank_full]
        else:
            spec, report = verify.sharpness_witness(k, p, registry)
            verdict = [str(spec), report.verdict]
        rows.append([perf_counter_ns() - t - SAMPLER.ns_since(taken), verdict])
    return 0


def _cli(argv, record, tracer):
    import siegel2.cli

    main = siegel2.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    return main(argv)


def main(args):
    if len(args) >= 3 and args[0] == "cli" and "--" in args:
        split = args.index("--")
        out, options, task = args[1], args[2:split], (_cli, args[split + 1 :])
    elif len(args) >= 3 and args[0] == "certify":
        out, options = args[2], args[3:]
        with open(args[1], encoding="utf-8") as handle:
            task = (_certify, json.load(handle))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    SAMPLER.start()
    record = {}
    tracer = None
    try:
        t = perf_counter_ns()
        import siegel2.cli  # noqa: F401

        record["import_ns"] = perf_counter_ns() - t - SAMPLER.ns_since(0)
        if "--trace" in options:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        run, payload = task
        return run(payload, record, tracer)
    finally:
        record["reference"] = SAMPLER.stop()
        sys.stdout.flush()
        if tracer is not None:
            record["spans"] = tracer.spans
            # The loop's timings are kept out of every span, like the hooks.
            record["gaps"] = tracer.gaps + [(t, t + d) for t, d in record["reference"]]
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
