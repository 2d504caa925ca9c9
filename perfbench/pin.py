"""Record the pinned output reference the benchmark checks every op against.

    python3 perfbench/pin.py [--program-root DIR]

Runs every op any workload can draw, on the program under DIR (default:
this checkout), and writes ``perfbench/manifest.json``:

* ``cli``: for every CLI op, its exit code and stdout digest, and for
  ``build`` ops the digest of every cache file present afterwards;
* ``warm_cache``: the cache files the warm set-up leaves, per precision;
* ``certify``: the verdict of every certificate and witness.

Pin from the commit the benchmark's first measurements are taken on, and
again only when a change to the program's output is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import run


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "siegel2").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--program-root", type=Path, default=run.ROOT)
    args = parser.parse_args()
    src = args.program_root.resolve() / "src"

    work = run.WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, time.monotonic() + 3600, src)
    manifest = {"source_sha256": source_digest(src), "cli": {}, "warm_cache": {}, "certify": {}}

    def pin(argv, with_cache=False):
        call = runner.cli(argv)
        entry = {"exit": call.code, "stdout_sha256": run.sha256(call.stdout)}
        if with_cache:
            entry["cache"] = run.cache_listing(work)
        manifest["cli"][run.op_key(argv)] = entry
        print(f"exit {call.code} {call.wall_ns / 1e9:7.3f} s  {run.op_key(argv)}", flush=True)

    for precision in sorted({*run.FULL, *run.SMOKE}, reverse=True):
        shutil.rmtree(work / "cache", ignore_errors=True)
        for argv in run.build_ops(precision):
            pin(argv, with_cache=True)
        manifest["warm_cache"][str(precision)] = run.cache_listing(work)
        if precision == run.FULL[1]:
            warm = run.cache_listing(work)
            for pool in run.cli_pools(precision).values():
                for argv in pool:
                    pin(argv)
            if run.cache_listing(work) != warm:
                raise SystemExit("read-side ops changed the warm cache")
            ops = run.certify_ops()
            (work / "ops.json").write_text(json.dumps({"cache_dir": "cache", "ops": ops}))
            call = runner.run(
                [sys.executable, str(run.HERE / "worker.py"), "certify", "ops.json", "result.json"]
            )
            if call.code != 0:
                raise SystemExit(call.stderr.decode(errors="replace"))
            rows = json.loads((work / "result.json").read_text())["rows"]
            for op, (_, verdict) in zip(ops, rows, strict=True):
                manifest["certify"][run.op_key(op)] = verdict

    out = run.MANIFEST
    out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(manifest['cli'])} CLI ops, {len(manifest['certify'])} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
