"""One fresh-process pass of a benchmark workload.

    python3 perfbench/worker.py --workload W --seed S --mode M --spawned T --workdir DIR

Set-up (every mode) imports ``kahlerlab`` from ``src/`` of the checkout,
writes the input files into DIR and builds the models they describe; the
set-up time is counted from T, the parent's ``time.monotonic()`` just before
it started this process.  Then, by mode:

- ``setup``: stop there;
- ``plain``: run the workload's ops through ``kahlerlab.cli.main`` one after
  another, untouched, and time them;
- ``traced``: the same with the span tracer installed;
- ``probe``: run the known-defect probe ops once, untimed.

The last line of standard output is the pass's result as one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def setup(workdir):
    """Import the program from the checkout and make the inputs ready."""
    src = ROOT / "src"
    if not (src / "kahlerlab" / "__init__.py").is_file():
        raise SystemExit(f"no kahlerlab sources under {src}")
    sys.path.insert(0, str(src))
    import kahlerlab.cli
    from kahlerlab import models
    if Path(kahlerlab.__file__).resolve().parent != src / "kahlerlab":
        raise SystemExit(f"imported kahlerlab from {kahlerlab.__file__}, not {src}")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    for name, payload in workloads.INPUT_FILES.items():
        with open(name, "w") as fh:
            json.dump(payload, fh)
    # build every model the inputs describe, so a malformed input fails here
    for name, payload in workloads.INPUT_FILES.items():
        if "model" in payload:
            models.model_from_descriptor(payload["model"])
        else:
            models.pullback_fs(models.complex_matrix_from_pairs(payload))
    return kahlerlab.cli.main


def run_op(main, argv):
    """Run one CLI op; returns (exit code, error text or None)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv), None
        except SystemExit as exc:      # argparse usage errors
            return exc.code, f"SystemExit: {exc.code}"
        except Exception as exc:       # an op that crashes is a failed op
            return None, f"{type(exc).__name__}: {exc}"


def check_op(argv, expect_dim, rc, error):
    """Why the op's output is wrong, or None; and the report's SHA-256."""
    if error is not None:
        return error, None
    out = argv[argv.index("--out") + 1]
    try:
        with open(out, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return f"exit code {rc}; report {out}: {exc}", None
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if report.get("scenario") != argv[0] or not report.get("checks"):
        problems.append("report has no checks for its scenario")
    failed = [c["name"] for c in report.get("checks", []) if c.get("pass") is not True]
    if failed:
        problems.append(f"checks failed: {', '.join(failed)}")
    if expect_dim is not None and report.get("dimension") != expect_dim:
        problems.append(f"mobility dimension {report.get('dimension')}, "
                        f"closed form {expect_dim}")
    return "; ".join(problems) or None, hashlib.sha256(raw).hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "traced", "probe"], required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    cli_main = setup(args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    op_list = workloads.ops("probe" if args.mode == "probe" else args.workload, args.seed)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        spans = {argv[0]: tracer.span(f"cli.{argv[0]}", cli_main) for argv, _ in op_list}

    outcomes = []
    t0 = time.perf_counter()
    for k, (argv, _) in enumerate(op_list):
        if tracer is None:
            outcomes.append(run_op(cli_main, argv))
        else:
            tracer.run_id = k
            outcomes.append(run_op(spans[argv[0]], argv))
    wall_s = time.perf_counter() - t0

    ops = []
    for (argv, expect_dim), (rc, error) in zip(op_list, outcomes):
        problem, digest = check_op(argv, expect_dim, rc, error)
        ops.append({"argv": argv, "exit": rc, "problem": problem, "report_sha256": digest})
    result.update(wall_s=wall_s, ops=ops,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        result["absent"] = tracer.absent
        result["absent_metrics"] = tracer.absent_metrics
        result["bases"] = tracer.bases()
        tracer.dump("spans.jsonl")
        result["spans_file"] = str(Path("spans.jsonl").resolve().relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
