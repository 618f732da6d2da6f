"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py SRC OPS_JSON RESULT_JSON [TRACE_JSON]

Imports hyperwalks from SRC, runs every operation of OPS_JSON in order through
the public surface (`hyperwalks.cli.main(argv)`, or `parse_word` followed by
`recognize` for long words) and writes the import time, each operation's exit
code, output and wall time, and the process's peak RSS to RESULT_JSON.  With
TRACE_JSON, the calls into each layer are recorded as spans and written there.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_recognize(hyperwalks, op):
    word = hyperwalks.parse_word(op["text"], op["r"])
    answer = hyperwalks.recognize(hyperwalks.LanguageSpec(op["language"], op["r"]), word)
    return 0, "1" if answer else "0", ""


def main(src, ops_path, result_path, trace_path=None):
    with open(ops_path) as fh:
        ops = json.load(fh)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import hyperwalks
    import hyperwalks.cli
    import_s = time.perf_counter() - start

    recorder = None
    if trace_path:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    results = []
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.op = index
        gc.collect()
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                code, out, err = run_cli(hyperwalks.cli, op["argv"])
            else:
                code, out, err = run_recognize(hyperwalks, op)
        except Exception as exc:  # reported as a failed operation, the pass goes on
            code, out, err = "exception", "", f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        results.append({"code": code, "out": out, "err": err, "wall_s": wall_s})

    if recorder is not None:
        recorder.dump(trace_path)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "maxrss_kb": maxrss_kb, "ops": results}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
