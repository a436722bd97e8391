"""Work the benchmark runs in a fresh interpreter.

    python3 cold.py setup <workload> <seed>
        import the package and build the workload's first deck; print the
        import and build times as JSON.
    python3 cold.py cli <argv...>
        one traced CLI request: install the span wrappers, time
        `import atomsqueeze.cli`, call `cli.main(argv)`, and append the spans
        to stderr after a marker line.  Exits with the CLI's code.
"""

import time

T_ENTER = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

common.pin_blas()


def setup(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    common.import_package(common.IMPORT_NAMES[workload])
    import_s = time.perf_counter() - t0
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[workload]().deck(seed, 0)
    build_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "build_s": build_s, "python_s": time.perf_counter() - T_ENTER}))
    return 0


def cli(argv: list) -> int:
    t0 = time.perf_counter()
    cli_module = common.import_package("atomsqueeze.cli")
    import_s = time.perf_counter() - t0
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.begin_request("n1")
    code = rec.call(rec.name_index("cli.main"), cli_module.main, (argv,), {})
    sys.stdout.flush()
    payload = {"spans": rec.export(), "import_s": import_s, "python_s": time.perf_counter() - T_ENTER}
    sys.stderr.write("\n" + common.TRACE_MARKER + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest[0], int(rest[1])))
    if mode == "cli":
        sys.exit(cli(rest))
    sys.exit(f"cold.py: unknown mode {mode!r}")
