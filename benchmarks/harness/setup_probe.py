"""Time one fresh interpreter from `import entbound` to its first record.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON VARIANT OUT_JSONL

Runs `entbound verify` for one trial through `entbound.cli.main`, so the
time covers importing the package and its CLI, every lazy first-call
cost, and writing the first record. Prints the seconds on stdout.
"""

import contextlib
import io
import sys
import time


def main(argv: list[str]) -> int:
    src, config_path, variant, out = argv
    sys.path.insert(0, src)
    start = time.perf_counter()
    import entbound  # noqa: F401  (the import is what is being timed)
    import entbound.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = entbound.cli.main(
            ["verify", "--config", config_path, "--trials", "1", "--variant", variant, "--out", out]
        )
    elapsed = time.perf_counter() - start
    if code != entbound.cli.EXIT_OK:
        print(f"setup_probe: entbound verify exited {code}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
