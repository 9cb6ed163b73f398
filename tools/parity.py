"""Compare the CLI output of two checkouts, case by case.

    python3 tools/parity.py BASE_DIR CHANGE_DIR

It writes the inputs of the case table in `cli_cases.py`, beside this script,
once. One child process per checkout imports that checkout's `src/` and runs
every case in-process, printing the results as JSON.

Exit status: 0 when every case matches, 1 when any differs (each differing
case is listed with both outputs), 2 on a usage error or when a checkout
cannot run the cases.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import cli_cases  # from this script's directory, never from a checkout


def _run_checkout(checkout: Path, directory: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, __file__, "--child", directory], env=env,
                          cwd=directory, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(f"parity: {checkout} could not run the cases:\n{proc.stderr[-2000:]}")
        raise SystemExit(2)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:  # one checkout's run, started by the parent below
        print(json.dumps({case[0]: cli_cases.run(case, argv[1]) for case in cli_cases.CASES}))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout whose output is expected")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "lix" / "cli.py").is_file():
            parser.error(f"{checkout} has no src/lix/cli.py")

    with tempfile.TemporaryDirectory(prefix="lix-parity-") as directory:
        cli_cases.write_inputs(directory)
        base, change = (_run_checkout(c, directory) for c in (args.base, args.change))
    differing = [name for name in base if base[name] != change[name]]
    for name in differing:
        print(f"--- {name}")
        for side, result in (("base", base[name]), ("change", change[name])):
            print(f"{side}: exit {result[0]}\n  stdout: {result[1]!r}\n  stderr: {result[2]!r}")
    print(f"parity: {len(base)} cases, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
