"""Capture the golden CLI outputs that the cli-mix workload compares against.

Run from the repository root, on the commit whose behaviour is the reference:

    python3 benchmarks/make_golden.py

It runs every command below through ``selfsim.cli.main`` in-process and
writes the exit code, the stdout text and every ``-o`` file to
``benchmarks/golden.json``.  ``{tmp}`` in an argument stands for a scratch
directory that holds the relation files of ``workloads.GOLDEN_FILES``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One command per subcommand and emit mode, plus a failed check (exit 1) and
# an input error (exit 2).  (argv, names of files written with -o)
COMMANDS = [
    (["act", "--machine", "builtin:adding", "--word", "a", "--string", "111"], []),
    (["act", "--machine", "builtin:diagram1", "--word", "a g^-1 a", "--string", "2102"], []),
    (["orbit-type", "--machine", "builtin:diagram1"], []),
    (["orbit-type", "--machine", "builtin:thmD(3)"], []),
    (["portrait", "--machine", "builtin:adding", "--word", "a", "--depth", "3"], []),
    (["portrait", "--machine", "builtin:diagram3", "--word", "g s", "--depth", "3"], []),
    (["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "8"], []),
    (["states", "--machine", "builtin:thmD-engine(2)", "--word", "a", "--max", "40", "--sep-depth", "4"], []),
    (["check", "--machine", "builtin:diagram1", "--relations", "{tmp}/diagram1.rel", "--depth", "10"], []),
    (["check", "--machine", "builtin:thmD(2)", "--relations", "{tmp}/thmD2.rel", "--depth", "6"], []),
    (["witness", "--model", "zwrz", "--word", "g1 a1", "--max-depth", "10"], []),
    (["witness", "--model", "lamplighter:B=2,3", "--word", "z^-1 b1 z b1^-1", "--max-depth", "12"], []),
    (["witness", "--model", "cp-wr-z2:p=2", "--word", "a a a a", "--max-depth", "8"], []),
    (["build", "--data", "cp-wr-z2:p=2", "--emit", "recursions"], []),
    (["build", "--data", "zwrz", "--emit", "file", "-o", "{tmp}/zwrz.txt"], ["zwrz.txt"]),
    (["build", "--data", "zwrz", "--emit", "dot"], []),
    (["build", "--data", "zwrz-wr-c2", "--emit", "recursions"], []),
    (["build", "--data", "cp-wr-z2:p=2", "--emit", "file"], []),
    (["inflate", "--machine", "builtin:brunner_sidki", "-k", "2", "--emit", "recursions"], []),
    (["inflate", "--machine", "builtin:adding", "-k", "2", "--emit", "file"], []),
    (["inflate", "--machine", "builtin:diagram1", "-k", "2", "--emit", "dot", "-o", "{tmp}/d1.dot"], ["d1.dot"]),
    (["concat", "--data", "lamplighter:B=2+zwrz", "--emit", "recursions"], []),
]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    sf = workloads.package()
    tmp = HERE / "out" / "golden-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in workloads.GOLDEN_FILES.items():
            (tmp / name).write_text(text, encoding="utf-8")
        commands = []
        for argv, files in COMMANDS:
            code, out = workloads.run_cli(sf, workloads.expand(argv, tmp))
            commands.append({
                "argv": argv,
                "exit": code,
                "stdout": out,
                "files": {f: (tmp / f).read_text(encoding="utf-8") for f in files},
            })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    workloads.GOLDEN.write_text(
        json.dumps({"captured_at": commit or "unknown", "commands": commands}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(commands)} commands to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
