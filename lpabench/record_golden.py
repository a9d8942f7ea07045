"""Record golden.json: the digest of the real CLI's stdout for every input.

    python3 lpabench/record_golden.py

Runs ``python3 -m lpa.cli`` from this checkout's ``src/`` once for the whole
``lpa random`` pool and once per ``lpa center`` input.  Run it only at a
commit whose output is the reference; the benchmark then counts every input
whose JSON differs from it as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import BENCH, OUT, ROOT, import_lpa


def cli(*args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "lpa.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"lpa {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def split_random(stdout: str) -> list[str]:
    """Split `lpa random` JSON output into one text per graph."""
    docs, current = [], []
    for line in stdout.splitlines(keepends=True):
        if line.startswith("summary:"):
            break
        current.append(line)
        if line == "}\n":
            docs.append("".join(current))
            current = []
    return docs


def main() -> int:
    lpa = import_lpa()
    import workloads

    OUT.mkdir(exist_ok=True)
    golden = {}
    p = workloads.CAMPAIGN_POOL
    docs = split_random(cli("random", "--seed", str(p["seed"]), "--count", str(p["count"]),
                            "--max-vertices", str(p["max_vertices"]),
                            "--max-edges", str(p["max_edges"])))
    if len(docs) != p["count"]:
        sys.exit(f"expected {p['count']} graphs from lpa random, got {len(docs)}")
    for i, text in enumerate(docs):
        golden[f"campaign/{i}"] = workloads.digest(text)
    path = OUT / "golden-input.json"
    for inp in workloads.all_pool_inputs(lpa):
        if inp.text is None:
            continue
        path.write_text(inp.text)
        golden[inp.key] = workloads.digest(cli(*inp.cli_args(str(path))))
    path.unlink()
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
