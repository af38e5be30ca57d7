#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload serve-read|serve-write|track \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` binary and the
`avt-serve` server from source (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), then runs `perfbench` with the metric names that
BENCHMARK.json declares for the chosen mode. Its report goes to stdout;
the last line is the JSON result. Build output goes to stderr. The exit
code is perfbench's: 0 when every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
# A run costs a part that grows with its measured seconds (the run, the
# in-process replay of its requests, a `track` round that overruns) and a
# fixed part (server starts or dataset preparation, the 10 s grace for
# late replies, the traced run's loaded replay). The limit allows twice
# the first plus 110 s: 170 s at the benchmark's 30 s.
RUN_FIXED_S = 110


def source_digest():
    """sha256 over the sources the benchmark builds, for provenance
    where no git metadata is available."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for top in ("crates", "shims"):
        files += sorted((ROOT / top).rglob("*.rs"))
        files += sorted((ROOT / top).rglob("Cargo.toml"))
    files += sorted((HERE / "src").rglob("*.rs"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "tree-sha256:" + source_digest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    group = "per_layer" if args.trace == "1" else "end_to_end"
    names = [m["name"] for m in spec[group]]

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "-p", "avt-perfbench", "-p", "avt-serve",
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if built.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {built.returncode}")

    release = target / "release"
    cmd = [
        str(release / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", str(release / "avt-serve"),
        "--bench-dir", str(HERE),
        "--out-dir", str(pathlib.Path.cwd() / ".perfbench"),
        "--expect", ",".join(names),
        "--commit", commit_id(),
        "--rustc", rustc_version(),
    ]
    # The repository's runtime switches are AVT_* environment variables;
    # the benchmark measures their defaults, so none reaches perfbench or
    # the server it starts.
    run_env = {k: v for k, v in os.environ.items() if not k.startswith("AVT_")}
    timeout = RUN_FIXED_S + 2 * args.seconds
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=run_env)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: the benchmark overran {timeout}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
