#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload impute --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the program's libraries and
the perfbench binary from source into .bench_build/, trains the nano-GPT
checkpoint once per training-code hash (outside every timed run), runs the
workload, and prints three JSON lines: the run's provenance, its info (row
digests, sample counts), and last the result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The same three objects are written to .bench_build/reports/. With --trace 1
the metrics are the per-layer ones and the spans go to .bench_build/traces/.

Exit code 0 only when the run completed and every output check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("impute", "synth")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# Sources the checkpoint depends on: the trainer and model, the corpus
# generator and text format, the RNG, and the recipe in perfbench/train.cpp.
CHECKPOINT_INPUTS = ("src/lm", "src/telemetry", "src/util", "perfbench/train.cpp",
                     "perfbench/bench.hpp")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def sha256_of_paths(root, paths):
    h = hashlib.sha256()
    for rel in paths:
        base = root / rel
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def run_quiet(cmd, cwd, env=None):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def build(root, build_dir):
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cache = build_dir / "CMakeCache.txt"
    source = root / "perfbench"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, root, env)
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)], root, env)
    return build_dir / "perfbench"


def checkpoint(root, binary, models_dir):
    key = sha256_of_paths(root, CHECKPOINT_INPUTS)
    path = models_dir / f"nanogpt-{key[:16]}.bin"
    if not path.exists():
        models_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        run_quiet([str(binary), "train", "--out", str(tmp)], root)
        tmp.replace(path)
    return path, key


def cmake_cache_value(build_dir, name):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return None


def provenance(root, build_dir, args, model, model_key):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else None
    sha = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        sha = out.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version or compiler,
        "build_type": cmake_cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": sha256_of_paths(root, ("src", "perfbench")),
        "seed": args.seed,
        "checkpoint_sha256": hashlib.sha256(model.read_bytes()).hexdigest(),
        "checkpoint_inputs_sha256": model_key,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"no program sources under {root / 'src'}", 2)
    out_dir = root / ".bench_build"
    build_dir = out_dir / "perfbench"
    binary = build(root, build_dir)
    model, model_key = checkpoint(root, binary, out_dir / "models")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--model", str(model)]
    if args.trace:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out_dir / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        fail(f"perfbench exited {proc.returncode} without a result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    report = {"provenance": provenance(root, build_dir, args, model, model_key),
              "info": info, "result": result}
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports" / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
