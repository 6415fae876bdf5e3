#!/usr/bin/env python3
"""Sigma-Dedupe benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the library, the
node_server daemon and the sigma_bench program from source (CMake, Release)
into .bench_build/, runs one workload, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json). The line before it, starting with "HOST ", records the
host and build the numbers came from.

Workloads (inputs come from the src/workload generators, seeded by --seed;
all four are closed-loop with one stream from one process). Each timed
sample is one pass (restore: one ~1 s slice); metrics are medians.

  backup-versions  12 generations of a Linux-like tree (LinuxGenerator,
                   ~1000 files of 16 KB mean, ~280 MB, DR ~7) through
                   SigmaDedupe over loopback: 8 nodes, Sigma routing, 256 KB
                   super-chunks, pipeline depth 4, CDC 4 KB. Every pass backs
                   up its own tree (seeded from --seed and the pass number)
                   into a fresh fleet. Why: client-side chunking and SHA-1 do
                   most of the work; most super-chunks are duplicates, so
                   routing probes and node duplicate tests are busy while
                   container appends are rare; the working set fits in the
                   fingerprint cache.
  restore          setup (three times, median charged to setup_s) generates
                   such a tree and backs it up into a loopback fleet over
                   FileBackend (no fsync); the timed phase restores files of
                   the latest generation in a fixed order and checks each
                   byte for byte. Why: the read half of the I/O path, with
                   chunking, hashing and routing idle; reads of the latest
                   generation scatter over containers written by older ones.
  trace-replay     a pre-fingerprinted mail-like archive-scan trace
                   (StreamTraceGenerator, 6.4 GB logical, DR ~7) replayed
                   through Cluster in direct mode: 32 nodes, Sigma routing,
                   1 MB super-chunks. Each node's fingerprint cache holds 2
                   containers (8 MB) against ~26 MB of unique data per node.
                   Why: the paper's own evaluation path; routing, the
                   similarity index, cache prefetch, the Bloom filter and
                   the chunk index do all the work, with no chunking,
                   hashing, transport or payload.
  backup-tcp       two generations of VM images (VmGenerator, 8 VMs, ~330 MB,
                   DR ~4.5, static 4 KB chunks) backed up at depth 4 into two
                   node_server daemons (4 file-backed nodes each, default
                   flush policy: fsync on container seal) on 127.0.0.1,
                   spawned fresh for every pass. Why: the only workload that
                   runs src/net/tcp, src/server and durable container puts;
                   fewer duplicates mean more payload bytes per MB cross the
                   wire and get sealed, while chunking costs almost nothing.

Everything the run writes stays inside the checkout: .bench_build/ (build),
.bench_run/<pid>/ (private data directories, removed at exit) and
.bench_out/ (span dumps of the last traced run per workload).
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("backup-versions", "restore", "trace-replay", "backup-tcp")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    """Configure (once) and build; returns the directory of the binaries."""
    source = root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return build_dir


def host_record(root: Path, build_dir: Path) -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text(errors="replace")
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.machine())
    flags = next((line.split(":", 1)[1].split()
                  for line in cpuinfo.splitlines()
                  if line.startswith("flags")), [])
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "sha_ni": "sha_ni" in flags,
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": sha or "unknown",
    }


def reap_orphans():
    """Kill and reap every remaining descendant (we are their subreaper)."""
    try:
        children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
        pids = [int(p) for p in children.read_text().split()]
    except OSError:
        pids = []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            if os.waitpid(-1, 0)[0] <= 0:
                break
        except ChildProcessError:
            break


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        bin_dir = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    # Daemons sigma_bench spawns are its children; if it dies they are
    # re-parented to us, so no orphan outlives this run. SIGTERM unwinds
    # through the cleanup below instead of leaving sigma_bench running.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    work_dir = root / ".bench_run" / str(os.getpid())
    out_dir = root / ".bench_out"
    cmd = [str(bin_dir / "sigma_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin-dir", str(bin_dir),
           "--work-dir", str(work_dir), "--out-dir", str(out_dir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        reap_orphans()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    log(f"{args.workload} seed={args.seed} trace={args.trace} "
        f"took {time.monotonic() - start:.1f} s")
    print("HOST " + json.dumps(host_record(root, build_dir), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
