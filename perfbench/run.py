#!/usr/bin/env python3
"""Repository benchmark: D&C-GEN trawling, ordered D&C-GEN, and open-loop
serving, measured end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload trawl --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --prepare   # one-off: retrain the pinned model
    python3 perfbench/run.py --freeze    # one-off: snapshot src/ as reference

Run from the root of a checkout. The first run unpacks the reference
snapshot of the library (perfbench/reference/) and builds it, the library
sources and the benchmark binary (perfbench/*.cpp) into .bench_build/.
Every run decodes the pinned checkpoint from perfbench/model/, checks it
and the snapshot against their SHA256SUMS, runs the binary, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics. The metric names, units and bounds are those of BENCHMARK.json;
perfbench/PREDICTIONS.md says what each one should and should not move. The
exit code is 0 only when the run completed and every output check passed.
"""

import argparse
import base64
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "ppg_perfbench"
MODEL_DIR = BENCH_DIR / "model"
CHECKPOINT = "pag.ckpt"  # the pinned checkpoint; its .patterns sits beside
MODEL_FILES = (CHECKPOINT, CHECKPOINT + ".patterns")
REFERENCE_DIR = BENCH_DIR / "reference"
SNAPSHOT = "src.tar.xz"  # the reference build's library sources
# The library modules the reference build needs, and only those.
REFERENCE_MODULES = ("common", "obs", "nn", "tokenizer", "pcfg", "data", "gpt",
                     "search", "core")
WORKLOADS = ("trawl", "ordered", "serve")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def newest_source_mtime(reference_src):
    newest = 0.0
    for base in (ROOT / "src", BENCH_DIR, reference_src):
        for path in base.rglob("*"):
            if path.suffix in (".cpp", ".h", ".txt") and path.is_file():
                newest = max(newest, path.stat().st_mtime)
    return newest


def build():
    """Builds the binary unless it is newer than every source file."""
    reference_src = unpack_reference()
    if (BINARY.exists() and
            BINARY.stat().st_mtime >= newest_source_mtime(reference_src)):
        return
    start = time.monotonic()
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DPPG_REFERENCE_SRC={reference_src}"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "ppg_perfbench", "-j4"], check=True, stdout=sys.stderr)
    log(f"built {BINARY.name} in {time.monotonic() - start:.0f} s")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def decode(directory, name):
    """The bytes of text-encoded `name` in `directory`, checked against the
    directory's SHA256SUMS."""
    sums = {}
    for line in (directory / "SHA256SUMS").read_text().splitlines():
        digest, file_name = line.split()
        sums[file_name] = digest
    data = base64.b64decode((directory / f"{name}.b64").read_text())
    if sha256(data) != sums[name]:
        raise SystemExit(f"run.py: {name} does not match SHA256SUMS")
    return data


def encode(directory, files):
    """Writes each (name, bytes) text-encoded into `directory`, with a
    SHA256SUMS for them."""
    directory.mkdir(exist_ok=True)
    sums = []
    for name, data in files:
        text = base64.encodebytes(data).decode("ascii")  # 76-column lines
        (directory / f"{name}.b64").write_text(text)
        sums.append(f"{sha256(data)}  {name}\n")
    (directory / "SHA256SUMS").write_text("".join(sums))


def decode_model():
    """Decodes the text-encoded checkpoint into the build directory."""
    out_dir = BUILD_DIR / "model"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in MODEL_FILES:
        (out_dir / name).write_bytes(decode(MODEL_DIR, name))
    return out_dir / CHECKPOINT


def unpack_reference():
    """Unpacks the reference snapshot into the build directory, unless the
    same snapshot is already there; returns its source root."""
    data = decode(REFERENCE_DIR, SNAPSHOT)
    out_dir = BUILD_DIR / "reference"
    stamp = out_dir / "SHA256"
    if not (stamp.exists() and stamp.read_text() == sha256(data)):
        shutil.rmtree(out_dir, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:xz") as tar:
            tar.extractall(out_dir, filter="data")
        stamp.write_text(sha256(data))
    return out_dir / "src"


def freeze():
    """Snapshots REFERENCE_MODULES of src/ into perfbench/reference/."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:xz") as tar:
        for module in REFERENCE_MODULES:
            for path in sorted((ROOT / "src" / module).iterdir()):
                if path.suffix not in (".h", ".cpp"):
                    continue
                info = tar.gettarinfo(str(path), f"src/{module}/{path.name}")
                info.mtime, info.mode = 0, 0o644
                info.uid = info.gid = 0
                info.uname = info.gname = ""
                with path.open("rb") as f:
                    tar.addfile(info, f)
    encode(REFERENCE_DIR, [(SNAPSHOT, buf.getvalue())])
    log(f"wrote {SNAPSHOT} ({', '.join(REFERENCE_MODULES)}) to {REFERENCE_DIR}")


def prepare():
    """Retrains the pinned model and rewrites perfbench/model/."""
    out_dir = BUILD_DIR / "prepare"
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run([str(BINARY), "--prepare", str(out_dir / CHECKPOINT)],
                   check=True)
    encode(MODEL_DIR, [(name, (out_dir / name).read_bytes())
                       for name in MODEL_FILES])
    log(f"wrote {', '.join(MODEL_FILES)} to {MODEL_DIR}")


def select_metrics(measured, trace, problems):
    """The metrics BENCHMARK.json names for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None and trace:
            # A layer the workload never calls did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        selected[m["name"]] = got
    return selected


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args()
    if args.freeze:
        freeze()
        return 0
    if not args.prepare and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.prepare:
        prepare()
        return 0

    model = decode_model()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--model", str(model), "--work-dir", str(BUILD_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{BINARY.name} did not finish within {BINARY_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    result_lines = [ln for ln in lines if ln.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.returncode != 0 or not result_lines:
        log(f"{BINARY.name} exited with {proc.returncode}")
        return 1

    raw = json.loads(result_lines[-1][len("RESULT "):])
    problems = []
    metrics = select_metrics(raw["metrics"], args.trace, problems)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = raw["correct"] and not problems
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
