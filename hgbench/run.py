#!/usr/bin/env python3
"""Run one HGMatch benchmark workload from the root of a checkout.

    python3 hgbench/run.py --workload local-mix --seed 1 --seconds 15 --trace 0
    python3 hgbench/run.py --recount      # recompute hgbench/reference.tsv

The first run builds the program's sources together with the harness in
hgbench/ (an sbt build of its own) and caches the classpath under
.bench_build/; later runs start the JVM directly. The last line of standard
output is the run's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["local-mix", "ar-chain", "spark-wt"]
BUILD_TIMEOUT_S = 840
HEAP = "-Xmx3g"

# JDK 17 module opens that spark-submit normally injects.
OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    ]
]


def fail(msg):
    print(f"hgbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_stamp():
    """Digest of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt if the sources changed; return the runtime classpath."""
    stamp_file = os.path.join(WORK, "stamp")
    cp_file = os.path.join(WORK, "classpath")
    stamp = sources_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")  # the last line is the classpath
    if out.returncode != 0 or not lines:
        fail(f"build failed (sbt exit {out.returncode})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def run_timeout(seconds, trace):
    """Set-up and warm-up, then one timed phase (two when traced) with a round of overrun each."""
    return 120 + (2 if trace else 1) * 2 * seconds


def java(cp, args, timeout):
    cmd = ["java", HEAP, f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}", *OPENS, "-cp", cp,
           "hgbench.Main", *args]
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--recount", action="store_true",
                    help="recompute the reference counts with the independent recount")
    a = ap.parse_args()
    if not a.recount and a.workload is None:
        fail("give --workload or --recount")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"the program's sources (src/main/scala/repro) are not under {ROOT}")
    cp = build()
    reference = os.path.join(BENCH, "reference.tsv")
    if a.recount:
        sys.exit(java(cp, ["recount", reference], timeout=None))
    code = java(cp, ["run", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                     "--trace", str(a.trace), "--reference", reference, "--work-dir", WORK],
                timeout=run_timeout(a.seconds, a.trace))
    sys.exit(code)


if __name__ == "__main__":
    main()
