"""Benchmark of the ``gibbs-ground`` command line on fixed, seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it runs the package from
``src/`` (nothing is built or installed) and writes only under
``.perfbench-run/`` in the checkout.  The workloads are the JSON files in
``perfbench/workloads/``; each names a command, its config and why it was
chosen.  The seed is passed to every command through ``--seed``.  The
metrics printed, and their units, are those ``BENCHMARK.json`` lists.

Load is a closed loop with one client: one command at a time, each in its
own process, the next started only when the previous one has exited, and
only while the run's ``--seconds`` window is expected to hold it.  Every
artifact is checked against the closed forms in ``reference.py`` and
against the run's first artifact byte for byte (but for the fields a
workload lists as ``unreproducible``); a nonzero exit or a failed
check counts as a failed operation.  The gate itself is tested on every run:
the corrupted copies from ``reference.negative_controls`` must all fail.

``--trace 0`` reports the end-to-end metrics: medians over the run of the
command's wall time, CPU time and peak RSS, the median set-up time of the
separate probes run one before each command, and the share of operations
that succeeded.
``--trace 1`` alternates untraced commands with traced ones (``spans.py``)
and reports the per-layer metrics, medians over the traced commands, plus
the tracing overhead; traced and untraced artifacts must be byte-identical.

The last line of standard output is the result as JSON; the line before
holds the run's metadata (versions, thread counts, digests, sample counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

CLI_ENTRY = "import sys; from gibbs_ground.cli import main; sys.exit(main())"
# Every run must end well inside the 180 s its caller allows.
TIME_LIMIT_S = 170.0


class Run:
    """State of one benchmark run: its workload, seed, operations and failures."""

    def __init__(self, workload: dict, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_artifact: bytes | None = None
        self.controls_ok: bool | None = None
        # Artifacts that differed only in the workload's unreproducible fields.
        self.unreproducible_differed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        RUN_DIR.mkdir()
        self.config_path = RUN_DIR / "config.json"
        self.config_path.write_text(json.dumps(workload["config"], indent=2) + "\n")
        self.out_dir = RUN_DIR / "out"

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, str]:
        """Run one process to completion: (exit code, wall s, CPU s, peak RSS MB, stdout)."""
        log = RUN_DIR / "op.log"
        remaining = self.started + TIME_LIMIT_S - time.monotonic()
        with log.open("wb") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6, log.read_text(errors="replace")

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def artifact_ok(self, label: str, status: int, output: str) -> bool:
        """Check one command's exit status and artifact; count a failure if not."""
        self.attempted += 1
        artifact = self.out_dir / self.workload["artifact"]
        if status != 0:
            self.fail(f"{label}: exit status {status}: {output[-2000:]}")
            return False
        if not artifact.is_file():
            self.fail(f"{label}: no {artifact.name} written")
            return False
        data = artifact.read_bytes()
        if self.first_artifact is not None and data != self.first_artifact:
            same = reference.comparable(data, self.workload)
            if same != reference.comparable(self.first_artifact, self.workload):
                self.fail(f"{label}: {artifact.name} differs from the run's first artifact")
                return False
            self.unreproducible_differed += 1
        problems = reference.check_artifact(data.decode(), self.workload, self.seed)
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
            return False
        if self.first_artifact is None:
            self.first_artifact = data
            self.run_controls(data.decode())
        return True

    def run_controls(self, text: str):
        missed = [
            k
            for k, bad in enumerate(reference.negative_controls(text, self.workload))
            if not reference.check_artifact(bad, self.workload, self.seed)
        ]
        self.controls_ok = not missed
        if missed:
            self.problems.append(f"negative controls {missed} passed the gate")

    def fresh_out(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()

    def command(self, label: str) -> tuple[bool, float, float, float]:
        """One untraced CLI command: (passed, wall s, CPU s, peak RSS MB)."""
        self.fresh_out()
        argv = [
            sys.executable, "-c", CLI_ENTRY, self.workload["command"],
            "--config", str(self.config_path), "--out", str(self.out_dir),
            "--seed", str(self.seed),
        ]
        status, wall, cpu, rss, output = self.spawn(argv)
        return self.artifact_ok(label, status, output), wall, cpu, rss

    def traced_command(self, label: str) -> tuple[bool, float, dict | None]:
        """One traced command: (passed, wall s, per-layer metrics and span table)."""
        self.fresh_out()
        spans_path = RUN_DIR / "spans.json"
        argv = [
            sys.executable, str(HERE / "spans.py"), self.workload["command"],
            "--config", str(self.config_path), "--out", str(self.out_dir),
            "--seed", str(self.seed), "--spans", str(spans_path),
        ]
        status, wall, _, _, output = self.spawn(argv)
        if not self.artifact_ok(label, status, output):
            return False, wall, None
        recorded = json.loads(spans_path.read_text())["spans"]
        lattice = self.workload["config"]["lattice"]
        metrics = spans.layer_metrics(
            recorded, lattice["L"] ** lattice["d"], len(self.workload["config"]["alphas"])
        )
        return True, wall, {
            "metrics": metrics,
            "self_s": spans.self_time_by_span(recorded),
            "eigensolver": [s[4]["method"] for s in recorded if s[0] == spans.SPECTRAL],
        }

    def probe(self, metadata: bool = False) -> tuple[float | None, dict]:
        """Spawn the set-up probe: (set-up seconds, metadata) or None on failure."""
        argv = [sys.executable, str(HERE / "probe.py"), str(self.config_path)]
        if metadata:
            argv.append("--metadata")
        self.attempted += 1
        t0 = time.monotonic_ns()
        status, _, _, _, output = self.spawn(argv)
        lines = output.splitlines()
        if status != 0 or len(lines) < 1 + metadata:
            self.fail(f"set-up probe: exit status {status}: {output[-2000:]}")
            return None, {}
        setup = (int(lines[0]) - t0) / 1e9
        return setup, json.loads(lines[1]) if metadata else {}

    def window(self, seconds: float, one_op):
        """Call one_op() back to back while the next call is expected to end
        inside the window; always at least once."""
        deadline = time.monotonic() + seconds
        durations: list[float] = []
        while not durations or time.monotonic() + statistics.median(durations) <= deadline:
            t0 = time.monotonic()
            one_op(len(durations))
            durations.append(time.monotonic() - t0)
            if time.monotonic() - self.started > TIME_LIMIT_S:
                break

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.controls_ok is True


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    # The first probe fills the file cache and writes the byte-code caches;
    # it is a warm-up and is not counted.
    _, meta = run.probe(metadata=True)
    setups, walls, cpus, rsses = [], [], [], []

    def one(k):
        # A probe before each command spreads the set-up samples over the
        # whole window, so a burst of load on the shared host moves few.
        setup, _ = run.probe()
        if setup is not None:
            setups.append(setup)
        ok, wall, cpu, rss = run.command(f"command {k}")
        if ok:
            walls.append(wall)
            cpus.append(cpu)
            rsses.append(rss)

    run.window(seconds, one)
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(cpus) if cpus else 0.0,
        "peak_rss_mb": statistics.median(rsses) if rsses else 0.0,
        "success_rate": 1.0 - run.failed / run.attempted,
    }
    meta["samples"] = {"commands": len(walls), "setup_probes": len(setups)}
    meta["wall_s_all"] = walls
    return metrics, meta


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    _, meta = run.probe(metadata=True)
    plain_walls, traced_walls, traced = [], [], []

    def one(k):
        ok, wall, _, _ = run.command(f"untraced command {k}")
        if ok:
            plain_walls.append(wall)
        ok, wall, layers = run.traced_command(f"traced command {k}")
        if ok:
            traced_walls.append(wall)
            traced.append(layers)

    run.window(seconds, one)
    samples = [t["metrics"] for t in traced] or [spans.layer_metrics([], 1, 1)]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls)
        if traced_walls and plain_walls
        else 0.0
    )
    meta["samples"] = {"untraced_commands": len(plain_walls), "traced_commands": len(traced)}
    if traced:
        meta["dominant_layer"] = [spans.dominant_layer(t["metrics"]) for t in traced]
        meta["eigensolver"] = traced[0]["eigensolver"]
        meta["self_s_by_span"] = list(traced[0]["self_s"].items())
    return metrics, meta


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gibbs_ground" / "cli.py").is_file():
        print(f"error: no gibbs_ground sources under {SRC}", file=sys.stderr)
        return 2
    workload_path = HERE / "workloads" / f"{args.workload}.json"
    if not workload_path.is_file():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = json.loads(workload_path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = benchmark["per_layer" if args.trace else "end_to_end"]

    run = Run(workload, args.seed)
    try:
        values, meta = (per_layer if args.trace else end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    meta.update(
        source_identity(),
        workload=workload["name"],
        why=workload["why"],
        config_sha256=hashlib.sha256(
            json.dumps(workload["config"], sort_keys=True).encode()
        ).hexdigest(),
        seed=args.seed,
        trace=args.trace,
        negative_controls_rejected=run.controls_ok,
        unreproducible_differed=run.unreproducible_differed,
        problems=run.problems,
    )
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
