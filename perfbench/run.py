#!/usr/bin/env python3
"""The repository's benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `perfbench/` (its own cargo
project, depending on the crates by path) into $CARGO_TARGET_DIR, or
`perfbench/target` when that is unset, renders the workload's reference
frames, then repeats whole rounds of the workload for S seconds. A round
starts fresh processes, so each process's CPU time and peak resident set
(from wait4) belong to that round alone. Every output is checked against
the references; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones (medians over rounds).
With --trace 1 rounds alternate untraced and traced (timing wrappers
around the master and worker logic), the workload is replayed once
through the layer functions, and the metrics are the per-layer ones plus
the tracing overhead. Scratch files go to `.perfbench_work/` in the
checkout and are removed at exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("newton-coherent-tcp", "newton-plain-threads", "service-mix")
WORKERS = 2
# a hung round fails the run instead of outliving its time limit
ROUND_TIMEOUT_S = 60.0


class BenchError(Exception):
    pass


def build():
    """Build the benchmark; return the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


class Proc:
    """A child process whose stdout is read and whose rusage is kept."""

    def __init__(self, binary, args, logdir):
        self.name = args[0]
        self.err = open(os.path.join(logdir, f"{self.name}-{id(self)}.log"), "w+")
        self.p = subprocess.Popen([binary, *args], cwd=ROOT, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.err, text=True)
        self.rusage = None

    def send(self, line):
        """Write one line to the process's stdin and close it."""
        try:
            self.p.stdin.write(line + "\n")
            self.p.stdin.close()
        except OSError:
            raise BenchError(f"{self.name} exited early: {self.stderr()}")

    def listen_addr(self):
        line = self.p.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            raise BenchError(f"{self.name} did not start: {self.stderr()}")
        return line[1]

    def stderr(self):
        self.err.seek(0)
        return self.err.read().strip()[-400:]

    def poll(self):
        if self.rusage is None:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid != 0:
                self.p.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = ru
        return self.rusage is not None

    def kill(self):
        if not self.poll():
            self.p.kill()
            _, status, ru = os.wait4(self.p.pid, 0)
            self.p.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = ru

    def result(self):
        """The JSON object the process printed last."""
        out = self.p.stdout.read()
        for f in (self.p.stdin, self.p.stdout):
            f.close()
        self.err.close()
        if self.p.returncode != 0:
            raise BenchError(f"{self.name} exited {self.p.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{self.name} printed nothing")
        return json.loads(lines[-1])


def wait_all(procs):
    """Wait for every process; kill them all if one fails or hangs."""
    deadline = time.monotonic() + ROUND_TIMEOUT_S
    try:
        while not all(p.poll() for p in procs):
            if time.monotonic() > deadline:
                raise BenchError("round timed out")
            if any(p.rusage is not None and p.p.returncode != 0 for p in procs):
                bad = next(p for p in procs if p.rusage is not None and p.p.returncode != 0)
                raise BenchError(f"{bad.name} failed: {bad.stderr()}")
            time.sleep(0.002)
    finally:
        for p in procs:
            p.kill()
    results = [p.result() for p in procs]
    cpu = sum(p.rusage.ru_utime + p.rusage.ru_stime for p in procs)
    rss_mb = sum(p.rusage.ru_maxrss for p in procs) / 1024.0  # ru_maxrss is KiB on Linux
    return results, cpu, rss_mb


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(q * len(xs)))]


class Bench:
    def __init__(self, binary, workload, seed, work):
        self.bin, self.workload, self.seed, self.work = binary, workload, seed, work
        self.refs = os.path.join(work, "refs.txt")
        self.rounds = 0
        self.refs_seed = None

    def spawn(self, *args):
        return Proc(self.bin, list(args), self.work)

    def round_seed(self):
        """The service mix of each round is drawn from its own seed, derived
        from the run's, so one run spans many mixes and runs of different
        seeds ask for comparable work."""
        return self.seed * 1_000_003 + self.rounds

    def references(self):
        """Render the references the next round is checked against (the
        Newton ones serve every round)."""
        seed = self.round_seed() if self.workload == "service-mix" else self.seed
        if seed != self.refs_seed:
            wait_all([self.spawn("refs", self.workload, "--seed", str(seed), "--out", self.refs)])
            self.refs_seed = seed

    def round(self, traced):
        """One round: fresh processes, one pass of the workload."""
        self.references()
        self.rounds += 1
        flags = ["--traced"] if traced else []
        procs = []

        def spawn(*args):
            procs.append(self.spawn(*args))
            return procs[-1]

        # every process of the round is launched back to back; workers and
        # the client build their state, then read the master's address on
        # stdin, so set-up never waits on this harness between launches
        t0 = time.time()
        try:
            if self.workload == "newton-plain-threads":
                spawn("threads", "--coherence", "0", "--refs", self.refs, *flags)
            else:
                if self.workload == "newton-coherent-tcp":
                    master = spawn("tcp-master", "--coherence", "1", "--refs", self.refs, *flags)
                    for _ in range(WORKERS):
                        spawn("tcp-worker", "--coherence", "1", *flags)
                else:
                    root = os.path.join(self.work, f"svc{self.rounds}")
                    master = spawn("svc-master", "--root", root, *flags)
                    for _ in range(WORKERS):
                        spawn("svc-worker", *flags)
                    spawn("svc-client", "--seed", str(self.refs_seed), "--refs", self.refs)
                addr = master.listen_addr()
                for p in procs[1:]:
                    p.send(addr)
        except BaseException:
            for p in procs:
                p.kill()
            raise
        results, cpu, rss = wait_all(procs)
        if self.workload == "service-mix":
            shutil.rmtree(root, ignore_errors=True)
            return service_round(t0, results, cpu, rss)
        return farm_round(t0, results, cpu, rss)


def cluster_layers(m, workers):
    """Per-layer figures of the master and workers, from a traced round."""
    return {
        "cluster.perform_s": sum(w.get("perform_s", 0.0) for w in workers),
        "cluster.unit_wait_s": sum(w.get("unit_wait_s", 0.0) for w in workers),
        "cluster.assign_s": m["assign_s"],
        "cluster.integrate_s": m["integrate_s"],
        "cluster.units": m["units"],
        "cluster.units_requeued": m["units_requeued"],
        "cluster.wire_bytes": m["wire_bytes"],
        "cluster.messages": m["messages"],
        "cluster.rtt_s": median([r for r in m["rtt_s"] if r > 0]),
    }


def farm_round(t0, results, cpu, rss):
    m = results[0]
    if not m["frame_done"]:
        raise BenchError("no frame was finalized")
    lat = [t - m["submitted"] for t in m["frame_done"]]
    return {
        "attempted": m["attempted"], "failed": m["failed"], "correct": m["correct"],
        "e2e": {
            "makespan_s": lat[-1],
            "setup_s": m["first_lease"] - t0,
            "job_latency_p50_s": lat[-1],
            "frame_latency_p50_s": median(lat),
            "cpu_s": cpu,
            "peak_rss_mb": rss,
        },
        # on the threads farm the master process reports its workers' times
        "layers": cluster_layers(m, results[1:] or [m]),
    }


def service_round(t0, results, cpu, rss):
    m, workers, c = results[0], results[1:-1], results[-1]
    if not c["job_done"]:
        raise BenchError("no job finished")
    jobs = [d - s for s, d in zip(c["job_submit"], c["job_done"])]
    builds = sum(w["scene_builds"] for w in workers)
    return {
        "attempted": c["attempted"], "failed": c["failed"], "correct": c["correct"],
        "e2e": {
            "makespan_s": max(c["job_done"]) - min(c["job_submit"]),
            "setup_s": m["first_lease"] - t0,
            "job_latency_p50_s": median(jobs),
            "frame_latency_p50_s": median(c["frame_latency_s"]),
            "cpu_s": cpu,
            "peak_rss_mb": rss,
        },
        "layers": {
            **cluster_layers(m, workers),
            "service.submit_s": median(c["submit_rtt_s"]),
            "service.queue_wait_p50_s": median(m["queue_wait_s"]),
            "service.first_frame_p50_s": median(c["first_frame_s"]),
            "service.job_latency_p90_s": quantile(jobs, 0.9),
            "service.job_latency_p90_n": len(jobs),
            "service.scene_builds": builds,
            "service.scene_cache_hit_ratio": 1.0 - builds / max(m["scene_lookups"], 1),
        },
    }


def run(args, work):
    binary = build()
    bench = Bench(binary, args.workload, args.seed, work)
    bench.references()
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        untraced.append(bench.round(traced=False))
        if args.trace:
            traced.append(bench.round(traced=True))
        if time.monotonic() - start >= args.seconds:
            break
    rounds = untraced + traced
    out = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        values = {k: median([r["e2e"][k] for r in untraced]) for k in units}
    else:
        replay = Proc(binary, ["replay", args.workload, "--seed", str(bench.refs_seed),
                               "--dir", os.path.join(work, "replay")], work)
        values = wait_all([replay])[0][0]
        for k in traced[0]["layers"]:
            values[k] = median([r["layers"][k] for r in traced])
        values["trace.overhead_s"] = (median([r["e2e"]["makespan_s"] for r in traced])
                                      - median([r["e2e"]["makespan_s"] for r in untraced]))
    # a layer the workload does not run reports 0
    out["metrics"] = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        out = run(args, work)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(out))


if __name__ == "__main__":
    main()
