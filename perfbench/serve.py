"""``serve``: ``repro serve --workers 2``, the sharded fleet, over HTTP.

Store: three boosted models (``UADBooster`` over IForest, HBOS and KNN,
T=3) and a tail of twelve detector artifacts, fitted with seed 0 on 400
rows of one draw of the registry's ``Pima`` stand-in (8 features).  The
15 models exceed the fleet's aggregate LRU capacity (2 workers x the
default ``--cache-size 4``).  The store is the same in every run.

Load: one client process holds 2 keep-alive HTTP connections in a closed
loop, each request scoring 16 rows.  ``--seed`` draws a 120-request
schedule, repeated as whole passes: every tenth request goes to a tail
detector (each tail model once per pass), the rest to the hot boosted
models, 36 each, whose requests in a pass partition the 576 held-out
rows of the draw.  The hot share stays on the warm path while the tail
goes through artifact loads.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import common, oracles

DATASET = "Pima"
FEATURES = 8
FIT_ROWS = 400
STORE_SEED = 0
#: Booster iterations of the served models: serving does not depend on
#: T, and T=3 keeps the set-up (booster training) short.
HOT_ITERATIONS = 3
HOT = ("IForest", "HBOS", "KNN")
TAIL = ("LOF", "PCA", "OCSVM", "CBLOF", "COF", "SOD", "ECOD", "GMM",
        "LODA", "COPOD", "DeepSVDD", "INNE")
WORKERS = 2
CONNECTIONS = 2
ROWS_PER_REQUEST = 16
TAIL_EVERY = 10
PASS = TAIL_EVERY * len(TAIL)                  # 120 requests
HOT_PER_PASS = (PASS - len(TAIL)) // len(HOT)  # 36 per hot model
HELD_OUT_ROWS = HOT_PER_PASS * ROWS_PER_REQUEST  # 576
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def _build_store(root):
    """Fit and save every model; returns the held-out rows and labels."""
    from repro.core.booster import UADBooster
    from repro.data import generators, registry
    from repro.data.preprocessing import StandardScaler
    from repro.detectors.registry import make_detector
    from repro.serving import artifacts
    from repro.utils.rng import stable_hash

    pool = generators.generate_standin(
        registry.get_spec(DATASET), n_samples=FIT_ROWS + HELD_OUT_ROWS,
        n_features=FEATURES, seed=stable_hash(DATASET))
    fit_rows = np.arange(FIT_ROWS)
    held_out = np.arange(FIT_ROWS, FIT_ROWS + HELD_OUT_ROWS)
    scaler = StandardScaler().fit(pool.X[fit_rows])
    X_fit = scaler.transform(pool.X[fit_rows])
    store = artifacts.ModelStore(root)
    for name in HOT:
        source = make_detector(name, random_state=STORE_SEED).fit(X_fit)
        booster = UADBooster(n_iterations=HOT_ITERATIONS,
                             random_state=STORE_SEED).fit(X_fit, source)
        store.save(booster, f"boost-{name}", data=X_fit)
    for name in TAIL:
        detector = make_detector(name, random_state=STORE_SEED)
        store.save(detector.fit(X_fit), f"tail-{name}", data=X_fit)
    return scaler.transform(pool.X[held_out]), pool.y[held_out]


def _schedule(seed: int) -> list:
    """The repeated pass: ``PASS`` (model id, row indices) requests."""
    rng = np.random.default_rng(seed)
    tail = iter(rng.permutation(TAIL))
    hot = iter(rng.permutation(np.repeat(HOT, HOT_PER_PASS)))
    chunks = {name: iter(rng.permutation(HELD_OUT_ROWS).reshape(
        HOT_PER_PASS, ROWS_PER_REQUEST)) for name in HOT}
    requests = []
    for i in range(PASS):
        if i % TAIL_EVERY == TAIL_EVERY - 1:
            requests.append((f"tail-{next(tail)}", rng.choice(
                HELD_OUT_ROWS, ROWS_PER_REQUEST, replace=False)))
        else:
            name = str(next(hot))
            requests.append((f"boost-{name}", next(chunks[name])))
    return requests


class Server:
    """One ``repro serve`` process and its fleet, started and stopped."""

    def __init__(self, store_root, log_path, trace_dir=None):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(common.SRC),
                                             str(common.ROOT)])
        serve_args = ["serve", str(store_root), "--port", "0",
                      "--workers", str(WORKERS)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(common.HERE / "traced_server.py"),
                   str(trace_dir), *serve_args]
        self.log_path = log_path
        with open(log_path, "w") as log:  # the child keeps its own copy
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=common.ROOT, start_new_session=True)
        self.worker_pids: list = []
        try:
            self.address = self._wait_ready()
        except BaseException:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            raise

    def _wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        pattern = re.compile(r"at http://([0-9.]+):(\d+) ")
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                match = pattern.search(fh.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"server did not become ready; see "
                           f"{self.log_path}")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return sum(common.pid_peak_rss_mb(pid)
                   for pid in [self.proc.pid, *self.worker_pids])

    def stop(self, checks: common.Checks) -> None:
        """SIGINT (a clean fleet shutdown), then require that the server
        and every worker have exited; kill whatever survived."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                checks.require(False, "server ignored SIGINT")
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 5.0
        while any(common.pid_alive(p) for p in self.worker_pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in self.worker_pids:
            if checks.require(not common.pid_alive(pid),
                              f"fleet worker {pid} outlived the server"):
                continue
            os.kill(pid, signal.SIGKILL)


def _drive(address, bodies, seconds: float) -> dict:
    """Closed loop over ``CONNECTIONS`` keep-alive connections.

    Each connection first sends one warm-up request; then both pull the
    schedule in order until ``seconds`` have passed and the current pass
    is complete.  Returns per-request records and the window length.
    """
    lock = threading.Lock()
    state = {"next": 0, "deadline": None}
    warmed = threading.Barrier(CONNECTIONS + 1)
    go = threading.Event()
    records = []
    warm_up = []

    def take():
        with lock:
            i = state["next"]
            if i % PASS == 0 and time.perf_counter() >= state["deadline"]:
                return None
            state["next"] = i + 1
            return i

    def post(conn, body):
        start = time.perf_counter()
        try:
            conn.request("POST", "/score", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            data, status = repr(exc).encode(), 0
        return time.perf_counter() - start, status, data

    def client(k):
        conn = http.client.HTTPConnection(*address, timeout=60)
        warm_up.append(post(conn, bodies[k % PASS][1]))
        warmed.wait()
        go.wait()
        while True:
            i = take()
            if i is None:
                break
            took, status, data = post(conn, bodies[i % PASS][1])
            records.append((i, took, status, data, time.perf_counter()))
        conn.close()

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(CONNECTIONS)]
    for t in threads:
        t.start()
    warmed.wait()
    start = time.perf_counter()
    state["deadline"] = start + seconds
    go.set()
    for t in threads:
        t.join()
    end = max(r[4] for r in records)
    return {"records": sorted(records), "window_s": end - start,
            "warm_up": warm_up}


def _window(server, bodies, requests, expected, y_rows, seconds,
            checks: common.Checks) -> dict:
    """Drive one server, check every answer and the fleet's counters."""
    load = _drive(server.address, bodies, seconds)
    records = load["records"]
    sent = len(records) + len(load["warm_up"])
    stats = {}
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:  # heartbeats lag by up to 0.25 s
        stats = server.get("/stats")
        answered = sum(w.get("requests", 0)
                       for w in stats.get("workers", {}).values())
        if answered == sent:
            break
        time.sleep(0.1)
    checks.require(answered == sent,
                   f"client completed {sent} requests, workers report "
                   f"{answered}")
    server.worker_pids = [w["pid"] for w in stats["workers"].values()
                          if w.get("pid")]
    checks.require(len(server.worker_pids) == WORKERS,
                   f"/stats lists {len(server.worker_pids)} worker pids")

    ok_latency, failed = [], 0
    served = {}
    for i, took, status, data, _ in records:
        model, rows = requests[i % PASS]
        if status != 200:
            failed += 1
            continue
        ok_latency.append(took)
        reply = json.loads(data)
        scores = reply.get("scores")
        where = f"request {i} ({model})"
        checks.require(reply.get("n") == len(rows) and scores is not None
                       and len(scores) == len(rows),
                       f"{where}: n != rows sent")
        checks.require(oracles.same_scores(scores, expected[i % PASS]),
                       f"{where}: HTTP scores != in-process scores")
        if model.startswith("boost-"):
            checks.require(min(scores) >= 0.0 and max(scores) <= 1.0,
                           f"{where}: boosted score outside [0, 1]")
            if i < PASS:
                served.setdefault(model, []).append((scores, y_rows[rows]))
    for took, status, _ in load["warm_up"]:
        checks.require(status == 200, "warm-up request failed")

    aucs, aps = [], []
    for pairs in served.values():
        scores = np.concatenate([s for s, _ in pairs])
        labels = np.concatenate([y for _, y in pairs])
        aucs.append(oracles.rank_auc(labels, scores))
        aps.append(oracles.rank_ap(labels, scores))
    attempted = len(records)
    return {"attempted": attempted, "failed": failed,
            "latency": ok_latency, "window_s": load["window_s"],
            "round_s": load["window_s"] * PASS / attempted,
            "stats": stats, "peak_rss_mb": server.peak_rss_mb(),
            "auc": float(np.mean(aucs)), "ap": float(np.mean(aps))}


def _expected(store_root, requests, X_rows) -> list:
    """Scores computed in this process: the artifact loaded and scored
    directly, with no HTTP, fleet or batching in between."""
    from repro.serving import artifacts

    store = artifacts.ModelStore(store_root)
    models = {}
    out = []
    for model, rows in requests:
        if model not in models:
            models[model] = artifacts.load_model(store.path_for(model))
        out.append(models[model].score_samples(X_rows[rows]))
    return out


def _read_spans(trace_dir) -> list:
    """Spans the traced server and its workers wrote, if any."""
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path) as fh:
            spans += [json.loads(line) for line in fh]
    return spans


def run(args, clock, trace):
    """Run the workload; returns the report dict run.py prints."""
    checks = common.Checks()
    common.OUT.mkdir(parents=True, exist_ok=True)
    store_root = common.OUT / f"serve-store-{os.getpid()}"
    trace_dir = common.OUT / f"serve-trace-{os.getpid()}"
    shutil.rmtree(store_root, ignore_errors=True)
    store_root.mkdir(parents=True)
    servers = []
    try:
        X_rows, y_rows = trace.setup(_build_store, store_root)
        requests = _schedule(args.seed)
        bodies = [(model, json.dumps({"model_id": model,
                                      "X": X_rows[rows].tolist()}))
                  for model, rows in requests]
        if trace.enabled:
            trace_dir.mkdir(parents=True, exist_ok=True)
            windows = []
            for traced in (False, True):
                server = Server(store_root, common.OUT / "serve-server.log",
                                trace_dir if traced else None)
                servers.append(server)
                if not windows:
                    expected = _expected(store_root, requests, X_rows)
                windows.append(_window(server, bodies, requests, expected,
                                       y_rows, args.seconds / 2, checks))
                server.stop(checks)
            window = windows[1]
        else:
            server = Server(store_root, common.OUT / "serve-server.log")
            servers.append(server)
            clock.stop()
            expected = _expected(store_root, requests, X_rows)
            window = _window(server, bodies, requests, expected, y_rows,
                             args.seconds, checks)
            server.stop(checks)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                os.killpg(server.proc.pid, signal.SIGKILL)
                server.proc.wait()
        shutil.rmtree(store_root, ignore_errors=True)
        spans = _read_spans(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)

    latency = window["latency"]
    report = {
        "checks": checks,
        "attempted": window["attempted"], "failed": window["failed"],
        "summary": {"requests": len(latency),
                    "req_per_s": len(latency) / window["window_s"],
                    "p50_ms": 1e3 * common.median(latency),
                    "p99_ms": 1e3 * common.p99_or_median(latency),
                    "beyond_p99": sum(
                        1 for x in latency
                        if x > common.nearest_rank(latency, 0.99))},
    }
    if trace.enabled:
        report["attempted"] = sum(w["attempted"] for w in windows)
        report["failed"] = sum(w["failed"] for w in windows)
        trace.foreign += spans
        from repro import kernels

        cache = dict(kernels.cache_stats())
        for worker in window["stats"].get("workers", {}).values():
            for key, value in worker.get("service", {}).get(
                    "kernel_cache", {}).items():
                cache[key] = cache.get(key, 0) + value
        report["per_layer"] = trace.per_layer(
            cache=cache, fleet=window["stats"],
            client_p50_ms=report["summary"]["p50_ms"],
            overhead=(windows[0]["round_s"], windows[1]["round_s"]))
        return report
    report["metrics"] = {
        "setup_s": clock.seconds,
        "round_s": window["round_s"],
        "p50_ms": report["summary"]["p50_ms"],
        "p99_ms": report["summary"]["p99_ms"],
        "peak_rss_mb": window["peak_rss_mb"],
        "auc": window["auc"],
        "ap": window["ap"],
    }
    return report
