"""The figure server under test, in its own process.

Started by ``run.py`` as ``python3 perfbench/server.py '<config JSON>'``.
Set-up copies the warmed store and artifact directory, then builds the
same service ``repro serve`` builds (a metrics registry, the store bound
to it, a :class:`FigureService` behind ``make_server``) on a free port
and prints ``READY {"port": ...}``.  It serves until its standard input
closes, then prints its peak RSS, store and trace-cache counters, and
writes its spans when traced.
"""

import json
import os
import resource
import shutil
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans  # noqa: E402


def main():
    config = json.loads(sys.argv[1])
    scale = config["scale"]
    from repro.cpu import native
    from repro.exec.cache import GLOBAL_CACHE
    from repro.exec.store import ArtifactStore, set_active_store
    from repro.obs import MetricsRegistry
    from repro.serve import FigureService, make_server

    available = native.native_available()
    common.clone_store(config["master_store"], config["store"])
    shutil.rmtree(config["out_dir"], ignore_errors=True)
    shutil.copytree(config["master_out"], config["out_dir"])
    metrics = MetricsRegistry()
    store = ArtifactStore(config["store"], metrics=metrics)
    set_active_store(store)
    recorder = None
    if config.get("trace"):
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    service = FigureService(config["out_dir"], store=store,
                            num_instructions=scale["num_instructions"],
                            warmup=scale["warmup"], jobs=1,
                            metrics=metrics)
    httpd = make_server(service, "127.0.0.1", 0)
    if recorder is not None:
        spans.install_http(recorder, httpd.RequestHandlerClass)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    print("READY " + json.dumps({"port": httpd.server_address[1],
                                 "native": available}), flush=True)
    try:
        sys.stdin.read()
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()
        service.close()
    if recorder is not None and config.get("spans_out"):
        recorder.write(config["spans_out"])
    print(json.dumps({
        "native": available,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "store_counters": dict(store.counters),
        "cache_stats": GLOBAL_CACHE.stats(),
        "regenerations": service.regenerations,
    }), flush=True)


if __name__ == "__main__":
    main()
