"""Closed-loop HTTP client for the ``serve-sweep`` workload.

Each of ``connections`` keep-alive connections sends its next request
only after the previous response has been read, so the workload
measures request latency without queueing.  Requests come from one
sequence drawn from the seed: about 80% ``GET /sweep`` over a random
subset of benchmarks x policies (grid sizes drawn uniformly, cells
repeat across requests) and about 20% ``GET /figure/<name>`` in json or
txt form.  Responses are kept in memory and checked after the timed
loop, so checking costs no latency.

The mix is an assumption, not measured traffic.  The repository's only
caller outside the tests (the CI serve smoke job and the serving guide)
asks for a single figure, and only the tests call ``/sweep``, so
neither the sweep share, nor the grid sizes, nor the two connections
can be derived from real callers.  The share is weighted towards
sweeps so that the store's result reads and job hashing, the layers the
warm-path optimisations target, carry most of the request time."""

import hashlib
import http.client
import itertools
import json
import random
import threading
from time import perf_counter
from urllib.parse import quote

import common

#: Assumed share of sweep requests; see the module docstring.
SWEEP_SHARE = 0.8


def requests(seed, scale):
    """The endless, seed-determined request sequence.

    Policy names contain ``+`` (``commit+obfuscation``), which a query
    string decodes to a space, so names are percent-encoded.
    """
    rng = random.Random(seed)
    benchmarks = scale["grid_benchmarks"]
    policies = scale["grid_policies"]
    while True:
        if rng.random() < SWEEP_SHARE:
            bench = rng.sample(benchmarks, rng.randint(1, len(benchmarks)))
            pols = rng.sample(policies, rng.randint(1, len(policies)))
            path = "/sweep?benchmark=%s&policy=%s" % (
                quote(",".join(bench), safe=","),
                quote(",".join(pols), safe=","))
            yield {"kind": "sweep", "path": path, "benchmarks": bench,
                   "policies": pols}
        else:
            name = rng.choice(scale["figures"])
            fmt = rng.choice(("json", "txt"))
            path = "/figure/%s" % name
            if fmt == "txt":
                path += "?format=txt"
            yield {"kind": "figure", "path": path,
                   "artifact": "%s.%s" % (name, fmt)}


def first_answers(port, scale):
    """Ask for one sweep cell and one figure, as set-up's last step:
    the server has set up once it answers both."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for path in ("/sweep?benchmark=%s&policy=%s"
                     % (quote(scale["grid_benchmarks"][0]),
                        quote(scale["grid_policies"][0])),
                     "/figure/%s" % scale["figures"][0]):
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise common.BenchError("set-up request %s answered %d"
                                        % (path, response.status))
    finally:
        conn.close()


def closed_loop(port, sequence, seconds=None, count=None, connections=2):
    """Drive the server until ``seconds`` pass or ``count`` requests
    were sent; returns ``(records, wall_seconds)``.

    Each record is ``(request, status, body, latency_s)``; a transport
    error is a record with status None.
    """
    lock = threading.Lock()
    source = iter(sequence if count is None
                  else itertools.islice(sequence, count))
    records = []
    started = perf_counter()
    deadline = started + seconds if seconds is not None else None

    def next_request():
        with lock:
            if deadline is not None and perf_counter() >= deadline:
                return None
            return next(source, None)

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                request = next_request()
                if request is None:
                    return
                sent = perf_counter()
                try:
                    conn.request("GET", request["path"])
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    body, status = b"", None
                records.append((request, status, body,
                                perf_counter() - sent))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, perf_counter() - started


def check(records, reference):
    """Gate every response; returns ``(failed, problems)``.

    Any status but 200 fails, 202 included: set-up warmed every cell
    and figure, so a 202 means the workload leaked a miss.  A figure
    body must be byte-identical to the recorded artifact, and a grid
    must hold exactly the requested cells with the reference cycles.
    """
    failed = 0
    problems = []
    for request, status, body, _ in records:
        problem = None
        if status != 200:
            problem = "status %s" % status
        elif request["kind"] == "figure":
            digest = hashlib.sha256(body).hexdigest()
            if digest != reference["artifacts"].get(request["artifact"]):
                problem = "body differs from %s" % request["artifact"]
        else:
            problem = _check_grid(request, body, reference["cells"])
        if problem is not None:
            failed += 1
            if len(problems) < 10:
                problems.append("%s: %s" % (request["path"], problem))
    return failed, problems


def _check_grid(request, body, cells):
    try:
        grid = json.loads(body)["cells"]
    except (ValueError, KeyError, TypeError):
        return "unparseable grid"
    wanted = {common.cell_key(b, p) for b in request["benchmarks"]
              for p in request["policies"]}
    got = {}
    for cell in grid:
        got[common.cell_key(cell.get("benchmark"), cell.get("policy"))] = (
            cell.get("cycles"))
    if set(got) != wanted:
        return "grid holds other cells than requested"
    for key, cycles in got.items():
        if cycles != cells.get(key):
            return "cycles differ at %s" % key
    return None
