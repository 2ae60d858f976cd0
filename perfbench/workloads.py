"""The four workloads: spec documents, operations and correctness checks.

Every workload starts from a ``repro.spec/v1`` document (as the CLI's
``--dump-spec`` writes it) and ends with bytes: in memory, in a
verified ``SurfaceStore``, or on the wire.  Inputs come only from the
workload seed.  Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import io
import json
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import split_result
from repro.core.spec import GenerationSpec
from repro.figures import REFERENCE_DOMAIN
from repro.io.store import SurfaceStore
from repro.jobs import runner
from repro.parallel import executor
from repro.verify import REPORT_NAME, load_report

#: Tiles compared against a solo ``generate_window`` after each operation.
SAMPLED_TILES = 2


def _gaussian(h: float, cl: float, n: int, truncation: Any) -> Dict[str, Any]:
    return {
        "kind": "convolution",
        "spectrum": {"kind": "gaussian", "h": h, "clx": cl, "cly": cl},
        "grid": {"nx": n, "ny": n, "lx": float(n), "ly": float(n)},
        "truncation": truncation,
        "engine": "auto",
        "dtype": "float64",
    }


def _plan(n: int, tile: int) -> Dict[str, int]:
    return {"total_nx": n, "total_ny": n, "tile_nx": tile, "tile_ny": tile,
            "origin_x": 0, "origin_y": 0}


def _doc(generator: Dict[str, Any], seed: int,
         plan: Optional[Dict[str, int]]) -> str:
    return json.dumps({
        "schema": "repro.spec/v1", "generator": generator, "seed": seed,
        "plan": plan, "noise_block": None, "store_path": None,
        "access": "shared", "obs": False, "faults": [],
    })


@dataclasses.dataclass(frozen=True)
class _ReadySpec(GenerationSpec):
    """A spec whose generator was already built during set-up.

    ``run_spec`` rebuilds the generator from its spec; handing it this
    spec lets ``run_s`` start from a ready generator, as on the other
    workloads, so the kernel build is counted once, in ``setup_s``.
    """

    ready: Any = dataclasses.field(default=None, compare=False, repr=False)

    def build_generator(self) -> Any:
        return self.ready


@dataclasses.dataclass
class Ready:
    spec: GenerationSpec
    generator: Any


def sample_tiles(plan: Any, rng: np.random.Generator) -> List[Any]:
    tiles = plan.tiles()
    picks = rng.choice(len(tiles), size=min(SAMPLED_TILES, len(tiles)),
                       replace=False)
    return [tiles[int(i)] for i in picks]


def solo_tile(ready: Ready, spec: GenerationSpec, tile: Any) -> np.ndarray:
    heights, _ = split_result(ready.generator.generate_window(
        spec.noise(), tile.x0, tile.y0, tile.nx, tile.ny))
    return np.asarray(heights)


class Generation:
    """A workload that turns one spec into one surface per operation."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 4

    def document(self, seed: int) -> str:
        raise NotImplementedError

    def setup(self, document: str) -> Ready:
        spec = GenerationSpec.from_json(document)
        return Ready(spec, spec.build_generator())

    def pixels(self, ready: Ready) -> int:
        plan = ready.spec.tile_plan()
        return plan.total_nx * plan.total_ny

    def op(self, ready: Ready, seed: int, scratch: Path) -> Any:
        spec = dataclasses.replace(ready.spec, seed=seed)
        return executor.generate_tiled(ready.generator, spec.noise(),
                                       spec.tile_plan())

    def check(self, ready: Ready, seed: int, result: Any, scratch: Path,
              rng: np.random.Generator) -> List[str]:
        spec = dataclasses.replace(ready.spec, seed=seed)
        heights = np.asarray(result.heights)
        errors = []
        for t in sample_tiles(spec.tile_plan(), rng):
            got = heights[t.x0:t.x0 + t.nx, t.y0:t.y0 + t.ny]
            if got.tobytes() != solo_tile(ready, spec, t).tobytes():
                errors.append(f"tile at ({t.x0}, {t.y0}) differs from a "
                              f"solo generate_window")
        return errors

    def cleanup(self, scratch: Path) -> None:
        pass


class TiledHomog(Generation):
    name = "tiled_homog"

    def document(self, seed: int) -> str:
        return _doc(_gaussian(1.0, 24.0, 4096, [64, 64]), seed,
                    _plan(4096, 512))


class InhomoPlates(Generation):
    name = "inhomo_plates"

    def document(self, seed: int) -> str:
        return _doc({"kind": "figure", "name": "fig1", "n": 2048,
                     "domain": REFERENCE_DOMAIN}, seed, _plan(2048, 512))

    def setup(self, document: str) -> Ready:
        ready = super().setup(document)
        # The generator resolves one kernel per region lazily, on its
        # first window; a one-sample window builds them all.
        ready.generator.generate_window(ready.spec.noise(), 0, 0, 1, 1)
        return ready


class StoreVerify(Generation):
    name = "store_verify"

    def document(self, seed: int) -> str:
        gen = _gaussian(1.0, 24.0, 4096, [64, 64])
        gen["spectrum"] = {"kind": "self_affine", "sigma": 1.0,
                           "hurst": 0.8, "qr": 0.4}
        return _doc(gen, seed, _plan(4096, 512))

    def op(self, ready: Ready, seed: int, scratch: Path) -> Any:
        spec = _ReadySpec(**vars(ready.spec), ready=ready.generator)
        spec = dataclasses.replace(spec, seed=seed,
                                   store_path=str(scratch / "store"))
        return runner.run_spec(spec, checkpoint=scratch / "ckpt",
                               verify=True)

    def check(self, ready: Ready, seed: int, result: Any, scratch: Path,
              rng: np.random.Generator) -> List[str]:
        errors = []
        report = load_report(scratch / "ckpt" / REPORT_NAME)
        if report.passed is not True:
            errors.append(f"verify report did not pass: "
                          f"{[m.name for m in report.failures]}")
        store = SurfaceStore.open(scratch / "store", mode="r")
        try:
            if store.fraction_done != 1.0:
                errors.append(f"store only {store.fraction_done:.3f} done")
            spec = dataclasses.replace(ready.spec, seed=seed)
            for t in sample_tiles(spec.tile_plan(), rng):
                got = store.read_window(t.x0, t.y0, t.nx, t.ny)
                if got.tobytes() != solo_tile(ready, spec, t).tobytes():
                    errors.append(f"stored tile at ({t.x0}, {t.y0}) "
                                  f"differs from a solo generate_window")
        finally:
            store.close()
        return errors

    def cleanup(self, scratch: Path) -> None:
        shutil.rmtree(scratch, ignore_errors=True)


GENERATION = {w.name: w for w in (TiledHomog(), InhomoPlates(), StoreVerify())}


# -- serve_small -------------------------------------------------------------

SERVE_N = 512
SERVE_HEIGHTS = (0.5, 1.0, 1.5, 2.0)
SERVE_SEED_POOL = 3
SERVE_CLIENTS = 2
#: Pause between status polls of one request: the pace of the
#: repository's own serve test client (``wait_complete`` in
#: ``tests/test_serve.py``).
POLL_INTERVAL_S = 0.010


def serve_document(h: float, seed: int) -> str:
    # The CLI-shaped spec: grid equal to the surface, default truncation.
    return _doc(_gaussian(h, 24.0, SERVE_N, 0.9999), seed, None)


class ServeHarness:
    """A fresh ``SurfaceService`` behind ``start_server`` on its own loop."""

    def __init__(self, data_dir: Path) -> None:
        import asyncio

        from repro.serve import ServeConfig, SurfaceService, start_server

        self.service = SurfaceService(ServeConfig(data_dir=data_dir))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve-loop")
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            start_server(self.service), self.loop).result(30)

    def close(self) -> None:
        import asyncio

        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()
        self.service.close()


@dataclasses.dataclass
class Reply:
    key: Tuple[float, int]
    start: float
    latency: float          # inf when the request failed
    polls: int
    digest: str = ""
    error: str = ""


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def serve_client(harness: ServeHarness, rng: np.random.Generator,
                 seeds: List[int], requests: int, tracer: Any,
                 out: List[Reply]) -> None:
    """One closed-loop client: submit, poll, fetch, ``requests`` times."""
    conn = http.client.HTTPConnection(harness.server.host,
                                      harness.server.port, timeout=60)

    def call(name: str, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if tracer is None:
            return _request(conn, method, path, body)
        with tracer.span(name):
            return _request(conn, method, path, body)

    try:
        for _ in range(requests):
            h = float(SERVE_HEIGHTS[rng.integers(len(SERVE_HEIGHTS))])
            seed = int(seeds[rng.integers(len(seeds))])
            reply = Reply((h, seed), time.perf_counter(), float("inf"), 0)
            try:
                status, body = call("serve.client.post", "POST", "/v1/jobs",
                                    serve_document(h, seed).encode())
                if status != 202:
                    raise RuntimeError(f"submit answered {status}")
                job = json.loads(body)["id"]
                while True:
                    status, body = call("serve.client.poll", "GET",
                                        f"/v1/jobs/{job}")
                    reply.polls += 1
                    state = json.loads(body)["state"]
                    if state in ("complete", "failed"):
                        break
                    time.sleep(POLL_INTERVAL_S)
                if state != "complete":
                    raise RuntimeError(f"job {job} {state}")
                status, body = call("serve.client.result", "GET",
                                    f"/v1/jobs/{job}/result")
                if status != 200:
                    raise RuntimeError(f"result answered {status}")
                reply.latency = time.perf_counter() - reply.start
                reply.digest = hashlib.sha256(body).hexdigest()
            except (OSError, http.client.HTTPException, RuntimeError,
                    ValueError, KeyError) as exc:
                reply.error = repr(exc)
                conn.close()
                conn = http.client.HTTPConnection(
                    harness.server.host, harness.server.port, timeout=60)
            out.append(reply)
    finally:
        conn.close()


def solo_digest(h: float, seed: int) -> str:
    """SHA-256 of the ``.npy`` bytes a solo generation of the spec gives."""
    spec = GenerationSpec.from_json(serve_document(h, seed))
    heights, _ = split_result(spec.build_generator().generate_window(
        spec.noise(), 0, 0, SERVE_N, SERVE_N))
    buf = io.BytesIO()
    np.save(buf, np.asarray(heights))
    return hashlib.sha256(buf.getvalue()).hexdigest()
