"""The serve_sweep client: an in-process daemon driven over HTTP.

One client keeps one request outstanding (a closed loop).  A request
succeeds when its job reaches state ``done`` with a result; an HTTP
error, a refused connection or a quarantined job is a failure.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Optional

#: Host seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0


@dataclass
class Answer:
    """One request's outcome as the client saw it."""

    cycles: Optional[float] = None
    error: Optional[str] = None


def _post(base: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"{base}/v1/jobs", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
        return json.loads(response.read())


def _follow(base: str, job_id: str) -> dict:
    """Read the job's progress stream up to its terminal line."""
    url = f"{base}/v1/jobs/{job_id}/progress"
    last: dict = {}
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as stream:
        for line in stream:
            if line.strip():
                last = json.loads(line)
    return last


def ask(base: str, payload: dict, post: Callable = _post,
        follow: Callable = _follow) -> Answer:
    """Send one payload and wait for its result."""
    try:
        # Follow even a job answered inline: only the stream carries results.
        job = follow(base, post(base, payload)["job_id"])
    except (urllib.error.URLError, OSError, ValueError, KeyError) as exc:
        return Answer(error=f"{type(exc).__name__}: {exc}")
    result = job.get("result") or {}
    if job.get("state") != "done" or "duration_cycles" not in result:
        return Answer(error=f"job ended {job.get('state')!r}: {job.get('error')}")
    return Answer(cycles=float(result["duration_cycles"]))


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=REQUEST_TIMEOUT_S) as response:
        return json.loads(response.read())


class InProcessDaemon:
    """A ``ServiceDaemon`` on a free port with its state in ``work_dir``."""

    def __init__(self, work_dir: str):
        from repro.parallel import SupervisionPolicy
        from repro.service import ServiceConfig, ServiceDaemon

        self.state_dir = tempfile.mkdtemp(prefix="serve-", dir=work_dir)
        try:
            self.daemon = ServiceDaemon(ServiceConfig(
                host="127.0.0.1", port=0, state_dir=self.state_dir, queue_limit=16,
                policy=SupervisionPolicy(point_timeout_s=REQUEST_TIMEOUT_S)))
            self.daemon.start()
        except BaseException:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            raise
        host, port = self.daemon.address
        self.base = f"http://{host}:{port}"

    def close(self) -> None:
        """Drain the daemon and wait for its worker processes to end."""
        try:
            self.daemon.stop()
        finally:
            for child in multiprocessing.active_children():
                child.join(timeout=30)
                if child.is_alive():
                    child.kill()
                    child.join(timeout=30)
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def __enter__(self) -> "InProcessDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
