"""HTTP transport shared by the chat generator and the embedding provider.

One JSON POST with the optional bearer key, bounded retries with exponential
backoff on throttling and server errors, and one mapping of failures onto
:class:`RemoteError` and :class:`RequestTimeout`.  Callers build the payload
and read the reply shape; nothing here knows either.

This is the only module that imports ``requests``.  The configs of the
remote providers import it, so an offline run never loads the HTTP stack.
"""

from __future__ import annotations

import os
import time

import requests

from .errors import RemoteError, RequestTimeout

API_KEY_ENV = "SCENEALIGN_API_KEY"

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

# seconds to wait for a reply, per provider
CHAT_TIMEOUT_S = 60.0
EMBED_TIMEOUT_S = 30.0
# attempts per request; the pause before attempt n + 1 is BACKOFF_BASE_S * 2 ** (n - 1)
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5


def post_json(payload: dict, endpoint: str, timeout: float) -> object:
    """POST ``payload`` to ``endpoint`` and return the decoded JSON reply.

    Connection failures, timeouts and retryable statuses are retried, up to
    ``MAX_ATTEMPTS`` attempts in all; any other status, or a 200 reply that
    is not JSON, raises :class:`RemoteError` at once.  Attempts that all
    timed out raise :class:`RequestTimeout`.
    """
    headers = {}
    key = os.environ.get(API_KEY_ENV)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    last_status: int | None = None
    last_detail = "no attempts made"
    timed_out = False
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
        try:
            resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.Timeout:
            timed_out = True
            last_detail = "request timed out"
            continue
        except requests.RequestException as exc:
            last_detail = str(exc)
            continue
        if resp.status_code == 200:
            try:
                return resp.json()
            except ValueError as exc:
                raise RemoteError(200, f"reply is not JSON: {resp.text[:200]!r}") from exc
        last_status = resp.status_code
        last_detail = resp.text[:200]
        if resp.status_code not in _RETRYABLE_STATUSES:
            raise RemoteError(last_status, last_detail)
    if timed_out and last_status is None:
        raise RequestTimeout(f"no response after {MAX_ATTEMPTS} attempts")
    raise RemoteError(last_status, last_detail)
