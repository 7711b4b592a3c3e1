"""HTTP transport shared by the chat generator and the embedding provider.

One JSON POST with the optional bearer key, bounded retries with exponential
backoff on throttling and server errors, and one mapping of failures onto
:class:`RemoteError` and :class:`RequestTimeout`.  Callers build the payload
and read the reply shape; nothing here knows either.

The proxies, CA bundle and netrc login that ``requests`` reads from the
environment are read once per endpoint per process and then passed to each
request explicitly, so a request does not scan ``os.environ`` again.  Each
request still gets a session, and so a connection, of its own.  Calls may
come from several threads at once: a run posts an instance's
negative-rationale requests together.

This is the only module that imports ``requests``.  The configs of the
remote providers import it, so an offline run never loads the HTTP stack.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping
from urllib.parse import urlsplit

import requests

from .errors import ConfigError, RemoteError, RequestTimeout

API_KEY_ENV = "SCENEALIGN_API_KEY"

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# a URL that requests cannot send at all; retrying it only waits
_BAD_URL_ERRORS = (requests.exceptions.InvalidURL, requests.exceptions.MissingSchema, requests.exceptions.InvalidSchema)

# seconds to wait for a reply, per provider
CHAT_TIMEOUT_S = 60.0
EMBED_TIMEOUT_S = 30.0
# attempts per request; the pause before attempt n + 1 is BACKOFF_BASE_S * 2 ** (n - 1)
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5


def check_endpoint(endpoint: str | None, what: str) -> None:
    """Raise :class:`ConfigError` unless ``endpoint`` is an http or https URL with a host."""
    if not endpoint:
        raise ConfigError(f"{what} requires an endpoint")
    try:
        parts = urlsplit(endpoint)
        host = parts.hostname
    except ValueError as exc:  # a malformed port or IPv6 literal
        raise ConfigError(f"{what} endpoint {endpoint!r} is not a URL: {exc}") from exc
    if parts.scheme not in ("http", "https") or not host:
        raise ConfigError(f"{what} endpoint {endpoint!r} must be an http:// or https:// URL with a host")


@lru_cache(maxsize=None)
def _environment_settings(endpoint: str) -> tuple[Mapping[str, str], bool | str, tuple[str, str] | None]:
    """The proxies, CA bundle and netrc login ``requests`` would read from the environment for ``endpoint``.

    The proxies are read-only, as every caller shares them.
    """
    with requests.Session() as session:
        settings = session.merge_environment_settings(endpoint, {}, None, None, None)
    proxies = MappingProxyType(settings["proxies"])
    return proxies, settings["verify"], requests.utils.get_netrc_auth(endpoint)


def post_json(payload: dict, endpoint: str, timeout: float) -> object:
    """POST ``payload`` to ``endpoint`` and return the decoded JSON reply.

    Connection failures, timeouts and retryable statuses are retried, up to
    ``MAX_ATTEMPTS`` attempts in all; any other status, a 200 reply that is
    not JSON, or a URL that cannot be requested at all raises
    :class:`RemoteError` at once.  Attempts that all timed out raise
    :class:`RequestTimeout`.
    """
    headers = {}
    key = os.environ.get(API_KEY_ENV)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        proxies, verify, auth = _environment_settings(endpoint)
    except ValueError as exc:  # a URL the proxy lookup cannot parse
        raise RemoteError(None, f"invalid URL {endpoint!r}: {exc}") from exc
    last_status: int | None = None
    last_detail = "no attempts made"
    timed_out = False
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
        try:
            with requests.Session() as session:
                session.trust_env = False  # the environment's settings are the ones passed here
                resp = session.post(
                    endpoint, json=payload, headers=headers, timeout=timeout, proxies=proxies, verify=verify, auth=auth
                )
        except requests.Timeout:
            timed_out = True
            last_detail = "request timed out"
            continue
        except _BAD_URL_ERRORS as exc:
            raise RemoteError(None, str(exc)) from exc
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
