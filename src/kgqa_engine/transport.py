"""One POST-and-retry rule for the SPARQL store, the chat backend and the HTTP embedder."""

from __future__ import annotations

import logging
import os
import time
from typing import Any, Callable

import requests

BACKOFF_S = 0.5  # first retry delay; each further retry waits twice as long


def post(
    url: str,
    parse: Callable[[requests.Response], Any],
    error: type[Exception],
    log: logging.Logger,
    *,
    timeout: float,
    retries: int,
    session: requests.Session | None = None,
    token_env: str | None = None,
    **request,
) -> Any:
    """POST ``request`` (``data``, ``json``, ``headers``) and return ``parse(response)``.

    Given ``token_env``, that environment variable is read once per call
    and, when set and non-empty, sent as an ``Authorization: Bearer`` header.

    Transport errors, HTTP 5xx and 429, and a ``parse`` that raises
    ``error`` are retried ``retries`` times, sleeping ``BACKOFF_S * 2**attempt``
    and logging each retry at INFO on ``log``; then ``error`` is raised.
    Any other 4xx raises ``error`` at once, and any other exception from
    ``parse`` propagates.
    """
    send = requests.post if session is None else session.post
    token = os.environ.get(token_env, "") if token_env else ""
    if token:
        request["headers"] = {**request.get("headers", {}), "Authorization": f"Bearer {token}"}
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        try:
            resp = send(url, timeout=timeout, **request)
        except requests.RequestException as exc:
            last_error = exc
        else:
            status = resp.status_code
            if status < 400:
                try:
                    return parse(resp)
                except error as exc:
                    last_error = exc
            elif status < 500 and status != 429:
                raise error(f"endpoint rejected the request with HTTP {status}")
            else:
                last_error = error(f"HTTP {status}")
        if attempt < retries:
            delay = BACKOFF_S * 2**attempt
            log.info("attempt %d of %d failed (%s); retrying in %.3g s",
                     attempt + 1, retries + 1, last_error, delay)
            time.sleep(delay)
    raise error(f"endpoint unreachable after {retries + 1} attempts: {last_error}")
