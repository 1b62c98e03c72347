"""One POST-and-retry rule for the SPARQL store, the chat backend and the HTTP embedder.

Requests go through a urllib3 pool that holds what ``requests`` computes
from the environment for the endpoint: proxy (``HTTP_PROXY``, ``NO_PROXY``
and the like), CA bundle (``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``,
else the ``certifi`` bundle ``requests`` ships with) and ``~/.netrc``
credentials.  ``requests`` is used for that resolution only; no request
goes through it.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Any, Callable

import requests.utils
import urllib3
from urllib3.util import Retry, make_headers

BACKOFF_S = 0.5  # first retry delay; each further retry waits twice as long, at most the timeout
MAX_REDIRECTS = 30  # per attempt, as many as requests follows
JSON_HEADERS = {"Content-Type": "application/json"}

# urllib3 itself retries nothing (``post`` owns that rule) but follows
# redirects: 301, 302, 307 and 308 with the same POST, 303 as a GET.
_REDIRECTS_ONLY = Retry(total=None, connect=0, read=0, status=0, other=0, redirect=MAX_REDIRECTS)


def open_pool(url: str) -> urllib3.PoolManager:
    """A pool for ``url`` with the environment's settings for it fixed on it.

    A ``ProxyManager`` when a proxy applies to ``url`` after ``NO_PROXY``,
    else a ``PoolManager``.  Its ``headers`` are the ones ``requests``
    sends by default, plus ``Authorization: Basic`` when ``~/.netrc`` (or
    ``$NETRC``) has credentials for the host.  No client certificate is set,
    as ``requests`` takes none from the environment.
    """
    headers = dict(requests.utils.default_headers())
    netrc = requests.utils.get_netrc_auth(url)
    if netrc:
        headers["Authorization"] = make_headers(basic_auth=":".join(netrc))["authorization"]
    bundle = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
              or requests.utils.DEFAULT_CA_BUNDLE_PATH)
    tls = {"ca_cert_dir" if os.path.isdir(bundle) else "ca_certs": bundle}
    # as many connections per host as a requests.Session keeps
    pools = {"num_pools": 10, "maxsize": 10, "headers": headers, **tls}
    proxy = requests.utils.select_proxy(url, requests.utils.get_environ_proxies(url))
    if not proxy:
        return urllib3.PoolManager(**pools)
    proxy = requests.utils.prepend_scheme_if_needed(proxy, "http")
    user, password = requests.utils.get_auth_from_url(proxy)
    auth = make_headers(proxy_basic_auth=f"{user}:{password}") if user else None
    return urllib3.ProxyManager(proxy, proxy_headers=auth, **pools)


_OPENING = threading.Lock()  # held while a client opens or closes its pool


class Client:
    """The pool an HTTP adapter sends through, mixed into each adapter.

    The pool is opened by ``open_pool`` on the first request and reused by
    every later one, from any thread: the environment is read once, so
    later changes to it are not seen.  Until then ``_pool`` is the class's
    ``None``, so building an adapter allocates nothing for its pool.
    """

    _pool: urllib3.PoolManager | None = None

    def _pool_for(self, url: str) -> urllib3.PoolManager:
        if self._pool is None:
            with _OPENING:
                if self._pool is None:
                    self._pool = open_pool(url)
        return self._pool

    def close(self) -> None:
        """Close the pooled connections; a later request opens a new pool."""
        with _OPENING:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.clear()


def post(
    url: str,
    parse: Callable[[urllib3.BaseHTTPResponse], Any],
    error: type[Exception],
    log: logging.Logger,
    *,
    body: bytes,
    headers: dict[str, str],
    timeout: float,
    retries: int,
    session: Client | None = None,
    token_env: str | None = None,
) -> Any:
    """POST ``body`` with ``headers`` to ``url`` and return ``parse(response)``.

    The request goes through ``session``'s pool; without one, through a
    pool opened for this call and closed before it returns.  Given
    ``token_env``, that environment variable is read once per call and,
    when set and non-empty, sent as an ``Authorization: Bearer`` header.

    Transport errors, HTTP 5xx and 429, and a ``parse`` that raises
    ``error`` are retried ``retries`` times, sleeping ``BACKOFF_S``, then
    twice the last wait, capped at ``timeout``, and logging each retry at
    INFO on ``log``; then ``error`` is raised.
    Any other 4xx, and a ``url`` that is not ``http://`` or ``https://``,
    raise ``error`` at once, and any other exception from ``parse``
    propagates.
    """
    if not url.lower().startswith(("http://", "https://")):
        raise error(f"endpoint URL needs an http:// or https:// scheme: {url!r}")
    client = Client() if session is None else session
    token = os.environ.get(token_env, "") if token_env else ""
    if token:
        headers = {**headers, "Authorization": f"Bearer {token}"}
    last_error: Exception | None = None
    delay = min(BACKOFF_S, timeout)
    try:
        for attempt in range(retries + 1):
            try:
                pool = client._pool_for(url)
                resp = pool.urlopen("POST", url, body=body, headers={**pool.headers, **headers},
                                    timeout=timeout, retries=_REDIRECTS_ONLY)
            except urllib3.exceptions.HTTPError as exc:
                last_error = exc
            else:
                status = resp.status
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
                log.info("attempt %d of %d failed (%s); retrying in %.3g s",
                         attempt + 1, retries + 1, last_error, delay)
                time.sleep(delay)
                delay = min(2 * delay, timeout)  # capped, so no attempt count overflows
    finally:
        if session is None:
            client.close()
    raise error(f"endpoint unreachable after {retries + 1} attempts: {last_error}")
