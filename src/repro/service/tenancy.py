"""Multi-tenant auth, quotas and rate limits for the service layer.

A *tenants file* (JSON, or TOML where the stdlib ``tomllib`` is
available) declares the tenants a daemon or coordinator serves:

.. code-block:: json

    {
      "format": "repro-tenants",
      "version": 1,
      "fleet_token": "fleet-secret",
      "tenants": {
        "acme": {
          "token": "acme-secret",
          "max_queued_jobs": 64,
          "max_running_jobs": 8,
          "max_jobs_per_submission": 32,
          "rate": {"burst": 10, "per_second": 2.0},
          "admin": false
        },
        "ops": {"token_sha256": "<hex digest>", "admin": true}
      }
    }

Tokens may be given in clear (``token``, hashed on load and never kept
in memory) or pre-hashed (``token_sha256``).  Authentication compares
sha256 digests with :func:`hmac.compare_digest`, so lookup time does
not leak which tenant (if any) a presented token belongs to.

``TenantRegistry`` is hot-reloadable: :meth:`TenantRegistry.reload`
re-reads the file (SIGHUP handler in the CLI), and
:meth:`TenantRegistry.maybe_reload` reloads only when the file's mtime
changed (called from the daemon's maintenance sweep).  Reloads keep
each tenant's token-bucket state when its rate config is unchanged, so
rotating a token does not refill anyone's bucket.

The optional top-level ``fleet_token`` authenticates *internal* fleet
peers: a coordinator presents it to its daemons (with an explicit
``tenant`` field naming the tenant it is acting for) and daemons
present it when self-registering via ``--announce``.  A fleet context
is implicitly admin and may read any tenant's submissions (the
coordinator's collector streams need that).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from .protocol import PROTOCOL_VERSION, error_reply

TENANTS_FORMAT = "repro-tenants"
TENANTS_VERSION = 1

#: Tenant names become path components and submission-id prefixes.
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.]{0,63}$")


class TenancyError(ValueError):
    """A tenants file failed to parse or validate."""


def hash_token(token: str) -> str:
    """Return the sha256 hex digest under which a token is stored."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at
    ``per_second`` tokens/s.  Thread-safe.  ``acquire`` never blocks —
    it either spends a token and returns ``0.0`` or returns the time
    until one becomes available (the 429 ``retry_after_s``)."""

    def __init__(self, burst: int, per_second: float) -> None:
        if burst < 1:
            raise TenancyError(f"rate burst must be >= 1, got {burst}")
        if per_second <= 0:
            raise TenancyError(
                f"rate per_second must be > 0, got {per_second}")
        self.burst = int(burst)
        self.per_second = float(per_second)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.per_second)

    def acquire(self, now: Optional[float] = None) -> float:
        """Spend one token if available.  Returns 0.0 on success, else
        the seconds until a token will be available."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.per_second

    def config(self) -> Tuple[int, float]:
        return (self.burst, self.per_second)


@dataclass(frozen=True)
class Tenant:
    """One tenant's declared identity, quotas and rate limit."""

    name: str
    token_sha256: str
    max_queued_jobs: Optional[int] = None
    max_running_jobs: Optional[int] = None
    max_jobs_per_submission: Optional[int] = None
    rate_burst: Optional[int] = None
    rate_per_second: Optional[float] = None
    admin: bool = False


@dataclass(frozen=True)
class AuthContext:
    """The result of a successful authentication.

    ``tenant`` is ``None`` for fleet-internal peers acting on their own
    behalf (register, metrics polls); a coordinator dispatching work
    sets the acting tenant explicitly and the daemon trusts it.
    """

    tenant: Optional[Tenant]
    fleet: bool = False

    @property
    def name(self) -> Optional[str]:
        return self.tenant.name if self.tenant is not None else None

    @property
    def admin(self) -> bool:
        if self.fleet:
            return True
        return bool(self.tenant is not None and self.tenant.admin)

    def can_see(self, record_tenant: Optional[str]) -> bool:
        """Namespace check: may this context read a record owned by
        ``record_tenant``?  Fleet peers see everything; tenants see
        exactly their own namespace."""
        if self.fleet:
            return True
        return record_tenant == self.name


def _positive_int(value: Any, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TenancyError(f"{label} must be an integer, got {value!r}")
    if value < 1:
        raise TenancyError(f"{label} must be >= 1, got {value}")
    return value


def _parse_tenant(name: str, doc: Mapping[str, Any]) -> Tenant:
    if not _NAME_RE.match(name):
        raise TenancyError(
            f"invalid tenant name {name!r}: must match {_NAME_RE.pattern}")
    if not isinstance(doc, Mapping):
        raise TenancyError(f"tenant {name!r} must be an object")
    unknown = set(doc) - {
        "token", "token_sha256", "max_queued_jobs", "max_running_jobs",
        "max_jobs_per_submission", "rate", "admin",
    }
    if unknown:
        raise TenancyError(
            f"tenant {name!r} has unknown keys: {sorted(unknown)}")
    token = doc.get("token")
    token_sha = doc.get("token_sha256")
    if (token is None) == (token_sha is None):
        raise TenancyError(
            f"tenant {name!r} needs exactly one of token / token_sha256")
    if token is not None:
        if not isinstance(token, str) or not token:
            raise TenancyError(f"tenant {name!r}: token must be a non-empty string")
        token_sha = hash_token(token)
    else:
        if (not isinstance(token_sha, str)
                or not re.match(r"^[0-9a-f]{64}$", token_sha)):
            raise TenancyError(
                f"tenant {name!r}: token_sha256 must be a 64-char hex digest")
    quotas = {}
    for key in ("max_queued_jobs", "max_running_jobs",
                "max_jobs_per_submission"):
        if doc.get(key) is not None:
            quotas[key] = _positive_int(doc[key], f"tenant {name!r}.{key}")
    burst = per_second = None
    rate = doc.get("rate")
    if rate is not None:
        if not isinstance(rate, Mapping) or set(rate) - {"burst", "per_second"}:
            raise TenancyError(
                f"tenant {name!r}: rate must be {{burst, per_second}}")
        burst = _positive_int(rate.get("burst", 1), f"tenant {name!r}.rate.burst")
        per_second = rate.get("per_second")
        if (isinstance(per_second, bool)
                or not isinstance(per_second, (int, float))
                or per_second <= 0):
            raise TenancyError(
                f"tenant {name!r}: rate.per_second must be > 0")
        per_second = float(per_second)
    admin = doc.get("admin", False)
    if not isinstance(admin, bool):
        raise TenancyError(f"tenant {name!r}: admin must be a boolean")
    return Tenant(
        name=name,
        token_sha256=token_sha,
        rate_burst=burst,
        rate_per_second=per_second,
        admin=admin,
        **quotas,
    )


def parse_tenants_doc(doc: Any, *, source: str = "<tenants>") -> Tuple[
        Dict[str, Tenant], Optional[str], Optional[str]]:
    """Validate a parsed tenants document.  Returns
    ``(tenants_by_name, fleet_token_sha256, fleet_token_clear)`` —
    the clear token is kept (when the file gave one) because fleet
    members must *present* it outbound (coordinator → daemon dispatch,
    daemon → coordinator ``--announce``), not just verify it."""
    if not isinstance(doc, Mapping):
        raise TenancyError(f"{source}: top level must be an object")
    fmt = doc.get("format", TENANTS_FORMAT)
    if fmt != TENANTS_FORMAT:
        raise TenancyError(f"{source}: format must be {TENANTS_FORMAT!r}")
    version = doc.get("version", TENANTS_VERSION)
    if version != TENANTS_VERSION:
        raise TenancyError(f"{source}: unsupported version {version!r}")
    unknown = set(doc) - {"format", "version", "fleet_token",
                          "fleet_token_sha256", "tenants"}
    if unknown:
        raise TenancyError(f"{source}: unknown top-level keys {sorted(unknown)}")
    fleet_sha: Optional[str] = None
    fleet_clear: Optional[str] = None
    if doc.get("fleet_token") is not None:
        token = doc["fleet_token"]
        if not isinstance(token, str) or not token:
            raise TenancyError(f"{source}: fleet_token must be a non-empty string")
        fleet_sha = hash_token(token)
        fleet_clear = token
    elif doc.get("fleet_token_sha256") is not None:
        fleet_sha = doc["fleet_token_sha256"]
        if (not isinstance(fleet_sha, str)
                or not re.match(r"^[0-9a-f]{64}$", fleet_sha)):
            raise TenancyError(
                f"{source}: fleet_token_sha256 must be a 64-char hex digest")
    tenants_doc = doc.get("tenants")
    if not isinstance(tenants_doc, Mapping) or not tenants_doc:
        raise TenancyError(f"{source}: tenants must be a non-empty object")
    tenants: Dict[str, Tenant] = {}
    digests: Dict[str, str] = {}
    for name in sorted(tenants_doc):
        tenant = _parse_tenant(str(name), tenants_doc[name])
        if tenant.token_sha256 in digests:
            raise TenancyError(
                f"{source}: tenants {digests[tenant.token_sha256]!r} and "
                f"{tenant.name!r} share a token")
        if fleet_sha is not None and tenant.token_sha256 == fleet_sha:
            raise TenancyError(
                f"{source}: tenant {tenant.name!r} reuses the fleet token")
        digests[tenant.token_sha256] = tenant.name
        tenants[tenant.name] = tenant
    return tenants, fleet_sha, fleet_clear


def load_tenants_file(path: str) -> Tuple[
        Dict[str, Tenant], Optional[str], Optional[str]]:
    """Parse and validate a tenants file (JSON, or TOML by suffix)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py<3.11
            raise TenancyError(
                f"{path}: TOML tenants files need Python's tomllib; "
                "use JSON instead") from exc
        try:
            doc = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise TenancyError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            doc = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TenancyError(f"{path}: invalid JSON: {exc}") from exc
    return parse_tenants_doc(doc, source=path)


class TenantRegistry:
    """The live tenant table a daemon or coordinator enforces.

    Thread-safe; shared between the asyncio dispatch path, worker
    threads and the maintenance sweep.
    """

    def __init__(self, tenants: Dict[str, Tenant],
                 fleet_token_sha256: Optional[str] = None,
                 fleet_token: Optional[str] = None,
                 *, path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._tenants = dict(tenants)
        self._fleet_sha = fleet_token_sha256
        self._fleet_clear = fleet_token
        if fleet_token is not None and fleet_token_sha256 is None:
            self._fleet_sha = hash_token(fleet_token)
        self._path = path
        self._mtime = self._stat_mtime() if path else None
        self._buckets: Dict[str, TokenBucket] = {}
        self.reloads = 0
        self.reload_errors = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "TenantRegistry":
        tenants, fleet_sha, fleet_clear = load_tenants_file(path)
        return cls(tenants, fleet_sha, fleet_clear, path=path)

    # -- hot reload -----------------------------------------------------

    def _stat_mtime(self) -> Optional[float]:
        try:
            return os.stat(self._path).st_mtime
        except OSError:
            return None

    def reload(self) -> bool:
        """Re-read the tenants file.  Returns True when the table was
        replaced; a file that fails to parse leaves the previous table
        in force and counts a reload error."""
        if not self._path:
            return False
        try:
            tenants, fleet_sha, fleet_clear = load_tenants_file(self._path)
        except (OSError, TenancyError):
            with self._lock:
                self.reload_errors += 1
            return False
        mtime = self._stat_mtime()
        with self._lock:
            # Keep bucket state across reloads unless the rate changed
            # (or vanished) — token rotation must not refill buckets.
            for name in list(self._buckets):
                fresh = tenants.get(name)
                if (fresh is None or fresh.rate_burst is None
                        or (self._buckets[name].config()
                            != (fresh.rate_burst, fresh.rate_per_second))):
                    del self._buckets[name]
            self._tenants = dict(tenants)
            self._fleet_sha = fleet_sha
            self._fleet_clear = fleet_clear
            self._mtime = mtime
            self.reloads += 1
        return True

    def maybe_reload(self) -> bool:
        """Reload iff the file's mtime changed since the last load."""
        if not self._path:
            return False
        mtime = self._stat_mtime()
        if mtime is None or mtime == self._mtime:
            return False
        return self.reload()

    @property
    def path(self) -> Optional[str]:
        return self._path

    # -- lookups --------------------------------------------------------

    def tenants(self) -> Dict[str, Tenant]:
        with self._lock:
            return dict(self._tenants)

    def get(self, name: str) -> Optional[Tenant]:
        with self._lock:
            return self._tenants.get(name)

    def has_fleet_token(self) -> bool:
        with self._lock:
            return self._fleet_sha is not None

    @property
    def fleet_token(self) -> Optional[str]:
        """The clear fleet token for *outbound* fleet-internal calls
        (None when the file only stored its digest)."""
        with self._lock:
            return self._fleet_clear

    # -- authentication -------------------------------------------------

    def authenticate(self, token: Any) -> Optional[AuthContext]:
        """Map a presented bearer token to an AuthContext, or None.

        Compares against *every* stored digest with a constant-time
        comparison so timing does not reveal which tenant matched.
        """
        if not isinstance(token, str) or not token:
            return None
        digest = hash_token(token)
        with self._lock:
            fleet_sha = self._fleet_sha
            candidates = list(self._tenants.values())
        matched: Optional[AuthContext] = None
        if fleet_sha is not None and hmac.compare_digest(digest, fleet_sha):
            matched = AuthContext(tenant=None, fleet=True)
        for tenant in candidates:
            if hmac.compare_digest(digest, tenant.token_sha256):
                matched = AuthContext(tenant=tenant)
        return matched

    # -- rate limiting --------------------------------------------------

    def acquire_submit(self, tenant: Tenant,
                       now: Optional[float] = None) -> float:
        """Charge one submit against the tenant's token bucket.
        Returns 0.0 when admitted, else the retry_after_s."""
        if tenant.rate_burst is None:
            return 0.0
        with self._lock:
            bucket = self._buckets.get(tenant.name)
            if (bucket is None
                    or bucket.config() != (tenant.rate_burst,
                                           tenant.rate_per_second)):
                bucket = TokenBucket(tenant.rate_burst, tenant.rate_per_second)
                self._buckets[tenant.name] = bucket
        return bucket.acquire(now)


#: The permissive context of a daemon running without a tenants file:
#: v1 semantics — every caller is trusted, sees everything, may admin.
OPEN_CONTEXT = AuthContext(tenant=None, fleet=True)


def authorize_request(
    registry: Optional[TenantRegistry], request: Mapping[str, Any]
) -> Tuple[Optional[AuthContext], Optional[Dict[str, Any]]]:
    """The server-side front-door check shared by daemon and
    coordinator dispatch.  Returns ``(context, None)`` when the
    request may proceed, else ``(None, error_reply)``.

    Implements the protocol compat matrix (see
    :mod:`repro.service.protocol`): a request without a ``v`` key (or
    an explicit ``v: 1``) is a v1 request — accepted wholesale when no
    registry is configured, rejected with ``upgrade_required``
    otherwise.  Fleet-token requests may act for a tenant by naming it
    in a ``tenant`` field.
    """
    v = request.get("v")
    is_v1 = v is None or v == 1
    if not is_v1 and v != PROTOCOL_VERSION:
        return None, error_reply(
            "bad_request",
            f"unsupported protocol version {v!r} "
            f"(this daemon speaks v{PROTOCOL_VERSION})",
        )
    if registry is None:
        return OPEN_CONTEXT, None
    if is_v1:
        return None, error_reply(
            "upgrade_required",
            "this daemon enforces tenancy and requires protocol v2 "
            "requests with an 'auth' token",
        )
    token = request.get("auth")
    if not token:
        return None, error_reply(
            "auth_required",
            "this daemon requires a bearer token in the 'auth' field",
        )
    ctx = registry.authenticate(token)
    if ctx is None:
        return None, error_reply(
            "auth_failed", "the presented token matches no tenant"
        )
    acting = request.get("tenant")
    if acting and ctx.fleet:
        tenant = registry.get(acting)
        if tenant is None:
            return None, error_reply(
                "bad_request", f"unknown tenant {acting!r}"
            )
        ctx = AuthContext(tenant=tenant, fleet=True)
    return ctx, None


def admit_submit(
    registry: Optional[TenantRegistry],
    ctx: AuthContext,
    num_jobs: int,
    outstanding: Callable[[], int],
    throttles: Any,
    scope: str = "",
) -> Optional[Dict[str, Any]]:
    """Tenancy admission for one submit of ``num_jobs`` jobs: the rate
    limit, then the per-submission cap, then the outstanding-jobs cap.
    Returns an error reply, or ``None`` to admit.

    ``outstanding()`` counts the tenant's queued and running jobs as
    the caller sees them (a daemon's queue, or the whole fleet at the
    coordinator, which names that ``scope`` in its message); it is
    only called when the tenant has a ``max_queued_jobs`` cap.  Each
    rejection counts once on ``throttles``
    (``repro_tenant_throttles_total``) by tenant and reason.
    """
    tenant = ctx.tenant
    if tenant is None or registry is None:
        return None
    retry_after = registry.acquire_submit(tenant)
    if retry_after > 0.0:
        throttles.inc(tenant=tenant.name, reason="rate_limit")
        return error_reply(
            "rate_limited",
            f"tenant {tenant.name!r} exceeded its submit rate; "
            f"retry in {retry_after:.3f}s",
            retry_after_s=round(retry_after, 3),
        )
    cap = tenant.max_jobs_per_submission
    if cap is not None and num_jobs > cap:
        throttles.inc(tenant=tenant.name, reason="submission_quota")
        return error_reply(
            "quota_exceeded",
            f"submission has {num_jobs} jobs; tenant "
            f"{tenant.name!r} is limited to {cap} per submission",
        )
    cap = tenant.max_queued_jobs
    if cap is not None:
        queued = outstanding()
        if queued + num_jobs > cap:
            throttles.inc(tenant=tenant.name, reason="queued_quota")
            return error_reply(
                "quota_exceeded",
                f"tenant {tenant.name!r} has {queued} outstanding "
                f"job(s){scope}; {num_jobs} more would exceed its "
                f"quota of {cap}",
            )
    return None


def resolve_registry(tenants: Any) -> Optional[TenantRegistry]:
    """Normalize a ``tenants=`` argument: a registry passes through, a
    path string loads, None stays None (open v1-compat mode)."""
    if tenants is None or isinstance(tenants, TenantRegistry):
        return tenants
    if isinstance(tenants, (str, os.PathLike)):
        return TenantRegistry.load(os.fspath(tenants))
    raise TypeError(f"tenants must be a path or TenantRegistry, got {tenants!r}")


def quota_table(tenants: Iterable[Tenant]) -> str:
    """Render the ``repro tenants --check`` quota table."""
    headers = ("tenant", "queued", "running", "per-sub", "rate", "admin")
    rows = []
    for tenant in sorted(tenants, key=lambda t: t.name):
        rate = ("-" if tenant.rate_burst is None
                else f"{tenant.rate_burst}@{tenant.rate_per_second:g}/s")
        rows.append((
            tenant.name,
            "-" if tenant.max_queued_jobs is None else str(tenant.max_queued_jobs),
            "-" if tenant.max_running_jobs is None else str(tenant.max_running_jobs),
            ("-" if tenant.max_jobs_per_submission is None
             else str(tenant.max_jobs_per_submission)),
            rate,
            "yes" if tenant.admin else "no",
        ))
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)
