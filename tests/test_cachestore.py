"""Tests for the tiered/remote cache subsystem (engine/cachestore.py).

Covers the ProgramCache conformance contract across every backend
(Null/Memory/Disk/Remote/Tiered), the content-addressed HTTP protocol
round trip (digest validation both directions, corrupted-entry
rejection), tiered read-through fill and write policies, the cache-spec
factory grammar, fail-soft behaviour when the remote tier dies
mid-batch, and the spec-driven CLI surface (``--cache``,
``repro cache info/prune/serve``).
"""

import hashlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.engine import (
    CacheSpecError,
    CompilationEngine,
    CompileJob,
    DiskCache,
    MemoryCache,
    NullCache,
    RemoteCache,
    RemoteCacheError,
    RemoteCacheServer,
    TieredCache,
    describe_cache,
    docs_equal_modulo_timing,
    make_cache,
    manifest_cache_spec,
    manifest_digest,
    parse_cache_spec,
    results_doc,
)
from repro.engine.cache import encode_artifact
from repro.engine.cachestore import (
    DIGEST_HEADER,
    REMOTE_PROTOCOL_VERSION,
    artifact_digest,
)


def _key(tag: str) -> str:
    """A deterministic 64-hex cache key (remote keys are validated)."""
    return hashlib.sha256(tag.encode()).hexdigest()


def _doc(tag: str = "x") -> dict:
    return {
        "program": {"payload": tag},
        "compile_time": 0.25,
        "validated": True,
        "pass_timings": {},
    }


@pytest.fixture
def server(tmp_path):
    """A running reference server backed by a disk store."""
    store = DiskCache(str(tmp_path / "server-store"))
    srv = RemoteCacheServer(store).start()
    yield srv
    srv.stop()


# ----------------------------------------------------------------------
# Conformance: every backend honours the same get/put/contains contract
# ----------------------------------------------------------------------


def _backends(tmp_path, server):
    return {
        "memory": MemoryCache(),
        "disk": DiskCache(str(tmp_path / "disk")),
        "remote": RemoteCache(server.url, timeout=5.0),
        "tiered": TieredCache(
            [MemoryCache(), DiskCache(str(tmp_path / "tier-disk"))]
        ),
    }


class TestConformance:
    def test_get_put_contains_roundtrip(self, tmp_path, server):
        for name, cache in _backends(tmp_path, server).items():
            key, doc = _key(name), _doc(name)
            assert cache.get(key) is None, name
            assert not cache.contains(key), name
            cache.put(key, doc)
            assert cache.contains(key), name
            assert cache.get(key) == doc, name
            assert cache.stats.hits == 1, name
            assert cache.stats.misses == 1, name
            assert cache.stats.stores == 1, name
            assert cache.last_hit_tier is not None, name

    def test_null_cache_never_hits(self):
        cache = NullCache()
        key = _key("null")
        cache.put(key, _doc())
        assert cache.get(key) is None
        assert not cache.contains(key)
        assert cache.stats.misses == 1

    def test_unknown_key_misses_everywhere(self, tmp_path, server):
        for name, cache in _backends(tmp_path, server).items():
            assert cache.get(_key("absent")) is None, name
            assert not cache.contains(_key("absent")), name

    def test_put_kind_selects_counter(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put(_key("a"), _doc(), kind="store")
        cache.put(_key("b"), _doc(), kind="fill")
        cache.put(_key("c"), _doc(), kind="revalidate")
        assert cache.stats.stores == 1
        assert cache.stats.fills == 1
        assert cache.stats.revalidations == 1
        assert cache.stats.writes == 3
        with pytest.raises(ValueError, match="put kind"):
            cache.put(_key("d"), _doc(), kind="evict")

    def test_info_is_json_safe(self, tmp_path, server):
        for name, cache in _backends(tmp_path, server).items():
            cache.put(_key(name), _doc())
            json.dumps(cache.info())
            json.dumps(cache.stats_doc())


# ----------------------------------------------------------------------
# Remote protocol
# ----------------------------------------------------------------------


class TestRemoteProtocol:
    def test_roundtrip_over_localhost(self, server):
        client = RemoteCache(server.url)
        key, doc = _key("rt"), _doc("rt")
        client.put(key, doc)
        # A second, independent client sees the entry (shared tier).
        other = RemoteCache(server.url)
        assert other.contains(key)
        assert other.get(key) == doc

    def test_get_carries_matching_digest_header(self, server):
        client = RemoteCache(server.url)
        key, doc = _key("dg"), _doc("dg")
        client.put(key, doc)
        with urllib.request.urlopen(
            f"{server.url}/v1/cache/{key}"
        ) as response:
            payload = response.read()
            claimed = response.headers[DIGEST_HEADER]
            etag = response.headers["ETag"]
        assert claimed == artifact_digest(payload)
        assert etag == f'"{claimed}"'

    def test_put_with_wrong_digest_rejected(self, server):
        key = _key("bad-digest")
        payload = encode_artifact(_doc())
        request = urllib.request.Request(
            f"{server.url}/v1/cache/{key}",
            data=payload,
            method="PUT",
            headers={DIGEST_HEADER: "0" * 64},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.status == 400
        assert not RemoteCache(server.url).contains(key)

    def test_bad_key_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/v1/cache/nothex")
        assert err.value.status == 400

    def test_non_json_put_rejected(self, server):
        key = _key("not-json")
        request = urllib.request.Request(
            f"{server.url}/v1/cache/{key}",
            data=b"\x00\x01 definitely not json",
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.status == 400

    def test_corrupted_server_entry_reads_as_miss(self, tmp_path):
        store = DiskCache(str(tmp_path / "store"))
        srv = RemoteCacheServer(store).start()
        try:
            client = RemoteCache(srv.url)
            key = _key("corrupt")
            client.put(key, _doc())
            # Corrupt the backing file: the store rejects it on read,
            # the server answers 404, the client misses -- recompile,
            # never a crash or a poisoned artifact.
            path = tmp_path / "store" / f"{key}.json"
            path.write_text("{ torn", encoding="utf-8")
            assert client.get(key) is None
        finally:
            srv.stop()

    def test_client_rejects_tampered_payload(self):
        # A server whose payload does not match its digest header
        # (bit-rot, truncating proxy) must read as a miss.
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Tampering(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b'{"program": {}, "compile_time": 0.1}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.send_header(DIGEST_HEADER, "f" * 64)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Tampering)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = RemoteCache(url)
            assert client.get(_key("tampered")) is None
            assert client.stats.errors == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_put_error_with_unread_body_closes_connection(self, server):
        # The server answers bad-key PUTs before draining the body; on
        # a keep-alive connection it must then close, or the unread
        # body bytes would be parsed as the next request line.
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            connection.request(
                "PUT", "/v1/cache/nothex", body=b'{"x": 1}'
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_stats_and_server_side_prune(self, server):
        client = RemoteCache(server.url)
        for tag in ("p1", "p2"):
            client.put(_key(tag), _doc(tag))
        stats = client.server_stats()
        assert stats["entries"] == 2
        assert stats["protocol"] == REMOTE_PROTOCOL_VERSION == 2
        report = client.prune(0)
        assert report.removed_entries == 2
        assert client.server_stats()["entries"] == 0

    def test_admin_ops_raise_when_unreachable(self):
        client = RemoteCache("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(RemoteCacheError):
            client.server_stats()
        with pytest.raises(RemoteCacheError):
            client.prune(0)
        info = client.info()
        assert info["reachable"] is False


def _text_doc(tag: str = "x") -> dict:
    """An artifact whose program is text: two lines on the wire."""
    return {
        "program": json.dumps({"payload": tag, "note": 'a "q"\nb'}),
        "summary": {"total": 0.5},
        "compile_time": 0.25,
        "validated": True,
    }


def _serve_once(body: bytes, digest: str):
    """A one-route server answering every GET with ``body`` under the
    digest header ``digest``; returns ``(httpd, url)``."""
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Fixed(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.send_header(DIGEST_HEADER, digest)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Fixed)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"


def _put(url: str, key: str, payload: bytes, digest: bool = True) -> int:
    """Status of one raw PUT of ``payload`` under ``key``."""
    headers = {DIGEST_HEADER: artifact_digest(payload)} if digest else {}
    request = urllib.request.Request(
        f"{url}/v1/cache/{key}", data=payload, method="PUT",
        headers=headers,
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status
    except urllib.error.HTTPError as err:
        return err.status


class TestWirePayload:
    """Artifact bodies are the codec's bytes, in both directions."""

    def test_get_serves_the_codec_bytes_the_disk_store_holds(
        self, tmp_path
    ):
        store = DiskCache(str(tmp_path / "store"))
        srv = RemoteCacheServer(store).start()
        try:
            key, doc = _key("wire"), _text_doc("wire")
            RemoteCache(srv.url).put(key, doc)
            with urllib.request.urlopen(
                f"{srv.url}/v1/cache/{key}"
            ) as response:
                payload = response.read()
        finally:
            srv.stop()
        assert payload == encode_artifact(doc)
        assert payload.split(b"\n", 1)[1] == doc["program"].encode()
        on_disk = (tmp_path / "store" / f"{key}.json").read_bytes()
        assert on_disk == payload

    def test_get_sends_the_stored_bytes_without_reencoding(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.cache as cache_module
        import repro.engine.cachestore as cachestore_module

        store = DiskCache(str(tmp_path / "store"))
        key = _key("verbatim")
        store.put(key, _text_doc("verbatim"))

        def refuse(doc):
            raise AssertionError("the server re-encoded a stored entry")

        monkeypatch.setattr(cache_module, "encode_artifact", refuse)
        monkeypatch.setattr(cachestore_module, "encode_artifact", refuse)
        srv = RemoteCacheServer(store).start()
        try:
            url = f"{srv.url}/v1/cache/{key}"
            with urllib.request.urlopen(url) as response:
                payload = response.read()
                digest = response.headers[DIGEST_HEADER]
        finally:
            srv.stop()
        on_disk = (tmp_path / "store" / f"{key}.json").read_bytes()
        assert payload == on_disk
        assert digest == artifact_digest(on_disk)

    @pytest.mark.parametrize(
        "stored",
        [
            b"{ torn",
            b"[1, 2]\n{}",
            b'{"compile_time": 1}\n\xff\xfe',
            b"\xff\xfe{}",
        ],
        ids=["torn-header", "list-header", "not-utf8-program", "not-utf8"],
    )
    def test_foreign_entry_is_a_counted_404(self, tmp_path, stored):
        store = DiskCache(str(tmp_path / "store"))
        good, foreign, missing = _key("good"), _key("foreign"), _key("no")
        store.put(good, _text_doc("good"))
        (tmp_path / "store" / f"{foreign}.json").write_bytes(stored)
        srv = RemoteCacheServer(store).start()
        try:
            statuses = []
            for key in (good, foreign, missing):
                try:
                    with urllib.request.urlopen(
                        f"{srv.url}/v1/cache/{key}"
                    ) as response:
                        statuses.append(response.status)
                except urllib.error.HTTPError as err:
                    statuses.append(err.status)
        finally:
            srv.stop()
        assert statuses == [200, 404, 404]
        assert (store.stats.hits, store.stats.misses) == (1, 2)

    def test_get_encoded_is_the_codec_bytes_on_every_backend(
        self, tmp_path
    ):
        key, doc = _key("encoded"), _text_doc("encoded")
        # Non-ASCII program text takes the UTF-8 check's slow path.
        wide_key, wide = _key("wide"), dict(doc, program='"é→"')
        for cache in (MemoryCache(), DiskCache(str(tmp_path / "disk"))):
            assert cache.get_encoded(key) is None
            cache.put(key, doc)
            cache.put(wide_key, wide)
            assert cache.get_encoded(key) == encode_artifact(doc)
            assert cache.get_encoded(wide_key) == encode_artifact(wide)
            assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: payload[: len(payload) // 2],
            lambda payload: payload[:-1],
            lambda payload: payload.replace(b"wire", b"wirf"),
            lambda payload: payload[:5],
        ],
        ids=["truncated-half", "truncated-by-one", "flipped", "torn-header"],
    )
    def test_damaged_transfer_fails_the_digest_as_one_error(self, damage):
        payload = encode_artifact(_text_doc("wire"))
        httpd, url = _serve_once(damage(payload), artifact_digest(payload))
        try:
            client = RemoteCache(url)
            assert client.get(_key("wire")) is None
            assert client.stats.errors == 1
        finally:
            httpd.shutdown()
            httpd.server_close()

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"compile_time": \n"program"',
            b'[1, 2]\n{"program": 1}',
            b'"text"',
            b"\xff\xfe{}\n{}",
        ],
        ids=["torn-header", "list-header", "string-header", "not-utf8"],
    )
    def test_put_with_an_invalid_header_is_400(self, server, payload):
        key = _key("invalid-header")
        assert _put(server.url, key, payload) == 400
        assert not RemoteCache(server.url).contains(key)

    def test_one_line_v4_payload_is_stored_and_served(self, server):
        """A pre-codec client sends the whole artifact as one sorted,
        compact JSON document; the server still stores and serves it."""
        key, doc = _key("v4"), _text_doc("v4")
        payload = json.dumps(
            doc, separators=(",", ":"), sort_keys=True
        ).encode()
        assert b"\n" not in payload
        assert _put(server.url, key, payload) == 204
        client = RemoteCache(server.url)
        assert client.get(key) == doc
        assert client.stats.errors == 0


class TestRemoteFailSoft:
    def test_down_server_degrades_to_miss(self):
        client = RemoteCache(
            "http://127.0.0.1:9", timeout=0.2, cooldown=30.0
        )
        key = _key("down")
        assert client.get(key) is None
        client.put(key, _doc())  # dropped, not raised
        assert not client.contains(key)
        assert client.stats.errors >= 1

    def test_cooldown_skips_requests_then_recovers(self, tmp_path):
        store = MemoryCache()
        srv = RemoteCacheServer(store).start()
        url = srv.url
        srv.stop()
        client = RemoteCache(url, timeout=0.5, cooldown=0.05)
        assert client.get(_key("cd")) is None  # transport error
        errors = client.stats.errors
        assert client.get(_key("cd")) is None  # inside cooldown: skip
        assert client.stats.errors == errors
        # Server comes back on the same port after the cooldown.
        import time as _time

        host, port = url.rsplit(":", 1)[0].split("//")[1], int(
            url.rsplit(":", 1)[1]
        )
        revived = RemoteCacheServer(store, host=host, port=port).start()
        try:
            _time.sleep(0.1)
            client.put(_key("cd"), _doc("cd"))
            assert client.get(_key("cd")) == _doc("cd")
        finally:
            revived.stop()


# ----------------------------------------------------------------------
# Tiered composition
# ----------------------------------------------------------------------


class TestTieredCache:
    def test_read_through_fill(self, tmp_path):
        memory = MemoryCache()
        disk = DiskCache(str(tmp_path))
        tiered = TieredCache([memory, disk])
        key, doc = _key("fill"), _doc("fill")
        disk.put(key, doc)  # seed the lower tier only
        assert tiered.get(key) == doc
        assert tiered.last_hit_tier == "disk"
        # The hit was copied up: memory now serves it directly.
        assert memory.stats.fills == 1
        assert tiered.get(key) == doc
        assert tiered.last_hit_tier == "memory"

    def test_write_through_lands_everywhere(self, tmp_path):
        memory = MemoryCache()
        disk = DiskCache(str(tmp_path))
        tiered = TieredCache([memory, disk])
        key = _key("wt")
        tiered.put(key, _doc())
        assert memory.contains(key)
        assert disk.contains(key)

    def test_write_back_defers_last_tier_until_flush(self, tmp_path):
        disk = DiskCache(str(tmp_path / "local"))
        backing = DiskCache(str(tmp_path / "backing"))
        tiered = TieredCache([disk, backing], write_policy="back")
        key = _key("wb")
        tiered.put(key, _doc())
        assert disk.contains(key)
        assert not backing.contains(key)
        assert tiered.flush() == 1
        assert backing.contains(key)
        assert tiered.flush() == 0  # nothing pending twice

    def test_write_back_flush_retries_after_remote_outage(
        self, tmp_path
    ):
        # A flush against a down remote must keep the deferred keys
        # pending (no silent loss) and push them once the server is
        # back.
        store = MemoryCache()
        srv = RemoteCacheServer(store).start()
        host, port = srv.address
        srv.stop()  # the uplink is down during the first flush
        remote = RemoteCache(srv.url, timeout=0.5, cooldown=0.05)
        disk = DiskCache(str(tmp_path))
        tiered = TieredCache([disk, remote], write_policy="back")
        keys = [_key(f"wbr{i}") for i in range(3)]
        for key in keys:
            tiered.put(key, _doc(key))
        assert tiered.flush() == 0
        import time as _time

        _time.sleep(0.1)  # let the cooldown lapse
        revived = RemoteCacheServer(store, host=host, port=port).start()
        try:
            _time.sleep(0.1)
            assert tiered.flush() == 3
            for key in keys:
                assert store.contains(key)
        finally:
            revived.stop()

    def test_miss_counts_once_on_the_composition(self, tmp_path):
        tiered = TieredCache(
            [MemoryCache(), DiskCache(str(tmp_path))]
        )
        assert tiered.get(_key("miss")) is None
        assert tiered.stats.misses == 1
        assert tiered.last_hit_tier is None

    def test_per_tier_stats_doc(self, tmp_path):
        tiered = TieredCache([MemoryCache(), DiskCache(str(tmp_path))])
        tiered.put(_key("s"), _doc())
        doc = tiered.stats_doc()
        assert [tier["name"] for tier in doc["tiers"]] == [
            "memory",
            "disk",
        ]
        assert doc["tiers"][1]["stats"]["stores"] == 1

    def test_duplicate_kinds_get_unique_names(self, tmp_path):
        tiered = TieredCache(
            [
                DiskCache(str(tmp_path / "a")),
                DiskCache(str(tmp_path / "b")),
            ]
        )
        assert tiered.tier_names == ["disk", "disk2"]

    def test_nested_tiered_rejected(self, tmp_path):
        inner = TieredCache([MemoryCache()])
        with pytest.raises(CacheSpecError, match="nest"):
            TieredCache([inner])

    def test_prune_covers_every_tier(self, tmp_path):
        memory = MemoryCache()
        disk = DiskCache(str(tmp_path))
        tiered = TieredCache([memory, disk])
        tiered.put(_key("p"), _doc())
        report = tiered.prune(0)
        assert report.removed_entries == 2  # one per tier
        assert len(memory) == 0 and len(disk) == 0

    def test_prune_skips_unreachable_remote(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        dead = RemoteCache("http://127.0.0.1:9", timeout=0.2)
        tiered = TieredCache([disk, dead])
        disk.put(_key("pr"), _doc())
        report = tiered.prune(0)  # must not raise
        assert report.removed_entries == 1

    def test_down_remote_tier_serves_from_disk(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        dead = RemoteCache(
            "http://127.0.0.1:9", timeout=0.2, cooldown=30.0
        )
        tiered = TieredCache([disk, dead])
        key, doc = _key("fs"), _doc("fs")
        tiered.put(key, doc)  # remote write drops silently
        assert tiered.get(key) == doc
        assert tiered.last_hit_tier == "disk"
        assert dead.stats.errors >= 1


# ----------------------------------------------------------------------
# Spec factory
# ----------------------------------------------------------------------


class TestCacheSpecs:
    def test_grammar(self, tmp_path):
        assert isinstance(make_cache("null"), NullCache)
        assert isinstance(make_cache("none"), NullCache)
        assert isinstance(make_cache("memory"), MemoryCache)
        disk = make_cache(f"disk:{tmp_path}")
        assert isinstance(disk, DiskCache)
        assert disk.max_bytes is None
        bounded = make_cache(f"disk:{tmp_path}:1000")
        assert bounded.max_bytes == 1000
        remote = make_cache("remote:http://127.0.0.1:8123")
        assert isinstance(remote, RemoteCache)
        tiered = make_cache(
            f"tiered:memory,disk:{tmp_path},remote:http://127.0.0.1:8123"
        )
        assert isinstance(tiered, TieredCache)
        assert tiered.tier_names == ["memory", "disk", "remote"]
        assert tiered.write_policy == "through"
        back = make_cache(f"tiered+back:memory,disk:{tmp_path}")
        assert back.write_policy == "back"

    def test_none_and_passthrough(self):
        assert isinstance(make_cache(None), NullCache)
        ready = MemoryCache()
        assert make_cache(ready) is ready

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus",
            "disk",
            "disk:",
            "remote:",
            "remote:ftp://x",
            "remote:127.0.0.1:8123",
            "memory:extra",
            "tiered:",
            "tiered:tiered:memory",
            "null:x",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(CacheSpecError):
            parse_cache_spec(bad)

    def test_disk_path_with_colon_but_no_budget(self):
        parsed = parse_cache_spec("disk:/tmp/a:b")
        assert parsed["path"] == "/tmp/a:b"
        assert parsed["max_bytes"] is None

    def test_describe_cache(self, tmp_path):
        cache = make_cache(
            f"tiered:memory,disk:{tmp_path}:500,"
            "remote:http://127.0.0.1:1"
        )
        text = describe_cache(cache)
        assert "memory" in text
        assert str(tmp_path) in text
        assert "remote(http://127.0.0.1:1)" in text

    def test_manifest_cache_spec_and_digest_exclusion(self):
        doc = {"jobs": [{"benchmark": "BV-14"}]}
        spec_doc = {**doc, "cache": "memory"}
        assert manifest_cache_spec(doc) is None
        assert manifest_cache_spec(spec_doc) == "memory"
        # The cache spec is run environment: it must not rotate the
        # manifest digest (shard merge / equivalence checks depend on
        # it).
        assert manifest_digest(doc) == manifest_digest(spec_doc)

    def test_engine_accepts_spec_strings(self, tmp_path):
        engine = CompilationEngine(cache=f"disk:{tmp_path}")
        assert isinstance(engine.cache, DiskCache)


# ----------------------------------------------------------------------
# Engine integration: equivalence and fail-soft mid-batch
# ----------------------------------------------------------------------


def _jobs():
    return [
        CompileJob(scenario="pm_with_storage", benchmark="BV-14"),
        CompileJob(scenario="pm_non_storage", benchmark="BV-14"),
    ]


def _doc_of(results):
    return results_doc(
        results,
        manifest_digest="d",
        total_jobs=len(results),
        wall_time_s=0.0,
        on_error="collect",
    )


class TestEngineIntegration:
    def test_tiered_remote_equivalence_and_hit_attribution(
        self, tmp_path, server
    ):
        cold = CompilationEngine().run(_jobs())
        warm_cache = TieredCache(
            [
                DiskCache(str(tmp_path / "d1")),
                RemoteCache(server.url),
            ]
        )
        first = CompilationEngine(cache=warm_cache).run(_jobs())
        # Fresh disk tier, same remote: hits must come from the remote.
        second_cache = TieredCache(
            [
                DiskCache(str(tmp_path / "d2")),
                RemoteCache(server.url),
            ]
        )
        second = CompilationEngine(cache=second_cache).run(_jobs())
        assert docs_equal_modulo_timing(_doc_of(cold), _doc_of(first))
        assert docs_equal_modulo_timing(_doc_of(cold), _doc_of(second))
        assert all(result.cache_hit for result in second)
        assert all(
            result.stats["cache_tier"] == "remote" for result in second
        )
        assert second_cache.tiers[0].stats.fills == len(second)

    def test_remote_killed_mid_batch_fails_soft(self, tmp_path):
        store = DiskCache(str(tmp_path / "srv"))
        srv = RemoteCacheServer(store).start()
        disk = DiskCache(str(tmp_path / "local"))
        cache = TieredCache(
            [disk, RemoteCache(srv.url, timeout=1.0, cooldown=0.1)]
        )
        engine = CompilationEngine(cache=cache)
        baseline = engine.run(_jobs())
        assert all(result.ok for result in baseline)
        # The server dies between batches (equivalently: mid-run for
        # every job still pending) -- jobs keep completing from disk.
        srv.stop()
        again = CompilationEngine(cache=cache).run(_jobs())
        assert all(result.ok for result in again)
        assert all(result.cache_hit for result in again)
        assert docs_equal_modulo_timing(
            _doc_of(baseline), _doc_of(again)
        )

    def test_daemon_shutdown_drops_no_write_backs(self, tmp_path):
        # A daemon on a write-back tiered cache defers every store to
        # the backing tier.  The shutdown path (workers flush on exit,
        # stop() flushes last) must push them all: after a drained
        # stop, nothing stays pending and every compiled artifact is
        # in the backing tier.
        from repro.service import ServiceClient, ServiceServer

        local = DiskCache(str(tmp_path / "local"))
        backing = DiskCache(str(tmp_path / "backing"))
        tiered = TieredCache([local, backing], write_policy="back")
        server = ServiceServer(
            str(tmp_path / "queue"),
            "127.0.0.1:0",
            cache=tiered,
            workers=2,
        ).start()
        try:
            client = ServiceClient(server.address)
            client.wait_ready()
            submitted = client.submit(
                {
                    "defaults": {
                        "enola": {
                            "mis_restarts": 1,
                            "sa_iterations_per_qubit": 0,
                        }
                    },
                    "jobs": [
                        {"benchmark": "BV-14", "backend": "powermove"},
                        {"benchmark": "BV-14", "backend": "enola"},
                    ],
                }
            )
            records = list(
                client.results(submitted["submission"], follow=True)
            )
            assert [r["status"] for r in records] == ["ok", "ok"]
        finally:
            server.stop(drain=True)
        assert server.wait_stopped(timeout=30.0)
        with tiered._pending_lock:
            assert tiered._pending == set()  # no dropped write-backs
        keys = {r["cache_key"] for r in records}
        assert len(keys) == 2
        for key in keys:
            assert backing.contains(key)
        assert local.stats.stores == backing.stats.stores

    def test_revalidation_writes_counted_apart(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        engine = CompilationEngine(cache=cache)
        [result] = engine.run(
            [CompileJob(scenario="pm_with_storage", benchmark="BV-14",
                        validate=False)]
        )
        assert cache.stats.stores == 1
        # Strip the validated flag so the next hit re-validates.
        stored = cache.get(result.key)
        cache.put(result.key, {**stored, "validated": False})
        hit_engine = CompilationEngine(cache=cache)
        [hit] = hit_engine.run(
            [CompileJob(scenario="pm_with_storage", benchmark="BV-14")]
        )
        assert hit.cache_hit
        assert cache.stats.revalidations == 1
        assert cache.stats.fills == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCacheCliSpecs:
    def test_info_against_spec(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path))
        cache.put(_key("i"), _doc())
        assert main(["cache", "info", "--cache",
                     f"disk:{tmp_path}"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out

    def test_info_tiered_renders_every_tier(self, tmp_path, capsys):
        spec = (
            f"tiered:memory,disk:{tmp_path},"
            "remote:http://127.0.0.1:9"
        )
        assert main(["cache", "info", "--cache", spec]) == 0
        out = capsys.readouterr().out
        assert "tiered cache" in out
        assert "memory" in out
        assert "UNREACHABLE" in out

    def test_info_json(self, tmp_path, capsys):
        assert main(
            ["cache", "info", "--cache", f"disk:{tmp_path}", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "disk"

    def test_prune_against_spec(self, tmp_path, capsys):
        cache = DiskCache(str(tmp_path))
        cache.put(_key("p"), _doc())
        assert main(["cache", "prune", "--cache",
                     f"disk:{tmp_path}"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_prune_unreachable_remote_errors(self, capsys):
        code = main(
            ["cache", "prune", "--cache", "remote:http://127.0.0.1:9"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "info", "--cache", "bogus"])
        assert exit_info.value.code == 2

    def test_batch_uses_manifest_cache_spec(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "cache": f"disk:{tmp_path / 'mcache'}",
                    "jobs": [
                        {
                            "benchmark": "BV-14",
                            "scenario": "pm_with_storage",
                        }
                    ],
                }
            )
        )
        out_path = tmp_path / "out.json"
        assert main(
            ["batch", str(manifest), "--output", str(out_path)]
        ) == 0
        assert (tmp_path / "mcache").is_dir()
        doc = json.loads(out_path.read_text())
        assert doc["cache_stats"]["kind"] == "disk"
        assert doc["cache_stats"]["stats"]["stores"] == 1
        # Second run: warm via the manifest-named disk cache.
        capsys.readouterr()
        assert main(
            ["batch", str(manifest), "--output", str(out_path)]
        ) == 0
        assert json.loads(out_path.read_text())["cache_hits"] == 1


class TestCacheObservability:
    def test_lookup_profile_per_tier_hit(self, tmp_path):
        memory = MemoryCache()
        disk = DiskCache(str(tmp_path))
        tiered = TieredCache([memory, disk])
        key = _key("prof")
        disk.put(key, _doc("prof"))
        assert tiered.get(key) is not None
        profile = tiered.last_lookup_profile
        assert [entry["tier"] for entry in profile] == ["memory", "disk"]
        assert [entry["hit"] for entry in profile] == [False, True]
        assert all(entry["duration_s"] >= 0.0 for entry in profile)
        # A miss probes every tier without a hit.
        assert tiered.get(_key("profmiss")) is None
        profile = tiered.last_lookup_profile
        assert [entry["hit"] for entry in profile] == [False, False]

    def test_lookup_profile_is_per_thread(self):
        cache = MemoryCache()
        hit_key, miss_key = _key("tls-hit"), _key("tls-miss")
        cache.put(hit_key, _doc())
        cache.get(hit_key)
        seen = {}

        def other_thread():
            cache.get(miss_key)
            seen["profile"] = cache.last_lookup_profile

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        # The other thread's miss did not clobber this thread's hit.
        assert cache.last_lookup_profile[-1]["hit"] is True
        assert seen["profile"][-1]["hit"] is False

    def test_null_cache_still_profiles(self):
        cache = NullCache()
        assert cache.get(_key("null")) is None
        assert cache.last_lookup_profile[-1]["hit"] is False

    def test_stats_doc_is_consistent_under_concurrent_flush(
        self, tmp_path
    ):
        """Regression: the daemon's ping snapshots cache stats while a
        write-back flush mutates the tiers.  The snapshot must be
        internally consistent (taken under the stats lock), never a
        torn read or an exception."""
        disk = DiskCache(str(tmp_path / "local"))
        backing = DiskCache(str(tmp_path / "backing"))
        tiered = TieredCache([disk, backing], write_policy="back")
        stop = threading.Event()
        failures = []

        def hammer_stats():
            while not stop.is_set():
                try:
                    doc = tiered.stats_doc()
                    by_name = {
                        tier["name"]: tier["stats"]
                        for tier in doc["tiers"]
                    }
                    # Flush pushes batches under the stats lock, so a
                    # snapshot sees the backing tier's stores either
                    # before or after a whole batch -- monotonic, and
                    # never more than the local tier has accepted.
                    assert (
                        by_name["disk2"]["stores"]
                        <= by_name["disk"]["stores"]
                    )
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)
                    return

        reader = threading.Thread(target=hammer_stats)
        reader.start()
        try:
            for round_index in range(30):
                for entry in range(5):
                    tiered.put(
                        _key(f"race-{round_index}-{entry}"), _doc()
                    )
                assert tiered.flush() == 5
        finally:
            stop.set()
            reader.join(timeout=10.0)
        assert not failures

    def test_cache_stats_registry_mirrors_stats_doc(self, tmp_path):
        from repro.engine.cachestore import cache_stats_registry

        tiered = TieredCache([MemoryCache(), DiskCache(str(tmp_path))])
        key = _key("reg")
        tiered.put(key, _doc())
        assert tiered.get(key) is not None
        assert tiered.get(_key("reg-miss")) is None
        registry = cache_stats_registry(tiered)
        text = registry.render_prometheus()
        assert (
            'repro_cache_requests_total{tier="memory",result="hit"} 1'
            in text
        )
        assert (
            'repro_cache_writes_total{tier="disk",kind="store"} 1'
            in text
        )

    def test_cache_server_serves_metrics(self, tmp_path):
        store = DiskCache(str(tmp_path))
        store.put(_key("srvmetrics"), _doc())
        server = RemoteCacheServer(store).start()
        try:
            url = server.url.rstrip("/") + "/metrics"
            with urllib.request.urlopen(url, timeout=5.0) as reply:
                assert reply.status == 200
                text = reply.read().decode("utf-8")
            assert "repro_cache_writes_total" in text
            assert "repro_cache_entries 1" in text
        finally:
            server.stop()
