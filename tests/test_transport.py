"""The HTTP transport both remote providers share: one retry policy, one error mapping."""

import json
import socket
import time

import pytest
import requests

from scenealign import transport
from scenealign.cli import main
from scenealign.embed import EmbedConfig, embed_texts
from scenealign.errors import ConfigError, RemoteError
from scenealign.generate import GeneratorConfig, generate_rationale
from scenealign.pipeline import PipelineConfig, run_pipeline
from scenealign.selection import SelectionConfig
from scenealign.transport import CHAT_TIMEOUT_S, post_json

from .helpers import MockApi

NOT_JSON = b"<html><body>502 from a proxy, served as 200</body></html>"


def _chat_cfg(api, **kw):
    return GeneratorConfig(kind="http-chat", endpoint=f"{api.url}/chat", model="reasoner-1", **kw)


def _embed_cfg(api, **kw):
    return EmbedConfig(provider="http", endpoint=f"{api.url}/embed", dimension=4, **kw)


def _chat_reply(text):
    return 200, {"choices": [{"message": {"content": text}}]}


class TestPostJson:
    def test_non_json_200_is_a_remote_error_and_not_retried(self, mock_api):
        mock_api.handler = lambda payload: (200, NOT_JSON)
        with pytest.raises(RemoteError) as err:
            post_json({}, f"{mock_api.url}/chat", CHAT_TIMEOUT_S)
        assert err.value.status == 200
        assert "not JSON" in err.value.detail
        assert len(mock_api.requests) == 1


    @pytest.mark.parametrize("endpoint", ["localhost:9/x", "ftp://127.0.0.1:9/x", "http://[::1/x"])
    def test_a_url_no_attempt_can_reach_fails_at_once(self, monkeypatch, endpoint):
        monkeypatch.setattr(transport, "BACKOFF_BASE_S", 10.0)  # a retry would take 10 s
        started = time.monotonic()
        with pytest.raises(RemoteError) as err:
            post_json({}, endpoint, CHAT_TIMEOUT_S)
        assert time.monotonic() - started < 5.0
        assert err.value.status is None

    def test_a_refused_connection_is_retried_then_a_remote_error(self, proxy_env):
        proxy_env.setattr(transport, "BACKOFF_BASE_S", 0.0)
        with socket.socket() as sock:  # a port bound and closed again, so nothing listens on it
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        attempts = []
        post = requests.Session.post
        proxy_env.setattr(requests.Session, "post", lambda self, *a, **kw: attempts.append(a) or post(self, *a, **kw))
        with pytest.raises(RemoteError) as err:
            post_json({}, f"http://127.0.0.1:{port}/chat", CHAT_TIMEOUT_S)
        assert len(attempts) == transport.MAX_ATTEMPTS
        assert err.value.status is None


BAD_ENDPOINTS = ["localhost:8000/v1/chat/completions", "ftp://127.0.0.1/x", "http:///x", "//127.0.0.1/x", "http://[::1/x"]


class TestEndpointCheck:
    @pytest.mark.parametrize("endpoint", BAD_ENDPOINTS)
    def test_both_configs_reject_an_endpoint_without_an_http_scheme_and_a_host(self, endpoint):
        with pytest.raises(ConfigError):
            GeneratorConfig(kind="http-chat", endpoint=endpoint)
        with pytest.raises(ConfigError):
            EmbedConfig(provider="http", endpoint=endpoint)

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1:9/chat", "https://api.example.com/v1/chat/completions"])
    def test_both_configs_accept_an_http_or_https_url(self, endpoint):
        assert GeneratorConfig(kind="http-chat", endpoint=endpoint).endpoint == endpoint
        assert EmbedConfig(provider="http", endpoint=endpoint).endpoint == endpoint

    @pytest.mark.parametrize("flags", [["--generator", "http", "--endpoint"], ["--embed", "http", "--embed-endpoint"]])
    def test_run_exits_1_on_a_schemeless_endpoint(self, tmp_path, capsys, flags):
        code = main(
            ["run", "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl"), *flags, "localhost:8000/v1"]
        )
        assert code == 1
        assert "http:// or https://" in capsys.readouterr().err


PROXY_VARIABLES = ["http_proxy", "https_proxy", "all_proxy", "no_proxy"]


@pytest.fixture
def proxy_env(monkeypatch):
    """No proxy setting but those a test makes, and the endpoint settings read afresh before and after."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    transport._environment_settings.cache_clear()
    yield monkeypatch
    transport._environment_settings.cache_clear()


class TestEnvironmentProxies:
    ENDPOINT = "http://scenealign.invalid/v1/chat/completions"

    def test_http_proxy_receives_the_absolute_form_path(self, mock_api, proxy_env):
        proxy_env.setenv("HTTP_PROXY", mock_api.url)
        # the request must go to the proxy: a direct one would look the host up
        assert transport._environment_settings(self.ENDPOINT)[0].get("http") == mock_api.url
        mock_api.handler = lambda payload: _chat_reply("1. A step.")
        generate_rationale("1. prompt", GeneratorConfig(kind="http-chat", endpoint=self.ENDPOINT))
        assert [r["path"] for r in mock_api.requests] == [self.ENDPOINT]

    def test_no_proxy_bypasses_the_proxy(self, mock_api, proxy_env):
        proxy = MockApi()
        try:
            proxy_env.setenv("HTTP_PROXY", proxy.url)
            proxy_env.setenv("NO_PROXY", "127.0.0.1")
            mock_api.handler = lambda payload: _chat_reply("1. A step.")
            generate_rationale("1. prompt", _chat_cfg(mock_api))
            assert proxy.requests == []
            assert [r["path"] for r in mock_api.requests] == ["/chat"]
        finally:
            proxy.close()

    def test_settings_are_read_once_per_endpoint(self, mock_api, proxy_env):
        mock_api.handler = lambda payload: _chat_reply("1. A step.")
        cfg = _chat_cfg(mock_api)
        generate_rationale("1. prompt", cfg)
        proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # read only by an endpoint not yet posted to
        generate_rationale("1. prompt", cfg)
        assert len(mock_api.requests) == 2
        assert transport._environment_settings.cache_info().misses == 1


class TestNonJsonReply:
    def test_embed_texts_raises_remote_error(self, mock_api):
        mock_api.handler = lambda payload: (200, NOT_JSON)
        with pytest.raises(RemoteError) as err:
            embed_texts(["hello"], _embed_cfg(mock_api))
        assert err.value.status == 200

    def test_generate_rationale_raises_remote_error(self, mock_api):
        mock_api.handler = lambda payload: (200, NOT_JSON)
        with pytest.raises(RemoteError) as err:
            generate_rationale("1. prompt", _chat_cfg(mock_api))
        assert err.value.status == 200

    def test_non_string_message_content_is_a_remote_error(self, mock_api):
        mock_api.handler = lambda payload: _chat_reply(None)
        with pytest.raises(RemoteError):
            generate_rationale("1. prompt", _chat_cfg(mock_api))

    def test_run_reports_the_instance_as_a_drop(self, mock_api, tmp_path, case_corpus_line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(case_corpus_line) + "\n", encoding="utf-8")
        mock_api.handler = lambda payload: (200, NOT_JSON)
        cfg = PipelineConfig(
            input_path=str(corpus),
            output_path=str(tmp_path / "out.jsonl"),
            embed=_embed_cfg(mock_api),
            # three candidates land in the band; with m=2 their distances decide, so they are embedded
            selection=SelectionConfig(m=2),
            workers=1,
        )
        report = run_pipeline(cfg)
        assert mock_api.requests, "the run never reached the embedding endpoint"
        assert report.drops == {"RemoteError": 1}
        assert report.instances == [{"id": "case-1", "drop": "RemoteError"}]
        assert report.records_written == 0
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""


class TestBearerHeader:
    def test_api_key_sent_on_the_chat_path(self, mock_api, monkeypatch):
        monkeypatch.setenv("SCENEALIGN_API_KEY", "sk-chat-456")
        mock_api.handler = lambda payload: _chat_reply("1. A step.")
        generate_rationale("1. prompt", _chat_cfg(mock_api))
        assert mock_api.requests[0]["headers"].get("Authorization") == "Bearer sk-chat-456"

    def test_no_key_no_header_on_the_chat_path(self, mock_api, monkeypatch):
        monkeypatch.delenv("SCENEALIGN_API_KEY", raising=False)
        mock_api.handler = lambda payload: _chat_reply("1. A step.")
        generate_rationale("1. prompt", _chat_cfg(mock_api))
        assert "Authorization" not in mock_api.requests[0]["headers"]
