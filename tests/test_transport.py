"""The HTTP transport both remote providers share: one retry policy, one error mapping."""

import json

import pytest

from scenealign.embed import EmbedConfig, embed_texts
from scenealign.errors import RemoteError
from scenealign.generate import GeneratorConfig, generate_rationale
from scenealign.pipeline import PipelineConfig, run_pipeline
from scenealign.selection import SelectionConfig
from scenealign.transport import CHAT_TIMEOUT_S, post_json

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
