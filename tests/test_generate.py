import dataclasses
import json

import pytest

from scenealign.errors import ConfigError, MissingAnswer, RemoteError, UnparseableResponse
from scenealign.generate import (
    GeneratorConfig,
    Instance,
    generate_rationale,
    generate_scene_graph_json,
    render_negative_cot_prompt,
    render_positive_cot_prompt,
    render_scene_graph_prompt,
)
from scenealign.perturb import apply_operator, recompose
from scenealign.scene_graph import parse_scene_graph, serialize_scene_graph

from .helpers import _golden


class TestPromptRendering:
    def test_scene_graph_prompt_matches_golden(self, case_instance):
        assert render_scene_graph_prompt(case_instance) == _golden("scene_graph_prompt.txt")

    def test_positive_prompt_matches_golden(self, case_graph, case_instance):
        rendered = render_positive_cot_prompt(case_graph, case_instance)
        assert rendered == _golden("positive_cot_prompt.txt")

    def test_negative_prompt_matches_golden(self, case_subgraph, case_pool, case_instance):
        negative = recompose(apply_operator(case_subgraph, case_pool, "swap", index=0)[0], case_pool)
        rendered = render_negative_cot_prompt(negative, case_instance)
        assert rendered == _golden("negative_cot_prompt.txt")

    def test_negative_prompt_carries_no_answer(self, case_graph, case_instance):
        rendered = render_negative_cot_prompt(case_graph, case_instance)
        assert case_instance.answer not in rendered
        assert f"{case_instance.question}, " not in rendered
        assert "image" not in rendered.casefold()

    def test_positive_prompt_carries_answer_and_image_wording(self, case_graph, case_instance):
        rendered = render_positive_cot_prompt(case_graph, case_instance)
        assert f"Question: {case_instance.question}, {case_instance.answer}" in rendered
        assert "image" in rendered

    def test_prompts_end_without_newline(self, case_graph, case_instance):
        assert render_scene_graph_prompt(case_instance).endswith("Scene Graph:")
        assert render_positive_cot_prompt(case_graph, case_instance).endswith(
            "Step-by-step reasoning:"
        )
        assert render_negative_cot_prompt(case_graph, case_instance).endswith(
            "Step-by-step reasoning:"
        )

    def test_missing_answer_rejected_where_required(self, case_graph):
        inst = Instance(id="x", image_ref="img.jpg", question="What?", answer=None)
        with pytest.raises(MissingAnswer):
            render_scene_graph_prompt(inst)
        with pytest.raises(MissingAnswer):
            render_positive_cot_prompt(case_graph, inst)
        # the negative prompt never needs one
        render_negative_cot_prompt(case_graph, inst)


class TestTemplateGenerator:
    def test_positive_rationale_linearizes_graph(self, case_graph, case_instance):
        prompt = render_positive_cot_prompt(case_graph, case_instance)
        r = generate_rationale(prompt, graph=case_graph, answer=case_instance.answer)
        assert r.steps[0] == "The man look at the motorcycle."
        assert len(r.steps) == len(case_graph.relations) + len(case_graph.attributes)
        assert r.conclusion == "The answer is inspecting."

    def test_negative_rationale_has_no_answer(self, case_graph, case_instance):
        prompt = render_negative_cot_prompt(case_graph, case_instance)
        r = generate_rationale(prompt, graph=case_graph)
        assert "inspecting" not in r.raw_text
        assert r.conclusion == "The scene is as described."

    def test_deterministic(self, case_graph, case_instance):
        prompt = render_positive_cot_prompt(case_graph, case_instance)
        assert generate_rationale(
            prompt, graph=case_graph, answer=case_instance.answer
        ) == generate_rationale(prompt, graph=case_graph, answer=case_instance.answer)

    def test_every_relation_and_attribute_is_mentioned(self, case_graph, case_instance):
        prompt = render_positive_cot_prompt(case_graph, case_instance)
        r = generate_rationale(prompt, graph=case_graph, answer=case_instance.answer)
        for s, p, o in case_graph.relations:
            assert f"The {s} {p} the {o}." in r.steps
        for e, v in case_graph.attributes:
            assert f"The {e} is {v}." in r.steps

    def test_comma_in_question_does_not_leak_into_answer(self, case_graph):
        inst = Instance(
            id="q", image_ref="i.jpg", question="Is it red, blue, or green?", answer="green"
        )
        prompt = render_positive_cot_prompt(case_graph, inst)
        r = generate_rationale(prompt, graph=case_graph, answer=inst.answer)
        assert r.conclusion == "The answer is green."

    def test_relationless_graph_still_yields_steps(self, case_instance):
        g = parse_scene_graph('{"entity": ["man"], "attribute pairs": [], "relationships": []}')
        prompt = render_positive_cot_prompt(g, case_instance)
        r = generate_rationale(prompt, graph=g, answer=case_instance.answer)
        assert r.steps == ("The scene shows the man.",)

    def test_template_without_graph_is_a_config_error(self, case_graph, case_instance):
        prompt = render_positive_cot_prompt(case_graph, case_instance)
        with pytest.raises(ConfigError):
            generate_rationale(prompt, answer=case_instance.answer)


class TestGeneratorConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(kind="offline")

    @pytest.mark.parametrize("kind", ["template", "http-chat"])
    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_temperature_must_be_finite(self, kind, temperature):
        with pytest.raises(ConfigError, match="temperature must be a finite number"):
            GeneratorConfig(kind=kind, endpoint="http://127.0.0.1:9/v1/chat", temperature=temperature)

    @pytest.mark.parametrize("temperature", ["0.5", True, False, None, 1j])
    def test_temperature_must_be_a_number(self, temperature):
        with pytest.raises(ConfigError, match="temperature must be a finite number"):
            GeneratorConfig(temperature=temperature)

    @pytest.mark.parametrize("temperature", [0, 1, 0.7, 10**400])
    def test_temperature_may_be_any_finite_int_or_float(self, temperature):
        assert GeneratorConfig(temperature=temperature).temperature == temperature

    def test_http_chat_requires_endpoint(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(kind="http-chat")

    def test_scene_graph_generation_requires_http(self, case_instance):
        with pytest.raises(ConfigError):
            generate_scene_graph_json(case_instance, GeneratorConfig())


class TestHttpChatGenerator:
    def _cfg(self, api, **kw):
        defaults = dict(
            kind="http-chat",
            endpoint=f"{api.url}/chat",
            model="reasoner-1",
        )
        defaults.update(kw)
        return GeneratorConfig(**defaults)

    @staticmethod
    def _reply(text):
        return 200, {"choices": [{"message": {"content": text}}]}

    def test_round_trip_and_wire_shape(self, mock_api, case_graph, case_instance):
        mock_api.handler = lambda p: self._reply("1. A step.\nConclusion: fine.")
        prompt = render_positive_cot_prompt(case_graph, case_instance)
        r = generate_rationale(prompt, self._cfg(mock_api))
        assert r.steps == ("A step.",)
        payload = mock_api.requests[0]["payload"]
        assert payload["model"] == "reasoner-1"
        assert payload["temperature"] == 0.0
        assert payload["messages"][0]["role"] == "user"
        assert payload["messages"][0]["content"] == prompt

    def test_attachment_becomes_image_part(self, mock_api, case_instance):
        mock_api.handler = lambda p: self._reply("1. Looks fine.")
        generate_rationale("1. prompt", self._cfg(mock_api), attachment="images/0001.jpg")
        content = mock_api.requests[0]["payload"]["messages"][0]["content"]
        assert content[0] == {"type": "text", "text": "1. prompt"}
        assert content[1]["type"] == "image_url"
        assert content[1]["image_url"]["url"] == "images/0001.jpg"

    def test_lenient_parse_of_freeform_reply(self, mock_api):
        mock_api.handler = lambda p: self._reply("Just some prose.")
        r = generate_rationale("anything", self._cfg(mock_api))
        assert r.steps == ("Just some prose.",)

    def test_strict_parse_raises(self, mock_api):
        mock_api.handler = lambda p: self._reply("Just some prose.")
        with pytest.raises(UnparseableResponse):
            generate_rationale("anything", self._cfg(mock_api), strict=True)

    def test_bad_reply_shape(self, mock_api):
        mock_api.handler = lambda p: (200, {"choices": []})
        with pytest.raises(RemoteError):
            generate_rationale("anything", self._cfg(mock_api))

    def test_retry_then_success(self, mock_api):
        state = {"n": 0}

        def handler(payload):
            state["n"] += 1
            if state["n"] == 1:
                return 500, {"error": "flaky"}
            return self._reply("1. Recovered.")

        mock_api.handler = handler
        r = generate_rationale("anything", self._cfg(mock_api))
        assert r.steps == ("Recovered.",)
        assert state["n"] == 2

    def test_cache_avoids_second_request(self, mock_api, tmp_path):
        mock_api.handler = lambda p: self._reply("1. Cached step.")
        cfg = self._cfg(mock_api, cache_dir=str(tmp_path))
        a = generate_rationale("same prompt", cfg)
        b = generate_rationale("same prompt", cfg)
        assert a == b
        assert len(mock_api.requests) == 1
        assert list(tmp_path.glob("*.json"))

    def test_cache_keyed_by_prompt_and_model(self, mock_api, tmp_path):
        mock_api.handler = lambda p: self._reply("1. Fresh.")
        cfg = self._cfg(mock_api, cache_dir=str(tmp_path))
        generate_rationale("prompt one", cfg)
        generate_rationale("prompt two", cfg)
        other_model = self._cfg(mock_api, cache_dir=str(tmp_path), model="reasoner-2")
        generate_rationale("prompt one", other_model)
        assert len(mock_api.requests) == 3

    def test_scene_graph_generation_posts_image(self, mock_api, case_instance, case_graph):
        graph_json = serialize_scene_graph(case_graph)
        mock_api.handler = lambda p: self._reply(graph_json)
        out = generate_scene_graph_json(case_instance, self._cfg(mock_api))
        assert parse_scene_graph(out) == case_graph
        content = mock_api.requests[0]["payload"]["messages"][0]["content"]
        assert content[1]["image_url"]["url"] == case_instance.image_ref
        assert content[0]["text"].endswith("Scene Graph:")


class TestResponseCache:
    @staticmethod
    def _cfg(api, cache_dir):
        return GeneratorConfig(
            kind="http-chat", endpoint=f"{api.url}/chat", model="reasoner-1", cache_dir=str(cache_dir)
        )

    @staticmethod
    def _reply(text):
        return 200, {"choices": [{"message": {"content": text}}]}

    @pytest.mark.parametrize(
        "garbage",
        [b'{"content": "1. Torn', b"\xff\xfe\x00", b"[1, 2]", b'{"content": 7}', b""],
        ids=["torn", "not-utf8", "not-object", "non-string-content", "empty"],
    )
    def test_unreadable_entry_is_a_miss_and_is_overwritten(self, mock_api, tmp_path, garbage):
        cfg = self._cfg(mock_api, tmp_path)
        mock_api.handler = lambda p: self._reply("1. Fresh step.")
        generate_rationale("same prompt", cfg)
        (entry,) = tmp_path.iterdir()
        entry.write_bytes(garbage)
        mock_api.requests.clear()

        r = generate_rationale("same prompt", cfg)
        assert r.steps == ("Fresh step.",)
        assert len(mock_api.requests) == 1
        assert json.loads(entry.read_text(encoding="utf-8")) == {"content": "1. Fresh step."}
        assert list(tmp_path.iterdir()) == [entry]  # no temp file left behind

    def test_an_entry_keeps_its_file_name(self, mock_api, tmp_path):
        # the sha256 of the sorted-key JSON of prompt, model, temperature and image:
        # a cache written by an earlier version stays valid only while this name holds
        mock_api.handler = lambda p: self._reply("1. Cached step.")
        generate_rationale("same prompt", self._cfg(mock_api, tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == [
            "d8c11a967a1c63cd5460b4e9e65ad950f5f63d3d2634006fed68b351b0ce1824.json"
        ]

    def test_cache_key_includes_the_image(self, mock_api, tmp_path, case_instance):
        graphs = {
            "images/a.jpg": {"entity": ["cat"], "attribute pairs": [], "relationships": []},
            "images/b.jpg": {"entity": ["dog"], "attribute pairs": [], "relationships": []},
        }

        def handler(payload):
            url = payload["messages"][0]["content"][1]["image_url"]["url"]
            return self._reply(json.dumps(graphs[url]))

        mock_api.handler = handler
        cfg = self._cfg(mock_api, tmp_path)
        out = {
            image: generate_scene_graph_json(dataclasses.replace(case_instance, image_ref=image), cfg)
            for image in graphs
        }
        assert len(mock_api.requests) == 2
        assert {image: json.loads(text) for image, text in out.items()} == graphs


def test_concurrent_cache_writers_and_readers_never_see_a_torn_entry(mock_api, tmp_path):
    import sys
    import threading

    mock_api.handler = lambda p: (200, {"choices": [{"message": {"content": "1. Shared step."}}]})
    cfg = GeneratorConfig(
        kind="http-chat", endpoint=f"{mock_api.url}/chat", model="m", cache_dir=str(tmp_path)
    )
    errors: list[Exception] = []
    results: list[tuple] = []

    def worker():
        try:
            for _ in range(10):
                results.append(generate_rationale("one prompt for all threads", cfg).steps)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [("Shared step.",)] * 80
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
