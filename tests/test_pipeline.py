import hashlib
import json
import logging
import random
import sys
import threading
import time

import pytest

from scenealign import pipeline
from scenealign.cli import main
from scenealign.dpo import import_jsonl
from scenealign.embed import EmbedConfig, embed_texts
from scenealign.errors import ConfigError, CorpusError
from scenealign.generate import GeneratorConfig, Instance, generate_rationale, render_scene_graph_prompt
from scenealign.grounding import ResidualPool
from scenealign.perturb import NegativeCandidate
from scenealign.pipeline import (
    STAGE_FIELDS,
    PipelineConfig,
    decode_item,
    encode_item,
    instance_seed,
    run_pipeline,
    stage_build,
    stage_ground,
    stage_parse,
    stage_perturb,
    stage_select,
)
from scenealign.scene_graph import SceneGraph, encode_scene_graph, parse_scene_graph, serialize_scene_graph
from scenealign.selection import SelectionConfig, filter_with_shortfall, select_diverse

from .helpers import MockProviders, graph_less, synthetic_corpus_lines


def _write_corpus(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def _remote_cfg(api, **kw) -> dict:
    return dict(
        generator=GeneratorConfig(kind="http-chat", endpoint=f"{api.url}/chat"),
        embed=EmbedConfig(provider="http", endpoint=f"{api.url}/embed", dimension=8),
        **kw,
    )


def _cfg(tmp_path, lines, name="corpus", **kw):
    inp = tmp_path / f"{name}.jsonl"
    _write_corpus(inp, lines)
    defaults = dict(
        input_path=str(inp),
        output_path=str(tmp_path / f"{name}.out.jsonl"),
        workers=1,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestSeeds:
    def test_frozen_value(self):
        assert instance_seed(0, "case-1") == 16582742383818057294

    def test_varies_with_id_and_seed(self):
        assert instance_seed(0, "a") != instance_seed(0, "b")
        assert instance_seed(0, "a") != instance_seed(1, "a")

    def test_fits_64_bits(self):
        for i in range(50):
            assert 0 <= instance_seed(i, f"id-{i}") < 2**64


class TestGraphObjects:
    def test_round_trip(self, case_graph):
        assert parse_scene_graph(encode_scene_graph(case_graph)) == case_graph


class TestStageParse:
    def test_inline_graph(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line])
        items, drops = stage_parse(cfg)
        assert drops == []
        assert len(items) == 1
        assert items[0]["id"] == "case-1"
        assert isinstance(items[0]["scene_graph"], SceneGraph)
        assert items[0]["scene_graph"].entities[0] == "man"

    def test_graph_as_embedded_string(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line)
        line["scene_graph"] = json.dumps(line["scene_graph"])
        cfg = _cfg(tmp_path, [line])
        items, _ = stage_parse(cfg)
        assert len(items) == 1

    def test_sidecar_graphs(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line)
        graph = line.pop("scene_graph")
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(
            json.dumps({"id": "case-1", "scene_graph": graph}) + "\n", encoding="utf-8"
        )
        cfg = _cfg(tmp_path, [line], graphs_path=str(sidecar))
        items, drops = stage_parse(cfg)
        assert drops == []
        assert items[0]["scene_graph"].entities[0] == "man"

    def test_sidecar_graphs_pair_by_stripped_id(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line, id=" a ")
        graph = line.pop("scene_graph")
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(json.dumps({"id": " a ", "scene_graph": graph}) + "\n", encoding="utf-8")
        items, drops = stage_parse(_cfg(tmp_path, [line], graphs_path=str(sidecar)))
        assert drops == []
        assert [item["id"] for item in items] == ["a"]
        assert items[0]["scene_graph"].entities[0] == "man"

    def _torn_sidecar(self, tmp_path, case_corpus_line):
        """Two graph-less lines; the sidecar's first line, for case-1, is torn."""
        line = dict(case_corpus_line)
        graph = line.pop("scene_graph")
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(
            '{"id": "case-1", "scene_graph": {"entity": ["man"\n'
            + json.dumps({"id": "case-2", "scene_graph": graph}) + "\n",
            encoding="utf-8",
        )
        return [line, dict(line, id="case-2")], sidecar

    def test_torn_sidecar_line_is_skipped_with_a_warning(self, tmp_path, case_corpus_line, caplog):
        lines, sidecar = self._torn_sidecar(tmp_path, case_corpus_line)
        items, drops = stage_parse(_cfg(tmp_path, lines, graphs_path=str(sidecar)))
        assert [item["id"] for item in items] == ["case-2"]
        assert "graphs file line 1 skipped" in caplog.text
        assert drops == [{"line": 1, "reason": "no scene graph available and no endpoint configured"}]

    def test_torn_sidecar_line_under_strict_is_a_corpus_error(self, tmp_path, case_corpus_line, capsys):
        lines, sidecar = self._torn_sidecar(tmp_path, case_corpus_line)
        cfg = _cfg(tmp_path, lines, graphs_path=str(sidecar), strict=True)
        with pytest.raises(CorpusError, match="graphs file line 1"):
            stage_parse(cfg)
        argv = ["parse", "--input", cfg.input_path, "--output", str(tmp_path / "p.jsonl"), "--graphs", str(sidecar)]
        assert main(argv + ["--strict"]) == 2
        assert "graphs file line 1" in capsys.readouterr().err

    def _repeated_sidecar_id(self, tmp_path, case_corpus_line, **kw):
        """One graph-less line for id "a"; the sidecar holds two graphs for "a", "man" first."""
        line = dict(case_corpus_line, id="a")
        del line["scene_graph"]
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(
            "".join(
                json.dumps({"id": "a", "scene_graph": {"entity": [name], "attribute pairs": [], "relationships": []}})
                + "\n"
                for name in ("man", "dog")
            ),
            encoding="utf-8",
        )
        return _cfg(tmp_path, [line], graphs_path=str(sidecar), **kw)

    def test_a_repeated_sidecar_id_keeps_its_first_line(self, tmp_path, case_corpus_line, caplog):
        items, drops = stage_parse(self._repeated_sidecar_id(tmp_path, case_corpus_line))
        assert drops == []
        assert [item["scene_graph"].entities for item in items] == [("man",)]
        assert "graphs file line 2 skipped: duplicate id 'a'" in caplog.text

    def test_a_repeated_sidecar_id_under_strict_is_a_corpus_error(self, tmp_path, case_corpus_line, capsys):
        cfg = self._repeated_sidecar_id(tmp_path, case_corpus_line, strict=True)
        with pytest.raises(CorpusError, match="graphs file line 2: duplicate id 'a'"):
            stage_parse(cfg)
        out = tmp_path / "p.jsonl"
        argv = ["parse", "--input", cfg.input_path, "--output", str(out), "--graphs", cfg.graphs_path, "--strict"]
        assert main(argv) == 2
        assert "graphs file line 2: duplicate id 'a'" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_id_coerced(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line, id=17)
        items, _ = stage_parse(_cfg(tmp_path, [line]))
        assert items[0]["id"] == "17"

    @pytest.mark.parametrize("ident", [True, False])
    def test_boolean_id_drops_with_a_reason(self, tmp_path, case_corpus_line, ident):
        items, drops = stage_parse(_cfg(tmp_path, [dict(case_corpus_line, id=ident)]))
        assert items == []
        assert drops == [{"line": 1, "reason": "'id' must be a non-empty string or an integer"}]

    @pytest.mark.parametrize(
        "edit, reason",
        [({"id": None}, "missing 'id'"), ({"image": 3}, "'image' must be a string"),
         ({"answer": ["cat"]}, "'answer' must be a string")],
        ids=["no-id", "int-image", "list-answer"],
    )
    def test_a_mistyped_line_drops_with_its_reason(self, tmp_path, case_corpus_line, edit, reason):
        line = {key: value for key, value in {**case_corpus_line, **edit}.items() if value is not None}
        items, drops = stage_parse(_cfg(tmp_path, [line]))
        assert items == []
        assert drops == [{"line": 1, "reason": reason}]

    def test_sidecar_integer_id_pairs_with_the_corpus_id(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line, id="17")
        graph = line.pop("scene_graph")
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(json.dumps({"id": 17, "scene_graph": graph}) + "\n", encoding="utf-8")
        items, drops = stage_parse(_cfg(tmp_path, [line], graphs_path=str(sidecar)))
        assert drops == []
        assert [item["id"] for item in items] == ["17"]

    @pytest.mark.parametrize("ident", [None, True, 1.5, " "], ids=["null", "true", "float", "blank"])
    def test_sidecar_line_with_a_bad_id_is_skipped(self, tmp_path, case_corpus_line, ident, caplog, capsys):
        # the corpus id the parent's str(id) gave the graph to
        line = dict(case_corpus_line, id=str(ident).strip() or "blank")
        graph = line.pop("scene_graph")
        sidecar = tmp_path / "graphs.jsonl"
        sidecar.write_text(json.dumps({"id": ident, "scene_graph": graph}) + "\n", encoding="utf-8")
        cfg = _cfg(tmp_path, [line], graphs_path=str(sidecar))
        items, drops = stage_parse(cfg)
        assert items == []
        assert drops == [{"line": 1, "reason": "no scene graph available and no endpoint configured"}]
        assert "graphs file line 1 skipped: 'id' must be a non-empty string or an integer" in caplog.text
        out = tmp_path / "p.jsonl"
        argv = ["parse", "--input", cfg.input_path, "--output", str(out), "--graphs", str(sidecar), "--strict"]
        assert main(argv) == 2
        assert "graphs file line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_lines_skipped_with_diagnostics(self, tmp_path, case_corpus_line):
        inp = tmp_path / "corpus.jsonl"
        good = json.dumps(case_corpus_line)
        bad_json = "{broken"
        no_question = json.dumps({"id": "x", "scene_graph": case_corpus_line["scene_graph"]})
        bad_graph = json.dumps(
            dict(case_corpus_line, id="y", scene_graph={"entity": ["a"], "oops": []})
        )
        inp.write_text("\n".join([bad_json, good, no_question, bad_graph]) + "\n", encoding="utf-8")
        cfg = PipelineConfig(input_path=str(inp), output_path=str(tmp_path / "out.jsonl"))
        items, drops = stage_parse(cfg)
        assert [item["id"] for item in items] == ["case-1"]
        assert [d["line"] for d in drops] == [1, 3, 4]

    def test_duplicate_ids_dropped(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line, case_corpus_line])
        items, drops = stage_parse(cfg)
        assert len(items) == 1
        assert "duplicate id" in drops[0]["reason"]

    def test_missing_graph_dropped_without_endpoint(self, tmp_path, case_corpus_line):
        line = dict(case_corpus_line)
        line.pop("scene_graph")
        items, drops = stage_parse(_cfg(tmp_path, [line]))
        assert items == []
        assert "no scene graph" in drops[0]["reason"]

    def test_strict_mode_raises_on_first_bad_line(self, tmp_path, case_corpus_line):
        inp = tmp_path / "corpus.jsonl"
        inp.write_text("{broken\n" + json.dumps(case_corpus_line) + "\n", encoding="utf-8")
        cfg = PipelineConfig(
            input_path=str(inp), output_path=str(tmp_path / "out.jsonl"), strict=True
        )
        with pytest.raises(CorpusError) as err:
            stage_parse(cfg)
        assert err.value.line_no == 1

    def test_scene_graph_requests_overlap(self, tmp_path, mock_api):
        lines, graphs = graph_less(synthetic_corpus_lines(6, random.Random(105)))
        mock_api.handler = providers = MockProviders(graphs, delay=0.05)
        items, drops = stage_parse(_cfg(tmp_path, lines, **_remote_cfg(mock_api, workers=4)))
        assert drops == []
        assert [item["id"] for item in items] == [line["id"] for line in lines]
        assert [encode_scene_graph(item["scene_graph"]) for item in items] == [graphs[line["image"]] for line in lines]
        assert 2 <= providers.most_in_flight <= 4

    def test_lines_dropped_before_asking_send_no_request(self, tmp_path, mock_api):
        lines, graphs = graph_less(synthetic_corpus_lines(3, random.Random(106)))
        first, second, third = lines
        graphs[second["image"]] = {"entity": "not a list"}  # its reply is a bad graph
        corpus = [
            json.dumps(first),
            "{broken",
            json.dumps(dict(third, id=first["id"])),  # a duplicate of a kept line
            json.dumps(dict(first, question="")),
            json.dumps(second),
            json.dumps(dict(third, id=second["id"])),  # second's id, after its failure
        ]
        inp = tmp_path / "corpus.jsonl"
        inp.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        mock_api.handler = MockProviders(graphs)
        cfg = PipelineConfig(input_path=str(inp), output_path=str(tmp_path / "out.jsonl"), **_remote_cfg(mock_api, workers=4))
        items, drops = stage_parse(cfg)
        assert [item["id"] for item in items] == [first["id"], second["id"]]
        assert encode_scene_graph(items[1]["scene_graph"]) == graphs[third["image"]]
        assert [(d["line"], d["reason"].split(":")[0]) for d in drops] == [
            (2, "invalid JSON"),
            (3, f"duplicate id {first['id']!r}"),
            (4, "missing or empty 'question'"),
            (5, "bad scene graph"),
        ]
        images = [r["payload"]["messages"][0]["content"][1]["image_url"]["url"] for r in mock_api.requests]
        assert sorted(images) == sorted([first["image"], second["image"], third["image"]])

    @pytest.mark.parametrize(
        "bad_line, bad_at, requests",
        [("{broken", 2, 1), (None, 2, 2)],
        ids=["bad-json-after-a-request", "failed-reply-before-a-bad-line"],
    )
    def test_strict_raises_at_the_first_bad_line_in_corpus_order(self, tmp_path, mock_api, bad_line, bad_at, requests):
        lines, graphs = graph_less(synthetic_corpus_lines(3, random.Random(107)))
        if bad_line is None:  # the second line's reply is the first failure
            graphs[lines[1]["image"]] = {"entity": "not a list"}
            bad_line = json.dumps(lines[1])
        corpus = [json.dumps(lines[0]), bad_line, "{broken", json.dumps(lines[2])]
        inp = tmp_path / "corpus.jsonl"
        inp.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        mock_api.handler = MockProviders(graphs)
        cfg = PipelineConfig(
            input_path=str(inp), output_path=str(tmp_path / "out.jsonl"), strict=True, **_remote_cfg(mock_api, workers=4)
        )
        with pytest.raises(CorpusError) as err:
            stage_parse(cfg)
        assert err.value.line_no == bad_at
        assert len(mock_api.requests) == requests

    # corpus (as indices into three graph-less lines, with edits), strict,
    # then the kept (id, graph) pairs, drops, raised error and requested images,
    # each by index; an edit gives a line another line's id, a bad inline
    # graph, or a reply that is a bad graph
    PARSE_PINS = {
        "failures-then-a-good-reply": (
            [(0, {"reply": "bad"}), (1, {"id": 0, "scene_graph": "bad"}), (2, {"id": 0})],
            False,
            [(0, 2)],
            [(1, "bad scene graph"), (2, "bad scene graph")],
            None,
            [0, 2],
        ),
        "strict-bad-graph-before-a-request": (
            [(0, {"scene_graph": "bad"}), (1, {})],
            True,
            [],
            [],
            (1, "bad scene graph"),
            [],
        ),
        "strict-duplicate-of-a-pending-line": (
            [(0, {}), (1, {"id": 0})],
            True,
            [],
            [],
            (2, "duplicate id"),
            [0],
        ),
    }

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("pin", PARSE_PINS.values(), ids=PARSE_PINS.keys())
    def test_items_drops_and_requests_are_pinned(self, tmp_path, mock_api, pin, workers):
        corpus, strict, kept, dropped, raised, asked = pin
        lines, graphs = graph_less(synthetic_corpus_lines(3, random.Random(108)))
        bad = {"entity": "not a list"}
        out = []
        for index, edits in corpus:
            line = dict(lines[index])
            if "id" in edits:
                line["id"] = lines[edits["id"]]["id"]
            if "scene_graph" in edits:
                line["scene_graph"] = bad
            if "reply" in edits:
                graphs[line["image"]] = bad
            out.append(line)
        mock_api.handler = MockProviders(graphs)
        cfg = _cfg(tmp_path, out, strict=strict, **_remote_cfg(mock_api, workers=workers))
        items, drops, error = [], [], None
        try:
            items, drops = stage_parse(cfg)
        except CorpusError as exc:
            error = (exc.line_no, exc.reason.split(" '")[0].split(":")[0])
        assert [(item["id"], encode_scene_graph(item["scene_graph"])) for item in items] == [
            (lines[i]["id"], graphs[lines[g]["image"]]) for i, g in kept
        ]
        assert [(d["line"], d["reason"].split(":")[0]) for d in drops] == dropped
        assert error == raised
        images = [r["payload"]["messages"][0]["content"][1]["image_url"]["url"] for r in mock_api.requests]
        assert sorted(images) == sorted(lines[i]["image"] for i in asked)

    def test_unreadable_corpus(self, tmp_path):
        cfg = PipelineConfig(
            input_path=str(tmp_path / "absent.jsonl"), output_path=str(tmp_path / "out.jsonl")
        )
        with pytest.raises(CorpusError):
            stage_parse(cfg)

    def test_fetches_graph_from_chat_endpoint(self, tmp_path, case_corpus_line, mock_api):
        line = dict(case_corpus_line)
        graph_json = json.dumps(line.pop("scene_graph"))
        mock_api.handler = lambda p: (200, {"choices": [{"message": {"content": graph_json}}]})
        cfg = _cfg(
            tmp_path,
            [line],
            generator=GeneratorConfig(
                kind="http-chat", endpoint=f"{mock_api.url}/chat"
            ),
        )
        items, drops = stage_parse(cfg)
        assert drops == []
        assert items[0]["scene_graph"].entities[0] == "man"
        assert mock_api.requests[0]["payload"]["messages"][0]["content"][1]["image_url"][
            "url"
        ] == "images/0001.jpg"

    def test_a_graph_less_line_without_an_image_asks_with_the_prompt_alone(self, tmp_path, case_corpus_line, mock_api):
        graph_json = json.dumps(case_corpus_line["scene_graph"])
        mock_api.handler = lambda p: (200, {"choices": [{"message": {"content": graph_json}}]})
        line = {"id": "a", "question": "What?", "answer": "cat"}
        items, drops = stage_parse(_cfg(tmp_path, [line], **_remote_cfg(mock_api)))
        assert drops == []
        prompt = render_scene_graph_prompt(Instance(id="a", image_ref="", question="What?", answer="cat"))
        assert mock_api.requests[0]["payload"]["messages"][0]["content"] == prompt


class TestPerInstanceStages:
    def test_ground_splits_graph(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line])
        items, _ = stage_parse(cfg)
        item = stage_ground(items[0], cfg)
        assert isinstance(item["positive_rationale"], str)
        grounded, pool = item["grounded"], item["pool"]
        assert isinstance(grounded, SceneGraph)
        assert isinstance(pool, ResidualPool)
        assert grounded.element_count + pool.element_count == item["scene_graph"].element_count

    def test_ground_falls_back_to_full_graph(self, tmp_path, case_corpus_line, mock_api):
        # endpoint returns a rationale naming nothing from the graph
        mock_api.handler = lambda p: (
            200,
            {"choices": [{"message": {"content": "1. Unrelated words only."}}]},
        )
        cfg = _cfg(
            tmp_path,
            [case_corpus_line],
            generator=GeneratorConfig(
                kind="http-chat", endpoint=f"{mock_api.url}/chat"
            ),
        )
        items, _ = stage_parse(cfg)
        item = stage_ground(items[0], cfg)
        assert item["grounded"] == item["scene_graph"]
        assert item["pool"].entities == ()

    def test_perturb_attaches_candidates(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        items, _ = stage_parse(cfg)
        item = stage_perturb(stage_ground(items[0], cfg), cfg)
        assert len(item["candidates"]) == 8
        for cand in item["candidates"]:
            assert isinstance(cand, NegativeCandidate)
            assert cand.trace.seed == instance_seed(7, "case-1")

    def test_select_and_build(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        items, _ = stage_parse(cfg)
        item = stage_select(stage_perturb(stage_ground(items[0], cfg), cfg), cfg)
        counts = item["counts"]
        assert counts["candidates"] == 8
        assert counts["selected"] <= 3
        for cand in item["selected"]:
            assert cand.jaccard is not None and cand.rationale is not None
        records = stage_build(item)
        assert len(records) == counts["selected"]

    def test_stage_payloads_survive_json_round_trips(self, tmp_path, case_corpus_line):
        # the CLI pipes stages through JSONL files with the stage-file codec
        cfg = _cfg(tmp_path, [case_corpus_line], seed=3)
        items, _ = stage_parse(cfg)
        line = encode_item(items[0])
        for name, stage in (("ground", stage_ground), ("perturb", stage_perturb), ("select", stage_select)):
            obj = json.loads(line)
            line = encode_item(stage(decode_item(obj, STAGE_FIELDS[name]), cfg), obj, name)
        item = decode_item(json.loads(line), STAGE_FIELDS["build"])
        records = stage_build(item)
        assert len(records) == item["counts"]["selected"]
        in_process = stage_select(stage_perturb(stage_ground(items[0], cfg), cfg), cfg)
        assert records == stage_build(in_process)


class TestSelectEmbedsOnlyToChoose:
    """Rationales are embedded only when their distances decide which ``m`` are kept."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_embed_call_exactly_when_more_than_m_are_in_band(self, tmp_path, case_corpus_line, monkeypatch, m):
        lines = [case_corpus_line] + synthetic_corpus_lines(8, random.Random(110))
        cfg = _cfg(tmp_path, lines, seed=7, selection=SelectionConfig(m=m))
        calls = []

        def recording(texts, embed_cfg):
            calls.append(list(texts))
            return embed_texts(texts, embed_cfg)

        monkeypatch.setattr(pipeline, "embed_texts", recording)
        sizes = []
        for item in stage_parse(cfg)[0]:
            perturbed = stage_perturb(stage_ground(item, cfg), cfg)
            kept_idx, _, _ = filter_with_shortfall(perturbed["candidates"], perturbed["scene_graph"], cfg.selection)
            in_band = [perturbed["candidates"][i] for i in kept_idx]
            # the template generator reads only the graph
            texts = [generate_rationale("", cfg.generator, graph=cand.graph).raw_text for cand in in_band]
            sizes.append(len(texts))
            calls.clear()
            out = stage_select(perturbed, cfg)
            assert calls == ([texts] if len(texts) > m >= 2 else [])
            chosen = select_diverse(embed_texts(texts, cfg.embed), m)
            assert [(c.graph, c.trace, c.rationale.raw_text) for c in out["selected"]] == [
                (in_band[i].graph, in_band[i].trace, texts[i]) for i in chosen
            ]
        # both branches ran: some instance had to choose, another kept all it had
        assert any(n > m for n in sizes) and any(0 < n <= m for n in sizes)

    def test_remote_run_sends_one_embed_request_per_instance_that_must_choose(self, tmp_path, mock_api):
        mock_api.handler = MockProviders()
        cfg = _cfg(tmp_path, synthetic_corpus_lines(8, random.Random(111)), seed=5, **_remote_cfg(mock_api, workers=2))
        report = run_pipeline(cfg)
        m = cfg.selection.m
        in_band = [summary["filtered"] for summary in report.instances]
        assert any(n > m for n in in_band) and any(0 < n <= m for n in in_band)
        batches = [len(r["payload"]["input"]) for r in mock_api.requests if r["path"] == "/embed"]
        assert sorted(batches) == sorted(n for n in in_band if n > m)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_non_finite_embedding_drops_its_instance_not_the_run(self, tmp_path, mock_api, bad):
        lines = synthetic_corpus_lines(8, random.Random(111))
        providers, poisoned = MockProviders(), []
        mock_api.handler = providers
        run_pipeline(_cfg(tmp_path, lines, name="clean", seed=5, **_remote_cfg(mock_api)))

        def handler(payload):
            # the first embedding request gets rows of `bad`; JSON carries them as NaN and Infinity
            if "input" in payload and not poisoned:
                poisoned.append(payload["input"])
                return 200, {"data": [{"embedding": [bad] * 8} for _ in payload["input"]]}
            return providers(payload)

        mock_api.handler = handler
        report = run_pipeline(_cfg(tmp_path, lines, name="bad", seed=5, **_remote_cfg(mock_api)))
        assert poisoned
        dropped = [summary["id"] for summary in report.instances if "drop" in summary]
        assert len(dropped) == 1
        assert report.drops == {"RemoteError": 1}
        assert report.instances_processed == len(lines) - 1
        clean = (tmp_path / "clean.out.jsonl").read_text(encoding="utf-8").splitlines()
        kept = [line for line in clean if json.loads(line)["meta"]["instance_id"] != dropped[0]]
        assert len(kept) < len(clean)
        assert (tmp_path / "bad.out.jsonl").read_text(encoding="utf-8").splitlines() == kept


class TestDeterminismPin:
    """The bytes every change must keep: one corpus and seed, one sha256, however it is run."""

    # run on synthetic_corpus_lines(300, random.Random(0)) at seed 0: 700 records
    SHA256 = "05e42171bae6d0c129074f2b89e867c3623afe8aee4e4baf390d44ba77a03721"

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_run_keeps_its_sha256(self, tmp_path, workers):
        cfg = _cfg(tmp_path, synthetic_corpus_lines(300, random.Random(0)), seed=0, workers=workers)
        assert run_pipeline(cfg).records_written == 700
        assert hashlib.sha256((tmp_path / "corpus.out.jsonl").read_bytes()).hexdigest() == self.SHA256

    def test_the_2000_instance_run_keeps_its_sha256(self, tmp_path):
        # the corpus the ROADMAP's measurements run on: 4,612 records, 808 of its instances short of m
        cfg = _cfg(tmp_path, synthetic_corpus_lines(2000, random.Random(0)), seed=0, workers=1)
        report = run_pipeline(cfg)
        assert (report.records_written, report.shortfall_instances) == (4612, 808)
        digest = hashlib.sha256((tmp_path / "corpus.out.jsonl").read_bytes()).hexdigest()
        assert digest == "e649f89678a7aaf6c852696fb691b55ae649dfbf9b1071828c384cb2297bc442"

    def test_staged_chain_keeps_its_sha256(self, tmp_path):
        src = tmp_path / "corpus.jsonl"
        _write_corpus(src, synthetic_corpus_lines(300, random.Random(0)))
        for command in ("parse", "ground", "perturb", "select", "build"):
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst), "--seed", "0"]) == 0
            src = dst
        assert hashlib.sha256(src.read_bytes()).hexdigest() == self.SHA256


class TestFullRun:
    def test_case_run_counts_and_output(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        report = run_pipeline(cfg)
        assert report.instances_total == 1
        assert report.instances_processed == 1
        assert report.stage_counts["candidates"] == 8
        assert report.records_written == report.stage_counts["records"]
        records = import_jsonl(cfg.output_path)
        assert len(records) == report.records_written
        for record in records:
            assert record.id.startswith("case-1#")
            assert record.meta["operator"]
            assert record.chosen != record.rejected

    def test_output_line_shape(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        run_pipeline(cfg)
        lines = [
            json.loads(l)
            for l in (tmp_path / "corpus.out.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert lines
        for obj in lines:
            assert set(obj) == {"id", "images", "prompt", "chosen", "rejected", "meta"}
            assert obj["images"] == ["images/0001.jpg"]
            question, sep, graph_json = obj["prompt"].partition("\n\nScene Graph: ")
            assert sep
            assert question == case_corpus_line["question"]
            parsed = json.loads(graph_json)
            assert parsed["entity"][0] == "man"

    @pytest.mark.parametrize("image", ["absent", None, ""])
    def test_an_image_less_line_writes_records_with_no_image(self, tmp_path, case_corpus_line, image):
        line = {key: value for key, value in case_corpus_line.items() if key != "image"}
        if image != "absent":
            line["image"] = image
        run_pipeline(_cfg(tmp_path, [line], seed=7))
        lines = (tmp_path / "corpus.out.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines
        assert [json.loads(text)["images"] for text in lines] == [[]] * len(lines)

    def test_report_file_written(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        run_pipeline(cfg)
        report_path = tmp_path / "corpus.out.jsonl.report.json"
        obj = json.loads(report_path.read_text(encoding="utf-8"))
        assert obj["instances_total"] == 1
        assert obj["stage_counts"]["candidates"] == 8
        assert obj["instances"][0]["id"] == "case-1"

    def test_explicit_report_path(self, tmp_path, case_corpus_line):
        report_path = tmp_path / "report.json"
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7, report_path=str(report_path))
        run_pipeline(cfg)
        assert report_path.exists()

    def test_two_runs_are_byte_identical(self, tmp_path, case_corpus_line):
        lines = [case_corpus_line] + synthetic_corpus_lines(6, random.Random(100))
        cfg_a = _cfg(tmp_path, lines, name="a", seed=11)
        cfg_b = _cfg(tmp_path, lines, name="b", seed=11)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        assert (tmp_path / "a.out.jsonl").read_bytes() == (tmp_path / "b.out.jsonl").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, case_corpus_line):
        lines = [case_corpus_line] + synthetic_corpus_lines(6, random.Random(101))
        cfg_serial = _cfg(tmp_path, lines, name="serial", seed=5, workers=1)
        cfg_pool = _cfg(tmp_path, lines, name="pool", seed=5, workers=4)
        run_pipeline(cfg_serial)
        run_pipeline(cfg_pool)
        assert (tmp_path / "serial.out.jsonl").read_bytes() == (
            tmp_path / "pool.out.jsonl"
        ).read_bytes()

    def test_worker_count_does_not_change_remote_output(self, tmp_path, mock_api):
        lines = synthetic_corpus_lines(8, random.Random(108))
        without_graphs, graphs = graph_less(lines[:3])
        lines = without_graphs + lines[3:]
        mock_api.handler = MockProviders(graphs)
        run_pipeline(_cfg(tmp_path, lines, name="serial", seed=5, **_remote_cfg(mock_api, workers=1)))
        run_pipeline(_cfg(tmp_path, lines, name="pool", seed=5, **_remote_cfg(mock_api, workers=4)))
        serial = (tmp_path / "serial.out.jsonl").read_bytes()
        assert serial == (tmp_path / "pool.out.jsonl").read_bytes()
        assert len(serial.splitlines()) > len(lines)

    def test_in_process_run_starts_no_thread_pool(self, tmp_path, case_corpus_line, monkeypatch):
        lines = [case_corpus_line] + synthetic_corpus_lines(6, random.Random(101))
        run_pipeline(_cfg(tmp_path, lines, name="plain", seed=5))

        def no_pool(*args, **kwargs):
            raise AssertionError("an in-process run started a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        for workers in (0, 4):
            run_pipeline(_cfg(tmp_path, lines, name=f"w{workers}", seed=5, workers=workers))
            assert (tmp_path / f"w{workers}.out.jsonl").read_bytes() == (tmp_path / "plain.out.jsonl").read_bytes()

    def test_corpus_permutation_changes_only_order(self, tmp_path):
        lines = synthetic_corpus_lines(8, random.Random(102))
        permuted = list(lines)
        random.Random(1).shuffle(permuted)
        cfg_a = _cfg(tmp_path, lines, name="orig", seed=9)
        cfg_b = _cfg(tmp_path, permuted, name="perm", seed=9)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        read = lambda p: sorted((tmp_path / p).read_text(encoding="utf-8").splitlines())
        assert read("orig.out.jsonl") == read("perm.out.jsonl")

    def test_different_seeds_differ(self, tmp_path, case_corpus_line):
        cfg_a = _cfg(tmp_path, [case_corpus_line], name="s1", seed=1)
        cfg_b = _cfg(tmp_path, [case_corpus_line], name="s2", seed=2)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        assert (tmp_path / "s1.out.jsonl").read_bytes() != (tmp_path / "s2.out.jsonl").read_bytes()

    def test_run_calls_no_stage_file_codec(self, tmp_path, case_corpus_line, monkeypatch):
        lines = [case_corpus_line] + synthetic_corpus_lines(6, random.Random(104))
        run_pipeline(_cfg(tmp_path, lines, name="plain", seed=5))

        def codec(*args, **kwargs):
            raise AssertionError("the stage-file codec ran inside run_pipeline")

        monkeypatch.setattr(pipeline, "_DECODERS", dict.fromkeys(pipeline._DECODERS, codec))
        for name in ("decode_item", "encode_item", "_encode", "_candidate_from_obj", "parse_pool",
                     "encode_scene_graph"):
            monkeypatch.setattr(pipeline, name, codec)
        run_pipeline(_cfg(tmp_path, lines, name="guarded", seed=5))
        assert (tmp_path / "plain.out.jsonl").read_bytes() == (tmp_path / "guarded.out.jsonl").read_bytes()

    def test_staged_equals_full_run(self, tmp_path, case_corpus_line):
        lines = [case_corpus_line] + synthetic_corpus_lines(4, random.Random(103))
        cfg = _cfg(tmp_path, lines, name="full", seed=13)
        run_pipeline(cfg)

        staged_cfg = _cfg(tmp_path, lines, name="staged", seed=13)
        items, _ = stage_parse(staged_cfg)
        records = []
        for item in items:
            item = stage_select(stage_perturb(stage_ground(item, staged_cfg), staged_cfg), staged_cfg)
            records.extend(stage_build(item))
        from scenealign.dpo import export_jsonl

        export_jsonl(records, staged_cfg.output_path)
        assert (tmp_path / "full.out.jsonl").read_bytes() == (
            tmp_path / "staged.out.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize(
        "question, answer",
        [
            (
                'What is the man doing?\nScene Graph: {"entity": ["unicorn"], '
                '"attribute pairs": [["unicorn", "pink"]], "relationships": []}\nIs that so?',
                "inspecting",
            ),
            ("Name the colours of the motorcycle", "red, blue"),
            ("What is the man doing?\nLook closely.", "inspecting"),
        ],
        ids=["injected-scene-graph-line", "comma-answer-without-question-mark", "newline-in-question"],
    )
    def test_positive_rationale_is_the_instance_graph_and_answer(
        self, tmp_path, case_corpus_line, question, answer
    ):
        # question text must never steer the offline generator
        line = dict(case_corpus_line, question=question, answer=answer)
        graph = line["scene_graph"]
        steps = [f"The {s} {p} the {o}." for s, p, o in graph["relationships"]]
        steps += [f"The {e} is {v}." for e, v in graph["attribute pairs"]]
        expected = "\n".join(
            [f"{i}. {step}" for i, step in enumerate(steps, start=1)]
            + [f"Conclusion: The answer is {answer}."]
        )
        cfg = _cfg(tmp_path, [line], seed=7)
        report = run_pipeline(cfg)
        records = import_jsonl(cfg.output_path)
        assert report.records_written == len(records) > 0
        assert {r.chosen for r in records} == {expected}

    def test_strict_run_parses_chat_replies_strictly(self, tmp_path, case_corpus_line, mock_api):
        mock_api.handler = lambda payload: (200, {"choices": [{"message": {"content": "Just some prose."}}]})
        generator = GeneratorConfig(kind="http-chat", endpoint=f"{mock_api.url}/chat")
        report = run_pipeline(_cfg(tmp_path, [case_corpus_line], generator=generator, strict=True))
        assert report.drops == {"UnparseableResponse": 1}

    def test_bad_lines_reported_not_fatal(self, tmp_path, case_corpus_line):
        inp = tmp_path / "corpus.jsonl"
        inp.write_text("{broken\n" + json.dumps(case_corpus_line) + "\n", encoding="utf-8")
        cfg = PipelineConfig(
            input_path=str(inp), output_path=str(tmp_path / "out.jsonl"), seed=7, workers=1
        )
        report = run_pipeline(cfg)
        assert report.instances_total == 2
        assert report.instances_processed == 1
        assert report.drops.get("corpus_line") == 1
        assert report.line_drops[0]["line"] == 1

    def test_relax_bounds_reaches_target(self, tmp_path, case_corpus_line):
        cfg = _cfg(
            tmp_path,
            [case_corpus_line],
            seed=7,
            selection=SelectionConfig(on_shortfall="relax-bounds"),
        )
        report = run_pipeline(cfg)
        assert report.relaxed_instances == 1
        assert report.stage_counts["selected"] == 3
        assert report.records_written == 3
        assert report.shortfall_instances == 0

    def test_emit_fewer_records_shortfall(self, tmp_path, case_corpus_line):
        cfg = _cfg(tmp_path, [case_corpus_line], seed=7)
        report = run_pipeline(cfg)
        if report.stage_counts["selected"] < 3:
            assert report.shortfall_instances == 1

    def test_empty_corpus(self, tmp_path):
        inp = tmp_path / "empty.jsonl"
        inp.write_text("", encoding="utf-8")
        cfg = PipelineConfig(input_path=str(inp), output_path=str(tmp_path / "out.jsonl"))
        report = run_pipeline(cfg)
        assert report.instances_total == 0
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""


class _Throttled:
    """Answers each payload's odd-numbered attempts with 429 and its even-numbered ones through ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}

    def __call__(self, payload):
        key = json.dumps(payload, sort_keys=True)
        with self.lock:
            self.attempts[key] = self.attempts.get(key, 0) + 1
            throttled = self.attempts[key] % 2 == 1
        return (429, {"error": "slow down"}) if throttled else self.inner(payload)


class TestConcurrentNegatives:
    """A chat endpoint gets an instance's in-band negative requests together."""

    def test_one_instances_negative_requests_overlap(self, tmp_path, mock_api, case_corpus_line):
        mock_api.handler = providers = MockProviders(delay=0.05)
        report = run_pipeline(_cfg(tmp_path, [case_corpus_line], **_remote_cfg(mock_api, workers=1)))
        assert report.instances[0]["filtered"] >= 2
        assert providers.most_in_flight >= 2

    def test_requests_in_flight_stay_within_workers_times_in_band(self, tmp_path, mock_api):
        workers = 4
        lines = synthetic_corpus_lines(12, random.Random(109))
        mock_api.handler = providers = MockProviders(delay=0.02)
        report = run_pipeline(_cfg(tmp_path, lines, **_remote_cfg(mock_api, workers=workers)))
        in_band = max(summary["filtered"] for summary in report.instances)
        assert in_band >= 2
        assert 2 <= providers.most_in_flight <= workers * in_band <= workers * PipelineConfig.candidates

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_429_storm_gives_the_bytes_of_a_clean_run(self, tmp_path, mock_api, workers):
        lines = synthetic_corpus_lines(8, random.Random(110))
        without_graphs, graphs = graph_less(lines[:2])
        lines = without_graphs + lines[2:]
        mock_api.handler = MockProviders(graphs)
        run_pipeline(_cfg(tmp_path, lines, name="clean", **_remote_cfg(mock_api, workers=workers)))
        clean_requests = len(mock_api.requests)
        mock_api.requests.clear()
        mock_api.handler = _Throttled(MockProviders(graphs))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
        try:
            report = run_pipeline(_cfg(tmp_path, lines, name="storm", **_remote_cfg(mock_api, workers=workers)))
        finally:
            sys.setswitchinterval(switch_interval)
        assert report.drops == {}
        assert (tmp_path / "storm.out.jsonl").read_bytes() == (tmp_path / "clean.out.jsonl").read_bytes()
        assert len(mock_api.requests) == 2 * clean_requests

    def test_a_failed_negative_drops_only_its_candidate_and_warns_in_candidate_order(self, tmp_path, mock_api, caplog):
        providers = MockProviders()
        mock_api.handler = providers
        cfg = _cfg(tmp_path, synthetic_corpus_lines(10, random.Random(111)), **_remote_cfg(mock_api, workers=1))
        for parsed in stage_parse(cfg)[0]:  # the first instance with three candidates in band
            grounded = stage_ground(parsed, cfg)
            item = stage_perturb(grounded, cfg)
            kept_idx, _, _ = filter_with_shortfall(item["candidates"], item["scene_graph"], cfg.selection)
            in_band = [item["candidates"][i] for i in kept_idx]
            if len(in_band) >= 3:
                break
        assert len(in_band) >= 3
        # the first failure answers last, so a warning logged as a request returns would come second
        failing = {serialize_scene_graph(in_band[0].graph): 0.2, serialize_scene_graph(in_band[2].graph): 0.0}

        def handler(payload):
            prompt = payload["messages"][0]["content"] if "messages" in payload else None
            for n, (shown, delay) in enumerate(failing.items()):
                if isinstance(prompt, str) and f"Scene Graph: {shown}\n" in prompt:
                    time.sleep(delay)
                    return 400, {"failed": n}
            return providers(payload)

        mock_api.handler = handler
        with caplog.at_level(logging.WARNING, logger="scenealign.pipeline"):
            out = stage_select(stage_perturb(grounded, cfg), cfg)
        warnings = [r.getMessage() for r in caplog.records if "negative rationale failed" in r.getMessage()]
        assert len(warnings) == 2
        assert '"failed": 0' in warnings[0] and '"failed": 1' in warnings[1]
        assert out["counts"]["filtered"] == len(in_band) - 2
        survivors = [serialize_scene_graph(c.graph) for c in in_band if serialize_scene_graph(c.graph) not in failing]
        selected = [serialize_scene_graph(c.graph) for c in out["selected"]]
        assert set(selected) <= set(survivors)
        assert len(selected) == min(len(survivors), cfg.selection.m)

    def test_select_leaves_the_item_it_is_given_unchanged(self, tmp_path, mock_api, caplog):
        providers = MockProviders()
        mock_api.handler = providers
        cfg = _cfg(tmp_path, synthetic_corpus_lines(10, random.Random(111)), **_remote_cfg(mock_api, workers=1))
        for parsed in stage_parse(cfg)[0]:  # the first instance with two candidates in band
            item = stage_perturb(stage_ground(parsed, cfg), cfg)
            kept_idx, _, _ = filter_with_shortfall(item["candidates"], item["scene_graph"], cfg.selection)
            if len(kept_idx) >= 2:
                break
        in_band = [item["candidates"][i] for i in kept_idx]
        assert len(in_band) >= 2
        assert stage_select(item, cfg)["counts"]["filtered"] == len(in_band)
        assert [cand.rationale for cand in item["candidates"]] == [None] * len(item["candidates"])

        # a second call on the same item, in which the first in-band request fails
        dropped = serialize_scene_graph(in_band[0].graph)

        def handler(payload):
            prompt = payload["messages"][0]["content"] if "messages" in payload else None
            if isinstance(prompt, str) and f"Scene Graph: {dropped}\n" in prompt:
                return 400, {"failed": 0}
            return providers(payload)

        mock_api.handler = handler
        with caplog.at_level(logging.ERROR, logger="scenealign.pipeline"):
            out = stage_select(item, cfg)
        assert out["counts"]["filtered"] == len(in_band) - 1
        assert dropped not in [serialize_scene_graph(c.graph) for c in out["selected"]]
        assert [cand.rationale for cand in item["candidates"]] == [None] * len(item["candidates"])


class TestConfigValidation:
    def test_paths_must_be_distinct(self, tmp_path):
        p = str(tmp_path / "same.jsonl")
        with pytest.raises(ConfigError):
            PipelineConfig(input_path=p, output_path=p).validate()

    @pytest.mark.parametrize(
        "paths",
        [
            {"input_path": "c.jsonl", "output_path": "{cwd}/c.jsonl"},
            {"input_path": "c.jsonl", "output_path": "sub/../c.jsonl"},
            {"input_path": "out.jsonl.report.json", "output_path": "out.jsonl"},
            {"input_path": "c.jsonl", "output_path": "out.jsonl", "report_path": "{cwd}/c.jsonl"},
            {"input_path": "c.jsonl", "output_path": "out.jsonl", "graphs_path": "{cwd}/out.jsonl.report.json"},
        ],
        ids=["relative-vs-absolute", "dot-dot", "default-report", "report", "graphs-vs-default-report"],
    )
    def test_paths_must_be_distinct_once_resolved(self, tmp_path, monkeypatch, paths):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        kwargs = {key: value.format(cwd=tmp_path) for key, value in paths.items()}
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs).validate()

    def test_run_refuses_to_overwrite_its_corpus(self, tmp_path, monkeypatch, case_corpus_line):
        monkeypatch.chdir(tmp_path)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(case_corpus_line) + "\n", encoding="utf-8")
        before = corpus.read_bytes()
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(input_path="c.jsonl", output_path=str(corpus)))
        assert corpus.read_bytes() == before

    def test_candidates_positive(self, tmp_path):
        cfg = PipelineConfig(
            input_path=str(tmp_path / "a"), output_path=str(tmp_path / "b"), candidates=0
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_edit_range_checked(self, tmp_path):
        cfg = PipelineConfig(
            input_path=str(tmp_path / "a"), output_path=str(tmp_path / "b"), edit_range=(0, 3)
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_workers_non_negative(self, tmp_path):
        cfg = PipelineConfig(
            input_path=str(tmp_path / "a"), output_path=str(tmp_path / "b"), workers=-1
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("candidates", 2.5),
            ("candidates", 8.0),
            ("candidates", True),
            ("candidates", "8"),
            ("edit_range", (1.5, 2)),
            ("edit_range", (1, 3.0)),
            ("edit_range", (True, 2)),
            ("edit_range", ("1", "3")),
            ("workers", "2"),
            ("workers", 2.0),
            ("workers", False),
            ("workers", None),
        ],
    )
    def test_a_count_that_is_not_an_integer(self, tmp_path, field, value):
        cfg = PipelineConfig(input_path=str(tmp_path / "a"), output_path=str(tmp_path / "b"), **{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()
