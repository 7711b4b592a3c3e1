import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scenealign import cli, pipeline
from scenealign.cli import _pipeline_config, build_parser, main
from scenealign.pipeline import STAGE_FIELDS, PipelineConfig, run_pipeline

from .conftest import CASE_SUBGRAPH_OBJ
from .helpers import synthetic_corpus_lines

REPO_ROOT = Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    """This process's environment with the repository's ``src`` first on PYTHONPATH."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p)}


def _write_corpus(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


@pytest.fixture
def corpus(tmp_path, case_corpus_line):
    path = tmp_path / "corpus.jsonl"
    _write_corpus(path, [case_corpus_line])
    return path


@pytest.fixture
def sub_graph_file(tmp_path):
    path = tmp_path / "subgraph.json"
    path.write_text(json.dumps(CASE_SUBGRAPH_OBJ), encoding="utf-8")
    return path


@pytest.fixture
def pool_file(tmp_path):
    path = tmp_path / "pool.json"
    pool = {
        "entity": ["building", "window", "car"],
        "attribute pairs": [["building", "white"], ["window", "glass"], ["car", "parked"]],
        "relationships": [["building", "behind", "motorcycle"], ["car", "behind", "motorcycle"]],
    }
    path.write_text(json.dumps(pool), encoding="utf-8")
    return path


class TestRun:
    def test_successful_run(self, tmp_path, corpus, capsys):
        out = tmp_path / "out.jsonl"
        code = main(["run", "--input", str(corpus), "--output", str(out), "--seed", "7"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "record(s) from 1/1 instance(s)" in stdout
        assert out.exists()
        assert (tmp_path / "out.jsonl.report.json").exists()

    def test_flags_reach_the_pipeline(self, tmp_path, corpus, capsys):
        out = tmp_path / "out.jsonl"
        report = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--output", str(out),
                "--seed", "7",
                "--gamma-lower", "0.0",
                "--gamma-upper", "1.0",
                "--num-negatives", "2",
                "--candidates", "6",
                "--edits", "1..2",
                "--report", str(report),
                "--workers", "1",
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text(encoding="utf-8"))
        assert obj["stage_counts"]["candidates"] == 6
        assert obj["stage_counts"]["selected"] == 2

    def test_missing_corpus_is_a_corpus_error(self, tmp_path, capsys):
        code = main(
            ["run", "--input", str(tmp_path / "nope.jsonl"), "--output", str(tmp_path / "o.jsonl")]
        )
        assert code == 2
        assert "corpus error" in capsys.readouterr().err

    def test_unwritable_output_is_an_io_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "out.jsonl"
        code = main(["run", "--input", str(corpus), "--output", str(out)])
        assert code == 3
        assert "io error" in capsys.readouterr().err

    def test_identical_paths_are_a_config_error(self, corpus, capsys):
        code = main(["run", "--input", str(corpus), "--output", str(corpus)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_band_is_a_config_error(self, tmp_path, corpus, capsys):
        code = main(
            [
                "run",
                "--input", str(corpus),
                "--output", str(tmp_path / "o.jsonl"),
                "--gamma-lower", "0.9",
                "--gamma-upper", "0.1",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_temperature_json_cannot_carry_is_a_config_error(self, tmp_path, corpus, mock_api, capsys, value):
        out = tmp_path / "o.jsonl"
        argv = ["run", "--input", str(corpus), "--output", str(out), "--generator", "http",
                "--endpoint", f"{mock_api.url}/v1/chat", "--model", "m", "--temperature", value]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert mock_api.requests == []
        assert not out.exists()

    def test_bad_edits_value_is_a_config_error(self, tmp_path, corpus, capsys):
        code = main(
            ["run", "--input", str(corpus), "--output", str(tmp_path / "o.jsonl"), "--edits", "x"]
        )
        assert code == 1

    def test_strict_aborts_on_bad_line(self, tmp_path, case_corpus_line, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{broken\n" + json.dumps(case_corpus_line) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(path), "--output", str(out)]) == 0
        assert main(["run", "--input", str(path), "--output", str(out), "--strict"]) == 2

    def test_shortfall_is_named_only_under_verbose(self, tmp_path, corpus):
        # logging is configured by main, so the run goes through a fresh interpreter;
        # 9 negatives wanted from 8 candidates is a shortfall whatever the band keeps
        env = _src_env()
        argv = [sys.executable, "-m", "scenealign.cli", "run", "--input", str(corpus), "--output", "out.jsonl"]
        stderr = {}
        for flags in ([], ["--verbose"]):
            proc = subprocess.run(
                [*argv, "--num-negatives", "9", *flags], capture_output=True, text=True, cwd=tmp_path, env=env
            )
            assert proc.returncode == 0, proc.stderr
            stderr[bool(flags)] = proc.stderr
        assert "shortfall" not in stderr[False]
        assert any("shortfall" in line and "'case-1'" in line for line in stderr[True].splitlines())

    def test_a_quiet_call_after_a_verbose_one_logs_no_info(self, tmp_path, corpus):
        # one fresh interpreter, so the second call meets the log handler the first one added
        script = (
            "import sys\n"
            "from scenealign.cli import main\n"
            "main([*sys.argv[1:], '--verbose'])\n"
            "print('-- quiet --', file=sys.stderr, flush=True)\n"
            "main(sys.argv[1:])\n"
        )
        argv = ["run", "--input", str(corpus), "--output", "out.jsonl", "--num-negatives", "9"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=tmp_path, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        verbose, quiet = proc.stderr.split("-- quiet --\n")
        assert "INFO" in verbose
        assert "INFO" not in quiet


def _help_flags(command, capsys) -> list[str]:
    """The options ``command --help`` lists, in order."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    # an option line of --help starts with two spaces; "-h, --help" is not matched
    return re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["run", "--input", "a", "--output", "b", "--frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--input", "a"]) == 1

    def test_help_lists_subcommands(self):
        text = build_parser().format_help()
        for name in ("run", "parse", "ground", "perturb", "edit", "select", "build", "dpo-check", "stats"):
            assert name in text

    EDIT_FLAGS = {"--op", "--graph", "--pool", "--kind", "--index", "--replacement", "--element", "--seed", "--verbose"}

    def test_perturb_and_edit_each_list_only_their_own_flags(self, capsys):
        flags = {command: set(_help_flags(command, capsys)) for command in ("perturb", "edit")}
        assert flags["edit"] == self.EDIT_FLAGS
        assert not flags["perturb"] & (self.EDIT_FLAGS - {"--seed", "--verbose"})
        assert {"--input", "--output", "--candidates", "--edits"} <= flags["perturb"]
        assert "--graphs" not in flags["perturb"]

    COMMON_FLAGS = ["--input", "--output", "--seed", "--strict", "--verbose"]
    CHAT_FLAGS = ["--generator", "--endpoint", "--model", "--temperature", "--cache-dir"]
    COMMAND_FLAGS = {
        "run": COMMON_FLAGS + [
            "--graphs", "--report", "--workers", "--candidates", "--edits",
            "--gamma-lower", "--gamma-upper", "--num-negatives", "--relax-bounds", *CHAT_FLAGS,
            "--embed", "--embed-endpoint", "--embed-model", "--embed-dim",
        ],
        "parse": COMMON_FLAGS + ["--graphs", "--workers", *CHAT_FLAGS],
        "ground": COMMON_FLAGS + CHAT_FLAGS,
        "perturb": COMMON_FLAGS + ["--candidates", "--edits"],
        "select": COMMON_FLAGS + [
            "--gamma-lower", "--gamma-upper", "--num-negatives", "--relax-bounds", *CHAT_FLAGS,
            "--embed", "--embed-endpoint", "--embed-model", "--embed-dim",
        ],
        "build": COMMON_FLAGS,
        "dpo-check": ["--input", "--verbose"],
        "stats": ["--input", "--num-negatives", "--verbose"],
    }

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_run_and_each_stage_list_their_flags_in_order(self, command, capsys):
        assert _help_flags(command, capsys) == self.COMMAND_FLAGS[command]

    @pytest.mark.parametrize(
        "argv",
        [
            # --graph is not perturb's --graphs spelled short: the stage must not run
            ["perturb", "--input", "{input}", "--output", "{output}", "--kind", "entity", "--index", "99",
             "--graph", "nonexistent.json"],
            ["perturb", "--input", "{input}", "--output", "{output}", "--cand", "3"],
            ["edit", "--op", "swap", "--graph", "{graph}", "--index", "0", "--candidates", "3"],
            # ground reads no report, no graphs file and no worker count
            ["ground", "--input", "{input}", "--output", "{output}", "--report", "{report}",
             "--graphs", "nothing.jsonl", "--workers", "7"],
            ["parse", "--input", "{input}", "--output", "{output}", "--report", "{report}"],
            ["select", "--input", "{input}", "--output", "{output}", "--candidates", "3"],
            ["perturb", "--input", "{input}", "--output", "{output}", "--generator", "http"],
        ],
        ids=["perturb-with-edit-flags", "perturb-abbreviated-flag", "edit-with-a-stage-flag",
             "ground-with-run-flags", "parse-with-report", "select-with-candidates", "perturb-with-generator"],
    )
    def test_flags_must_be_spelled_out_and_belong_to_the_subcommand(self, tmp_path, sub_graph_file, argv, capsys):
        src, out, report = tmp_path / "grounded.jsonl", tmp_path / "perturbed.jsonl", tmp_path / "r.json"
        src.write_text("", encoding="utf-8")
        paths = {"input": src, "output": out, "graph": sub_graph_file, "report": report}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments" in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert not report.exists()

    # the Key flags table of the README: | `--flag` ... | default | `cmd`, `cmd`, ... | meaning |
    README_ROW = re.compile(r"^\| ((?:`--[a-z-]+`(?: / )?)+) \| [^|]+ \| ((?:`[a-z]+`(?:, )?)+) \|", re.M)

    def test_readme_flag_table_names_the_commands_that_take_each_flag(self, capsys):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        rows = self.README_ROW.findall(readme)
        assert len(rows) >= 10
        taken = {command: _help_flags(command, capsys) for command in self.COMMAND_FLAGS}
        for flags, commands in rows:
            for flag in re.findall(r"`(--[a-z-]+)`", flags):
                taking = [command for command, listed in taken.items() if flag in listed]
                assert re.findall(r"`([a-z]+)`", commands) == taking, flag

    # the subcommand list of the README: "scenealign NAME  HELP", one line each
    README_COMMAND = re.compile(r"^scenealign ([a-z-]+) +(\S.*)$", re.M)

    def test_readme_command_list_quotes_each_subcommand_help(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        listed = self.README_COMMAND.findall(readme.split("## CLI\n", 1)[1].split("```")[1])
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert dict(listed) == {action.dest: action.help for action in subparsers._choices_actions}
        assert len(listed) == len(subparsers._choices_actions)


class TestStagedChain:
    def test_stage_subcommands_reproduce_run_byte_for_byte(self, tmp_path, corpus, capsys):
        seed = ["--seed", "13"]
        parsed = tmp_path / "parsed.jsonl"
        grounded = tmp_path / "grounded.jsonl"
        perturbed = tmp_path / "perturbed.jsonl"
        selected = tmp_path / "selected.jsonl"
        built = tmp_path / "built.jsonl"
        ran = tmp_path / "ran.jsonl"
        assert main(["parse", "--input", str(corpus), "--output", str(parsed), *seed]) == 0
        assert main(["ground", "--input", str(parsed), "--output", str(grounded), *seed]) == 0
        assert main(["perturb", "--input", str(grounded), "--output", str(perturbed), *seed]) == 0
        assert main(["select", "--input", str(perturbed), "--output", str(selected), *seed]) == 0
        assert main(["build", "--input", str(selected), "--output", str(built)]) == 0
        assert main(["run", "--input", str(corpus), "--output", str(ran), *seed]) == 0
        assert built.read_bytes() == ran.read_bytes()

    def test_strict_chain_drops_an_instance_as_run_does(self, tmp_path, case_corpus_line, capsys):
        lines = [dict(case_corpus_line, id=f"case-{i}") for i in range(3)]
        del lines[1]["answer"]  # run --strict drops it as MissingAnswer and goes on
        corpus = tmp_path / "corpus.jsonl"
        _write_corpus(corpus, lines)
        strict = ["--seed", "5", "--strict"]
        src = corpus
        for command in ("parse", "ground", "perturb", "select", "build"):
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst), *strict]) == 0, command
            src = dst
        ran = tmp_path / "ran.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(ran), *strict]) == 0
        assert src.read_bytes() == ran.read_bytes()
        assert {json.loads(line)["meta"]["instance_id"] for line in ran.read_text().splitlines()} == {"case-0", "case-2"}

    @pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
    def test_a_unicode_line_break_in_a_question_stays_in_its_line(self, tmp_path, capsys, char, ensure_ascii):
        # json.dumps(ensure_ascii=False) writes these raw in every stage file and in the dataset
        lines = synthetic_corpus_lines(3, random.Random(1))
        lines[1]["question"] += char
        lines[2]["question"] = char + lines[2]["question"]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(line, ensure_ascii=ensure_ascii) + "\n" for line in lines), encoding="utf-8")
        src = corpus
        for command in ("parse", "ground", "perturb", "select", "build"):
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst)]) == 0, command
            src = dst
        ran = tmp_path / "ran.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(ran)]) == 0
        assert src.read_bytes() == ran.read_bytes()
        capsys.readouterr()
        assert main(["stats", "--input", str(ran)]) == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 3

    # sha256 of each stage file the chain writes from the corpus fixture at seed 13
    STAGE_FILE_SHA256 = {
        "parse": "28cb19c2ca1d7d37449d4476050d3e2e4c76237f611a85204a102876ca3ab9f7",
        "ground": "168062035d16a159235c2df117fedf7f6e54a670e2a3436af7219740ff5a019f",
        "perturb": "e527b7cc0a17821807e281c9585c5f2a6c48476d0004a9dc0e3da7acb1d6f332",
        "select": "d8f96c853342c291051064d9fd2e2069ab6721b253d3cd5fcce3cf506a28f3a3",
    }

    def test_stage_files_keep_their_bytes(self, tmp_path, corpus, capsys):
        src = corpus
        for command, digest in self.STAGE_FILE_SHA256.items():
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst), "--seed", "13"]) == 0
            assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest, command
            src = dst

    def test_an_integer_id_is_written_back_as_parse_writes_it(self, tmp_path, case_corpus_line, capsys):
        corpus, parsed, grounded = tmp_path / "corpus.jsonl", tmp_path / "parse.jsonl", tmp_path / "ground.jsonl"
        _write_corpus(corpus, [dict(case_corpus_line, id=7)])
        assert main(["parse", "--input", str(corpus), "--output", str(parsed)]) == 0
        assert main(["ground", "--input", str(parsed), "--output", str(grounded)]) == 0
        line = json.loads(grounded.read_text(encoding="utf-8"))
        assert line["id"] == "7"
        outputs = []
        for ident in ("7", 7):
            src, dst = tmp_path / f"in-{ident!r}.jsonl", tmp_path / f"out-{ident!r}.jsonl"
            _write_corpus(src, [dict(line, id=ident)])
            assert main(["perturb", "--input", str(src), "--output", str(dst)]) == 0
            outputs.append(dst.read_bytes())
        assert json.loads(outputs[1])["id"] == "7"
        assert outputs[1] == outputs[0]

    def test_a_stage_file_keeps_what_later_stages_read_and_leaves_out_what_only_its_stage_read(self, tmp_path):
        src = tmp_path / "corpus.jsonl"
        _write_corpus(src, synthetic_corpus_lines(3, random.Random(2)))
        keys = {}  # the key set of each line of each stage file
        for command in ("parse", "ground", "perturb", "select"):
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst)]) == 0
            keys[command] = [set(json.loads(line)) for line in dst.read_text(encoding="utf-8").split("\n") if line]
            assert len(keys[command]) == 3, command
            src = dst
        chain = list(STAGE_FIELDS)
        assert chain == ["ground", "perturb", "select", "build"]
        only_read_here = {}
        for i, stage in enumerate(chain):
            before = keys[(["parse"] + chain)[i]]
            assert all(set(STAGE_FIELDS[stage]) <= line for line in before), f"{stage}'s input lacks a field it reads"
            if stage == "build":  # writes the dataset, not a stage file
                break
            later = set().union(*(STAGE_FIELDS[s] for s in chain[i + 1 :]))
            only_read_here[stage] = set(STAGE_FIELDS[stage]) - later
            for line_in, line_out in zip(before, keys[stage]):
                assert line_in & later <= line_out, f"{stage} dropped a field a later stage reads"
                assert not only_read_here[stage] & line_out, f"{stage} kept a field no later stage reads"
        assert only_read_here == {"ground": set(), "perturb": {"grounded", "pool"}, "select": {"candidates"}}


def _writing(output) -> bool:
    """Whether a temporary file for ``output`` is open beside it."""
    return any(p.name.startswith(f".{output.name}.") for p in output.parent.iterdir())


class TestStreamedWritesStayAtomic:
    """A command that fails after it wrote good lines leaves an earlier output as it was, and no temporary file."""

    EARLIER = "an earlier output\n"

    def _stage_file(self, tmp_path, commands, count):
        src = tmp_path / "corpus.jsonl"
        _write_corpus(src, synthetic_corpus_lines(count, random.Random(5)))
        for command in commands:
            dst = tmp_path / f"{command}.jsonl"
            assert main([command, "--input", str(src), "--output", str(dst)]) == 0
            src = dst
        return src

    def _watch(self, monkeypatch, module, name, output, fail_at=None) -> list[bool]:
        """Rebind ``module.name`` to record, per call, whether ``output`` was being written."""
        real, seen = getattr(module, name), []

        def watched(*args, **kwargs):
            seen.append(_writing(output))
            if len(seen) == fail_at:
                raise RuntimeError("a fault that is not the corpus's")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, watched)
        return seen

    def _assert_untouched(self, tmp_path, *outputs):
        for output in outputs:
            assert output.read_text(encoding="utf-8") == self.EARLIER
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []

    def test_select_strict_meeting_a_torn_line_after_good_lines(self, tmp_path, monkeypatch, capsys):
        src = self._stage_file(tmp_path, ("parse", "ground", "perturb"), 3)
        src.write_text(src.read_text(encoding="utf-8") + TestStagedWrongInput.TORN + "\n", encoding="utf-8")
        out = tmp_path / "selected.jsonl"
        out.write_text(self.EARLIER, encoding="utf-8")
        seen = self._watch(monkeypatch, cli, "stage_select", out)
        capsys.readouterr()
        assert main(["select", "--input", str(src), "--output", str(out), "--strict"]) == 2
        assert "corpus error: corpus line 4: invalid JSON" in capsys.readouterr().err
        assert seen == [True] * 3
        self._assert_untouched(tmp_path, out)

    def test_ground_meeting_a_byte_that_is_not_utf8_after_good_lines(self, tmp_path, monkeypatch, capsys):
        # more than one 8 KiB read of good lines, so that some are grounded before the decoder fails
        src = self._stage_file(tmp_path, ("parse",), 40)
        assert src.stat().st_size > 8192
        src.write_bytes(src.read_bytes() + b"\xff\n")
        out = tmp_path / "grounded.jsonl"
        out.write_text(self.EARLIER, encoding="utf-8")
        seen = self._watch(monkeypatch, cli, "stage_ground", out)
        capsys.readouterr()
        assert main(["ground", "--input", str(src), "--output", str(out)]) == 2
        assert "corpus error: corpus: cannot read input" in capsys.readouterr().err
        assert seen and all(seen)
        self._assert_untouched(tmp_path, out)

    def test_run_whose_instance_raises_another_error_at_the_third_instance(self, tmp_path, monkeypatch):
        src = tmp_path / "corpus.jsonl"
        _write_corpus(src, synthetic_corpus_lines(5, random.Random(5)))
        out, report = tmp_path / "out.jsonl", tmp_path / "out.jsonl.report.json"
        for path in (out, report):
            path.write_text(self.EARLIER, encoding="utf-8")
        seen = self._watch(monkeypatch, pipeline, "_process_item", out, fail_at=3)
        with pytest.raises(RuntimeError, match="not the corpus's"):
            run_pipeline(PipelineConfig(str(src), str(out), workers=1))
        assert seen == [True] * 3
        self._assert_untouched(tmp_path, out, report)


class TestStageValidation:
    """A stage subcommand checks its configuration as ``run`` does, before it reads a line."""

    STAGES = ("parse", "ground", "perturb", "select", "build")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("parse", ["--output", "{input}"]),
            ("ground", ["--output", "{input}"]),
            ("perturb", ["--candidates", "0"]),
            ("perturb", ["--edits", "3..1"]),
            ("perturb", ["--output", "{input}"]),
            ("select", ["--output", "{input}"]),
            ("build", ["--output", "{input}"]),
        ],
        ids=["parse-onto-input", "ground-onto-input", "perturb-no-candidates", "perturb-reversed-edits",
             "perturb-onto-input", "select-onto-input", "build-onto-input"],
    )
    def test_bad_configuration_exits_1_and_leaves_the_input(self, tmp_path, corpus, capsys, command, flags):
        src = corpus
        for stage in self.STAGES[: self.STAGES.index(command)]:  # the file the command reads
            dst = tmp_path / f"{stage}.jsonl"
            assert main([stage, "--input", str(src), "--output", str(dst)]) == 0
            src = dst
        before = src.read_bytes()
        out = tmp_path / "out.jsonl"
        argv = [command, "--input", str(src), "--output", str(out), *(f.format(input=src) for f in flags)]
        capsys.readouterr()
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert src.read_bytes() == before
        assert not out.exists()


class TestConfigFlags:
    """Each field of the run's configuration is set by a ``run`` flag; none is reachable only from code."""

    # (config class, field) -> (flags, the value they set); a nested config counts through its own fields
    FIELD_FLAGS = {
        ("PipelineConfig", "input_path"): (["--input", "c.jsonl"], "c.jsonl"),
        ("PipelineConfig", "output_path"): (["--output", "d.jsonl"], "d.jsonl"),
        ("PipelineConfig", "graphs_path"): (["--graphs", "g.jsonl"], "g.jsonl"),
        ("PipelineConfig", "report_path"): (["--report", "r.json"], "r.json"),
        ("PipelineConfig", "seed"): (["--seed", "3"], 3),
        ("PipelineConfig", "candidates"): (["--candidates", "5"], 5),
        ("PipelineConfig", "edit_range"): (["--edits", "2..4"], (2, 4)),
        ("PipelineConfig", "selection"): ([], None),
        ("PipelineConfig", "generator"): ([], None),
        ("PipelineConfig", "embed"): ([], None),
        ("PipelineConfig", "workers"): (["--workers", "2"], 2),
        ("PipelineConfig", "strict"): (["--strict"], True),
        ("GeneratorConfig", "kind"): (["--generator", "http"], "http-chat"),
        ("GeneratorConfig", "endpoint"): (["--endpoint", "http://127.0.0.1:9/chat"], "http://127.0.0.1:9/chat"),
        ("GeneratorConfig", "model"): (["--model", "m1"], "m1"),
        ("GeneratorConfig", "temperature"): (["--temperature", "0.5"], 0.5),
        ("GeneratorConfig", "cache_dir"): (["--cache-dir", "cache"], "cache"),
        ("EmbedConfig", "provider"): (["--embed", "http"], "http"),
        ("EmbedConfig", "dimension"): (["--embed-dim", "8"], 8),
        ("EmbedConfig", "endpoint"): (["--embed-endpoint", "http://127.0.0.1:9/embed"], "http://127.0.0.1:9/embed"),
        ("EmbedConfig", "model"): (["--embed-model", "e1"], "e1"),
        ("SelectionConfig", "gamma_lower"): (["--gamma-lower", "0.2"], 0.2),
        ("SelectionConfig", "gamma_upper"): (["--gamma-upper", "0.8"], 0.8),
        ("SelectionConfig", "m"): (["--num-negatives", "2"], 2),
        ("SelectionConfig", "on_shortfall"): (["--relax-bounds"], "relax-bounds"),
    }

    def test_every_config_field_has_a_run_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run"] + [flag for flags, _ in self.FIELD_FLAGS.values() for flag in flags]
        cfg = _pipeline_config(build_parser().parse_args(argv))
        for obj in (cfg, cfg.generator, cfg.embed, cfg.selection):
            name = type(obj).__name__
            for field in dataclasses.fields(obj):
                assert (name, field.name) in self.FIELD_FLAGS, f"{name}.{field.name} has no flag"
                expected = self.FIELD_FLAGS[name, field.name][1]
                if expected is not None:
                    assert getattr(obj, field.name) == expected, f"{name}.{field.name}"
                    assert expected != field.default, f"{name}.{field.name} is left at its default"

    def test_a_single_edit_count_is_a_range_of_one(self):
        cfg = _pipeline_config(build_parser().parse_args(["run", "--input", "c", "--output", "d", "--edits", "2"]))
        assert cfg.edit_range == (2, 2)


class TestStagedWrongInput:
    """A stage fed another stage's output reports the missing key, never a traceback."""

    def _parsed(self, tmp_path, corpus):
        parsed = tmp_path / "parsed.jsonl"
        assert main(["parse", "--input", str(corpus), "--output", str(parsed)]) == 0
        return parsed

    def test_instance_skipped_with_a_warning_naming_the_key(self, tmp_path, corpus, capsys, caplog):
        out = tmp_path / "perturbed.jsonl"
        assert main(["perturb", "--input", str(self._parsed(tmp_path, corpus)), "--output", str(out)]) == 0
        assert "perturbed 0/1 instance(s)" in capsys.readouterr().out
        assert "'grounded'" in caplog.text
        assert out.read_text(encoding="utf-8") == ""

    def test_strict_is_a_corpus_error(self, tmp_path, corpus, capsys):
        argv = ["perturb", "--input", str(self._parsed(tmp_path, corpus)), "--output", str(tmp_path / "p.jsonl")]
        assert main(argv + ["--strict"]) == 2
        assert "'grounded'" in capsys.readouterr().err

    _GRAPH = {"entity": ["man"], "attribute pairs": [], "relationships": []}
    WRONG_TYPES = [
        ("perturb", [1, 2], "line 1"),
        ("perturb", {"id": "a", "scene_graph": 5, "grounded": {}, "pool": {}}, "'scene_graph'"),
        (
            "perturb",
            {"id": "a", "scene_graph": _GRAPH, "grounded": dict(_GRAPH, entity=3), "pool": {}},
            "'grounded'",
        ),
        (
            "build",
            {"id": "a", "question": "Who?", "answer": "man", "scene_graph": _GRAPH,
             "positive_rationale": 7, "selected": []},
            "'positive_rationale'",
        ),
        ("perturb", {"id": "a", "scene_graph": _GRAPH, "grounded": _GRAPH, "pool": {"entity": [1]}}, "'pool'"),
        ("ground", {"id": "a", "question": "Who?", "answer": 5, "scene_graph": _GRAPH}, "'answer'"),
        (
            "perturb",
            {"id": "a", "scene_graph": _GRAPH, "grounded": dict(_GRAPH, entity={"man": 1}), "pool": {}},
            "'grounded'",
        ),
        (
            "ground",
            {"id": "a", "question": "Who?", "answer": "man",
             "scene_graph": dict(_GRAPH, relationships={"man": ["on", "man"]})},
            "'scene_graph'",
        ),
        ("perturb", {"id": "a", "scene_graph": _GRAPH, "grounded": _GRAPH, "pool": {"entity": {"dog": 1}}}, "'pool'"),
        (
            "build",
            {"id": "a", "question": "Who?", "answer": "man", "scene_graph": _GRAPH,
             "positive_rationale": " \n", "selected": []},
            "'positive_rationale'",
        ),
        (
            "perturb",
            {"id": "a", "scene_graph": _GRAPH, "grounded": _GRAPH,
             "pool": {"entity": ["dog"], "attribute pairs": []}},
            "'pool'",
        ),
        ("perturb", {"id": "a", "scene_graph": _GRAPH, "grounded": _GRAPH, "pool": dict(_GRAPH, extra=[])}, "'pool'"),
        (
            "build",
            {"id": "a", "question": "Who?", "answer": "man", "scene_graph": _GRAPH, "positive_rationale": "A man.",
             "selected": [{"graph": _GRAPH, "jaccard": 0.5, "rationale": "No man.",
                           "trace": {"seed": 0, "ops": [{"tag": 5, "kind": "entity", "target": "man",
                                                         "payload": None}]}}]},
            "'selected'",
        ),
        (
            "select",
            {"id": "a", "question": "Who?", "answer": "man", "scene_graph": _GRAPH,
             "candidates": [{"graph": _GRAPH,
                             "trace": {"seed": 0, "ops": [{"tag": "rotate", "kind": "relation", "target": None,
                                                           "payload": None}]}}]},
            "'candidates'",
        ),
        ("ground", {"id": "a", "question": " ", "answer": "man", "scene_graph": _GRAPH}, "'question'"),
        ("ground", {"id": "a", "image": 0, "question": "Who?", "answer": "man", "scene_graph": _GRAPH}, "'image'"),
        ("perturb", {"id": "", "scene_graph": _GRAPH, "grounded": _GRAPH, "pool": _GRAPH}, "'id'"),
    ]
    WRONG_TYPE_IDS = [
        "non-object-line", "int-scene-graph", "int-entity-list", "int-rationale", "int-pool-entity", "int-answer",
        "dict-entity-list", "dict-relation-list", "dict-pool-entity", "blank-rationale",
        "pool-without-relationships", "pool-with-an-extra-key", "int-trace-tag", "unknown-trace-tag",
        "blank-question", "int-image", "blank-id",
    ]

    @pytest.mark.parametrize("command,line,names", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_value_of_the_wrong_type_is_skipped(self, tmp_path, caplog, command, line, names):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        _write_corpus(src, [line])
        assert main([command, "--input", str(src), "--output", str(out)]) == 0
        assert names in caplog.text
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("command,line,names", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_value_of_the_wrong_type_under_strict_is_a_corpus_error(self, tmp_path, capsys, command, line, names):
        src = tmp_path / "in.jsonl"
        _write_corpus(src, [line])
        argv = [command, "--input", str(src), "--output", str(tmp_path / "out.jsonl"), "--strict"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "corpus error: corpus line 1:" in err
        assert names in err

    TORN = '{"id": "a", "scene_graph": {"entity": ["man"'

    @pytest.mark.parametrize("command", ["ground", "perturb", "select", "build"])
    def test_torn_line_is_skipped_with_a_warning_naming_the_line(self, tmp_path, caplog, command):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text(self.TORN + "\n", encoding="utf-8")
        assert main([command, "--input", str(src), "--output", str(out)]) == 0
        assert "line 1 skipped: invalid JSON" in caplog.text
        assert out.read_text(encoding="utf-8") == ""

    def test_lines_after_a_torn_line_still_run(self, tmp_path, corpus, capsys, caplog):
        parsed = self._parsed(tmp_path, corpus)
        src, out = tmp_path / "in.jsonl", tmp_path / "grounded.jsonl"
        src.write_text(self.TORN + "\n" + parsed.read_text(encoding="utf-8"), encoding="utf-8")
        capsys.readouterr()
        assert main(["ground", "--input", str(src), "--output", str(out)]) == 0
        assert "grounded 1/2 instance(s)" in capsys.readouterr().out
        assert "line 1 skipped" in caplog.text
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1

    @pytest.mark.parametrize("command", ["ground", "perturb", "select", "build"])
    def test_torn_line_under_strict_is_a_corpus_error(self, tmp_path, capsys, command):
        src = tmp_path / "in.jsonl"
        src.write_text("\n\n" + self.TORN + "\n", encoding="utf-8")  # line numbers count blank lines
        argv = [command, "--input", str(src), "--output", str(tmp_path / "out.jsonl"), "--strict"]
        assert main(argv) == 2
        assert "corpus error: corpus line 3: invalid JSON" in capsys.readouterr().err


class TestUnreadableInput:
    """A file that cannot be read or is not UTF-8, or a line that holds no record, is a corpus error."""

    NOT_UTF8 = [
        ["run", "--input", "{bad}", "--output", "{out}"],
        ["ground", "--input", "{bad}", "--output", "{out}"],
        ["run", "--input", "{corpus}", "--output", "{out}", "--graphs", "{bad}"],
        ["stats", "--input", "{bad}"],
        ["edit", "--op", "swap", "--graph", "{bad}"],
    ]

    @pytest.mark.parametrize("argv", NOT_UTF8, ids=["run-corpus", "ground-input", "run-graphs", "stats", "edit-graph"])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, corpus, capsys, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff" + corpus.read_bytes())
        paths = {"bad": bad, "corpus": corpus, "out": tmp_path / "out.jsonl"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "corpus error" in err
        assert "Traceback" not in err

    def test_missing_dataset_is_a_corpus_error(self, tmp_path, capsys):
        assert main(["stats", "--input", str(tmp_path / "missing.jsonl")]) == 2
        assert "corpus error: corpus: cannot read dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "dpo-check"])
    def test_dataset_line_without_a_prompt_exits_2_naming_the_line(self, tmp_path, capsys, command):
        dataset = tmp_path / "pairs.jsonl"
        dataset.write_text(json.dumps({"id": "a#1", "chosen": "x", "rejected": "y"}) + "\n", encoding="utf-8")
        assert main([command, "--input", str(dataset)]) == 2
        assert "corpus error: corpus line 1:" in capsys.readouterr().err

    @staticmethod
    def _one_line_dataset(tmp_path, **fields):
        record = {"id": "a#1", "images": ["a.jpg"], "prompt": "q", "chosen": "x", "rejected": "y", "meta": {}}
        dataset = tmp_path / "pairs.jsonl"
        dataset.write_text(json.dumps({**record, **fields}) + "\n", encoding="utf-8")
        return dataset

    def test_stats_on_a_meta_that_is_not_an_object_exits_2_naming_the_line(self, tmp_path, capsys):
        assert main(["stats", "--input", str(self._one_line_dataset(tmp_path, meta=[]))]) == 2
        assert "corpus error: corpus line 1: 'meta' is list, not an object" in capsys.readouterr().err

    def test_dpo_check_on_a_chosen_that_is_not_a_string_exits_2_naming_the_line(self, tmp_path, capsys):
        assert main(["dpo-check", "--input", str(self._one_line_dataset(tmp_path, chosen=5))]) == 2
        assert "corpus error: corpus line 1: 'chosen' is int, not a string" in capsys.readouterr().err

    @pytest.mark.parametrize("images", [None, "a.jpg", [1]])
    def test_images_that_are_not_a_list_of_strings_exit_2(self, tmp_path, capsys, images):
        assert main(["stats", "--input", str(self._one_line_dataset(tmp_path, images=images))]) == 2
        assert "corpus error: corpus line 1: 'images' is not a list of strings" in capsys.readouterr().err


class TestPerturbSingleOp:
    def _graph(self, capsys):
        return json.loads(capsys.readouterr().out)

    def test_swap(self, sub_graph_file, capsys):
        code = main(
            ["edit", "--op", "swap", "--graph", str(sub_graph_file), "--index", "0"]
        )
        assert code == 0
        obj = self._graph(capsys)
        assert obj["graph"]["relationships"][0] == ["motorcycle", "look at", "man"]
        assert obj["trace"][0]["tag"] == "swap"

    def test_replace_entity(self, sub_graph_file, pool_file, capsys):
        code = main(
            [
                "edit",
                "--op", "replace",
                "--graph", str(sub_graph_file),
                "--pool", str(pool_file),
                "--kind", "entity",
                "--index", "2",
                "--replacement", "window",
            ]
        )
        assert code == 0
        obj = self._graph(capsys)
        assert "window" in obj["graph"]["entity"]
        assert ["man", "hold", "window"] in obj["graph"]["relationships"]

    def test_shorten_entity_cascades(self, sub_graph_file, capsys):
        code = main(
            [
                "edit",
                "--op", "shorten",
                "--graph", str(sub_graph_file),
                "--kind", "entity",
                "--index", "0",
            ]
        )
        assert code == 0
        obj = self._graph(capsys)
        assert obj["graph"]["entity"] == ["motorcycle", "paper", "ground"]
        assert obj["graph"]["relationships"] == [["motorcycle", "stand on", "ground"]]

    def test_overthink_with_pinned_element(self, sub_graph_file, pool_file, capsys):
        code = main(
            [
                "edit",
                "--op", "overthink",
                "--graph", str(sub_graph_file),
                "--pool", str(pool_file),
                "--element", '["building", "behind", "motorcycle"]',
            ]
        )
        assert code == 0
        obj = self._graph(capsys)
        assert ["building", "behind", "motorcycle"] in obj["graph"]["relationships"]
        assert "building" in obj["graph"]["entity"]

    def test_op_without_graph_is_a_config_error(self, capsys):
        assert main(["edit", "--op", "swap"]) == 1
        assert "error: the following arguments are required: --graph" in capsys.readouterr().err

    def test_op_mode_needs_no_input(self, sub_graph_file, capsys):
        assert main(["edit", "--op", "swap", "--graph", str(sub_graph_file), "--index", "0"]) == 0
        assert self._graph(capsys)["graph"]["relationships"][0] == ["motorcycle", "look at", "man"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--candidates", "0"],
            ["--edits", "2"],
            ["--gamma-lower", "0.1"],
            ["--generator", "http"],
            ["--workers", "2"],
            ["--strict"],
            ["--input", "corpus.jsonl"],
            ["--output", "out.jsonl"],
        ],
    )
    def test_stage_mode_flag_is_a_config_error(self, sub_graph_file, flags, capsys):
        argv = ["edit", "--op", "swap", "--graph", str(sub_graph_file), "--index", "0", *flags]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {flags[0]}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [[], ["--input", "corpus.jsonl"], ["--output", "out.jsonl"]])
    def test_stage_mode_still_needs_input_and_output(self, flags, capsys):
        assert main(["perturb", *flags]) == 1
        assert "error: the following arguments are required: --" in capsys.readouterr().err


class TestPerturbSingleOpBadInput:
    """Bad ``edit`` input ends with an exit code and a message, never a traceback."""

    def test_malformed_pool_file_is_a_corpus_error(self, tmp_path, sub_graph_file, capsys):
        pool = tmp_path / "pool.json"
        pool.write_text('{"entity": ["car"', encoding="utf-8")
        argv = ["edit", "--op", "overthink", "--graph", str(sub_graph_file)]
        assert main(argv + ["--pool", str(pool)]) == 2
        assert "corpus error" in capsys.readouterr().err

    def test_a_pool_file_missing_a_key_is_a_corpus_error(self, tmp_path, sub_graph_file, capsys):
        pool = tmp_path / "pool.json"
        pool.write_text('{"entity": ["window"]}', encoding="utf-8")
        argv = ["edit", "--op", "overthink", "--graph", str(sub_graph_file)]
        assert main(argv + ["--pool", str(pool)]) == 2
        assert "bad --pool file: attribute pairs: missing key" in capsys.readouterr().err

    def test_malformed_graph_file_is_a_corpus_error(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text('{"entity": ["man"], "relationships": []}', encoding="utf-8")
        assert main(["edit", "--op", "swap", "--graph", str(graph)]) == 2
        assert "corpus error" in capsys.readouterr().err

    def test_malformed_element_is_a_config_error(self, sub_graph_file, pool_file, capsys):
        code = main(
            [
                "edit",
                "--op", "overthink",
                "--graph", str(sub_graph_file),
                "--pool", str(pool_file),
                "--element", '["building", "behind"',
            ]
        )
        assert code == 1
        assert "--element" in capsys.readouterr().err

    def test_out_of_range_index_is_an_error(self, sub_graph_file, pool_file, capsys):
        code = main(
            [
                "edit",
                "--op", "replace",
                "--graph", str(sub_graph_file),
                "--pool", str(pool_file),
                "--kind", "entity",
                "--index", "9",
            ]
        )
        assert code == 1
        assert "index 9 out of range" in capsys.readouterr().err

    def test_shorten_of_a_predicate_is_an_error(self, sub_graph_file, capsys):
        argv = ["edit", "--op", "shorten", "--graph", str(sub_graph_file)]
        assert main(argv + ["--kind", "predicate", "--index", "0"]) == 1
        assert "shorten cannot target kind 'predicate'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "op, flags",
        [
            ("replace", ["--kind", "entity", "--index", "0", "--replacement", ""]),
            ("replace", ["--kind", "entity", "--index", "0", "--replacement", " "]),
            ("overthink", ["--element", '[" man ", ""]']),
            ("overthink", ["--element", "[1, 2]"]),
            ("overthink", ["--element", '["a", "b", "c", "d"]']),
            ("overthink", ["--element", "null"]),
        ],
        ids=["empty-replacement", "blank-replacement", "empty-row-item", "numbers", "four-items", "null"],
    )
    def test_a_payload_the_parser_would_reject_is_a_config_error(self, sub_graph_file, pool_file, op, flags, capsys):
        argv = ["edit", "--op", op, "--graph", str(sub_graph_file), "--pool", str(pool_file), *flags]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_adding_an_element_already_there_is_an_error(self, sub_graph_file, capsys):
        argv = ["edit", "--op", "overthink", "--graph", str(sub_graph_file), "--element", '["paper", "white"]']
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: attribute ['paper', 'white'] is already in the graph" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", range(6))
    def test_shorten_kind_without_index_removes_that_kind(self, sub_graph_file, seed, capsys):
        argv = ["edit", "--op", "shorten", "--graph", str(sub_graph_file)]
        assert main(argv + ["--kind", "attribute", "--seed", str(seed)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["trace"][0]["kind"] == "attribute"
        assert obj["graph"]["entity"] == CASE_SUBGRAPH_OBJ["entity"]
        assert obj["graph"]["relationships"] == CASE_SUBGRAPH_OBJ["relationships"]
        assert len(obj["graph"]["attribute pairs"]) == len(CASE_SUBGRAPH_OBJ["attribute pairs"]) - 1

    @pytest.mark.parametrize("op", ["shorten", "replace"])
    def test_index_without_kind_is_a_usage_error(self, sub_graph_file, pool_file, op, capsys):
        argv = ["edit", "--op", op, "--graph", str(sub_graph_file), "--pool", str(pool_file)]
        assert main(argv + ["--index", "1"]) == 1
        assert f"{op}: an index needs a kind" in capsys.readouterr().err

    def test_swap_of_an_entity_is_an_error(self, sub_graph_file, capsys):
        argv = ["edit", "--op", "swap", "--graph", str(sub_graph_file)]
        assert main(argv + ["--kind", "entity", "--index", "0"]) == 1
        assert "swap cannot target kind 'entity'" in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["swap", "shorten", "overthink"])
    def test_replacement_outside_replace_is_a_config_error(self, sub_graph_file, pool_file, op, capsys):
        argv = ["edit", "--op", op, "--graph", str(sub_graph_file), "--pool", str(pool_file)]
        assert main(argv + ["--replacement", "window", "--kind", "relation"]) == 1
        assert f"{op} takes no replacement" in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["swap", "shorten", "replace"])
    def test_element_outside_overthink_is_a_config_error(self, sub_graph_file, pool_file, op, capsys):
        argv = ["edit", "--op", op, "--graph", str(sub_graph_file), "--pool", str(pool_file)]
        assert main(argv + ["--element", '"car"']) == 1
        assert f"{op} takes no element" in capsys.readouterr().err


class TestDpoCheck:
    def test_checks_a_built_dataset(self, tmp_path, corpus, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out), "--seed", "7"]) == 0
        records = len(out.read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert main(["dpo-check", "--input", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"{records} record(s); policy==reference mean loss: 0.693147 (expected 0.693147)" in printed
        assert "dpo-check: PASS" in printed

    def test_empty_dataset_is_a_corpus_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["dpo-check", "--input", str(empty)]) == 2

    def test_a_dataset_is_required(self, capsys):
        assert main(["dpo-check"]) == 1
        captured = capsys.readouterr()
        assert "the following arguments are required: --input" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize(
        "edit, same, blank",
        [
            (lambda i, r: dict(r, rejected=r["chosen"]) if i == 0 else r, 1, 0),
            (lambda i, r: dict(r, rejected=" \t") if i == 1 else r, 0, 1),
            # every text blank: the uniform policy would have no vocabulary
            (lambda i, r: dict(r, chosen="", rejected=""), 2, 2),
        ],
        ids=["rejected-is-chosen", "blank-rejected", "all-blank"],
    )
    def test_a_dataset_build_could_not_write_fails(self, tmp_path, corpus, capsys, edit, same, blank):
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out), "--seed", "7"]) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 2
        out.write_text("".join(json.dumps(edit(i, r)) + "\n" for i, r in enumerate(records)), encoding="utf-8")
        capsys.readouterr()
        assert main(["dpo-check", "--input", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            f"2 record(s); {same} with rejected equal to chosen, {blank} with a blank side\ndpo-check: FAIL\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("flag", ["--trials", "--beta", "--seed"])
    def test_gradient_trial_flags_are_gone(self, tmp_path, capsys, flag):
        dataset = tmp_path / "pairs.jsonl"
        dataset.write_text("", encoding="utf-8")
        assert main(["dpo-check", "--input", str(dataset), flag, "3"]) == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments" in captured.err
        assert captured.out == ""


class TestStats:
    def test_summary_shape(self, tmp_path, corpus, capsys):
        out = tmp_path / "out.jsonl"
        main(["run", "--input", str(corpus), "--output", str(out), "--seed", "7"])
        capsys.readouterr()
        assert main(["stats", "--input", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] >= 1
        assert stats["instances"] == 1
        assert sum(stats["operator_mix"].values()) == stats["records"]
        assert sum(stats["jaccard_histogram"].values()) == stats["records"]
        assert set(stats) == {
            "records",
            "instances",
            "negatives_per_instance_mean",
            "operator_mix",
            "jaccard_histogram",
            "shortfall_rate",
        }

    @pytest.mark.parametrize("num_negatives", ["0", "-2"])
    def test_no_negatives_wanted_is_a_config_error(self, tmp_path, corpus, capsys, num_negatives):
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["stats", "--input", str(out), "--num-negatives", num_negatives]) == 1
        captured = capsys.readouterr()
        assert "config error: --num-negatives must be at least 1" in captured.err
        assert captured.out == ""


def _declared_console_script() -> str:
    """The ``scenealign`` target declared in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["scenealign"]


def _installed_distribution():
    try:
        return importlib.metadata.distribution("scenealign")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_is_installed(tmp_path, corpus):
    """The declared ``scenealign`` command runs ``run`` in its own process.

    With the distribution installed, its console-script entry must match
    ``pyproject.toml`` and the command must be on PATH. Without it, the
    declared target is called the way an installer's launcher calls it.
    """
    target = _declared_console_script()
    dist = _installed_distribution()
    if dist is not None:
        installed = {
            ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"
        }
        assert installed.get("scenealign") == target
        exe = shutil.which("scenealign")
        assert exe, "console script not on PATH"
        command = [exe]
        env = None
    else:
        module, attr = target.split(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        command = [sys.executable, "-c", launcher]
        env = _src_env()
    out = tmp_path / "out.jsonl"
    proc = subprocess.run(
        [*command, "run", "--input", str(corpus), "--output", str(out), "--seed", "7"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
