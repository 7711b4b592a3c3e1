"""Correctness checks on a written dataset, made apart from the program.

Nothing here imports ``scenealign``.  Expected graphs come from the corpus
recipes in ``corpus.py``, overlaps from a naive list-based universe, and
expected texts from the linearisation the template generator documents: one
numbered step per relation ("The s p the o."), then per attribute ("The e is
v."), then "Conclusion: The answer is <answer>." for a positive rationale and
"Conclusion: The scene is as described." for a negative one.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from corpus import graph_signature, instance_graph, read_jsonl

OPERATORS = ("swap", "replace", "shorten", "overthink")
PROMPT_GRAPH_SEP = "\n\nScene Graph: "
GAMMA_LOWER, GAMMA_UPPER = 0.3, 0.7
MAX_RECORDS = 3
_STEP = re.compile(r"^\d+\. The (.+)\.$")


@dataclass
class Verdict:
    records: int = 0
    failed: set[str] = field(default_factory=set)  # known-fault instances with another image's graph
    problems: list[str] = field(default_factory=list)
    text_hashes: set[str] = field(default_factory=set)  # sha256 of every chosen/rejected text

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def linearise(relations, attributes, entities, conclusion: str) -> str:
    steps = [f"The {s} {p} the {o}." for s, p, o in relations]
    steps += [f"The {e} is {v}." for e, v in attributes]
    if not steps:
        steps = ["The scene shows " + ", ".join(f"the {e}" for e in entities) + "."] if entities else [
            "The scene is empty."
        ]
    lines = [f"{i}. {s}" for i, s in enumerate(steps, start=1)]
    return "\n".join(lines + [f"Conclusion: {conclusion}"])


def recover_graph(text: str) -> tuple[list[tuple], list[tuple]]:
    """Relations and attributes of a template-linearised rationale."""
    relations, attributes = [], []
    for line in text.splitlines():
        m = _STEP.match(line)
        if not m or m.group(1).startswith(("scene shows ", "scene is empty")):
            continue
        body = m.group(1)
        if " the " in body:
            head, _, obj = body.rpartition(" the ")
            subject, _, predicate = head.partition(" ")
            relations.append((subject, predicate, obj))
        else:
            entity, _, value = body.partition(" is ")
            attributes.append((entity, value))
    return relations, attributes


def naive_universe(relations, attributes) -> list[tuple]:
    items: list[tuple] = []
    for entity, value in attributes:
        item = ("attr", entity, value)
        if item not in items:
            items.append(item)
    for subject, _predicate, obj in relations:
        item = ("pair", subject, obj)
        if item not in items:
            items.append(item)
    return items


def naive_jaccard(a: list[tuple], b: list[tuple]) -> float:
    inter = sum(1 for item in a if item in b)
    union = len(a) + sum(1 for item in b if item not in a)
    return 1.0 if union == 0 else inter / union


def check_dataset(
    dataset: Path, corpus: list[dict], *, template_texts: bool, known_faults: frozenset[str] = frozenset()
) -> Verdict:
    """Check every record; ``template_texts`` adds the offline text checks.

    An instance whose records carry a graph other than its own is a problem,
    unless it is in ``known_faults``: then it is counted in ``failed``.
    """
    verdict = Verdict()
    by_id = {line["id"]: line for line in corpus}
    order = {line["id"]: i for i, line in enumerate(corpus)}
    groups: dict[str, list[dict]] = {}
    current = None
    for raw in dataset.read_text(encoding="utf-8").splitlines():
        record = json.loads(raw)
        verdict.records += 1
        instance_id = record["meta"]["instance_id"]
        if instance_id not in by_id:
            verdict.problem(f"record {record['id']}: unknown instance {instance_id!r}")
            continue
        if instance_id != current:
            if instance_id in groups:
                verdict.problem(f"instance {instance_id}: records not contiguous")
            elif current is not None and order[instance_id] < order[current]:
                verdict.problem(f"instance {instance_id}: records out of corpus order")
            groups.setdefault(instance_id, [])
            current = instance_id
        groups[instance_id].append(record)

    if verdict.records == 0:
        verdict.problem("dataset is empty")
    for instance_id, records in groups.items():
        _check_instance(by_id[instance_id], records, verdict, template_texts, known_faults)
    return verdict


def _check_instance(
    line: dict, records: list[dict], verdict: Verdict, template_texts: bool, known_faults: frozenset[str]
) -> None:
    iid = line["id"]
    graph = instance_graph(line)
    expected_sig = graph_signature(graph)
    pos_universe = naive_universe(graph["relationships"], graph["attribute pairs"])
    if len(records) > MAX_RECORDS:
        verdict.problem(f"instance {iid}: {len(records)} records, at most {MAX_RECORDS} allowed")
    for rank, record in enumerate(records, start=1):
        rid = record["id"]
        meta = record["meta"]
        if rid != f"{iid}#{rank}" or meta.get("diversity_rank") != rank:
            verdict.problem(f"record {rid}: expected rank #{rank}")
        if record["images"] != [line["image"]]:
            verdict.problem(f"record {rid}: images {record['images']!r}")
        question, sep, graph_json = record["prompt"].partition(PROMPT_GRAPH_SEP)
        if not sep or question != line["question"]:
            verdict.problem(f"record {rid}: prompt does not start with the instance's question")
        elif graph_signature(json.loads(graph_json)) != expected_sig:
            if iid in known_faults:
                verdict.failed.add(iid)
            else:
                verdict.problem(f"record {rid}: prompt graph is not the instance's graph")
        if record["rejected"] == record["chosen"]:
            verdict.problem(f"record {rid}: rejected equals chosen")
        if record["chosen"] != records[0]["chosen"]:
            verdict.problem(f"record {rid}: chosen differs within the instance")
        ops = meta.get("trace", {}).get("ops", [])
        tags = [op.get("tag") for op in ops]
        if not 1 <= len(ops) <= 3 or any(tag not in OPERATORS for tag in tags):
            verdict.problem(f"record {rid}: trace tags {tags!r}")
        elif meta.get("operator") != "+".join(tags):
            verdict.problem(f"record {rid}: operator {meta.get('operator')!r} does not match its trace")
        jaccard = meta.get("jaccard")
        if not isinstance(jaccard, float) or not GAMMA_LOWER <= jaccard <= GAMMA_UPPER:
            verdict.problem(f"record {rid}: jaccard {jaccard!r} outside [{GAMMA_LOWER}, {GAMMA_UPPER}]")
        verdict.text_hashes.add(sha256_text(record["chosen"]))
        verdict.text_hashes.add(sha256_text(record["rejected"]))
        if template_texts:
            _check_template_texts(line, graph, pos_universe, record, verdict)


def _check_template_texts(line, graph, pos_universe, record, verdict: Verdict) -> None:
    rid = record["id"]
    chosen = linearise(
        graph["relationships"], graph["attribute pairs"], graph["entity"], f"The answer is {line['answer']}."
    )
    if record["chosen"] != chosen:
        verdict.problem(f"record {rid}: chosen is not the linearised positive graph")
    if not record["rejected"].endswith("\nConclusion: The scene is as described."):
        verdict.problem(f"record {rid}: rejected conclusion is not answer-free")
    relations, attributes = recover_graph(record["rejected"])
    jaccard = naive_jaccard(naive_universe(relations, attributes), pos_universe)
    if jaccard != record["meta"].get("jaccard"):
        verdict.problem(f"record {rid}: recomputed jaccard {jaccard!r} != {record['meta'].get('jaccard')!r}")


def pass_drops(pass_dir: Path, corpus_ids: list[str], intermediates: tuple[str, ...]) -> list[str]:
    """What the program dropped in one pass, read from the files it wrote.

    An instance with no records is legitimate (no candidate fell in the band),
    so a drop is not visible in the dataset.  ``run_pipeline`` lists drops in
    ``report.json``; the staged CLI leaves an instance out of the next stage's
    file, or writes fewer records than it selected.  A negative rationale
    whose request failed is dropped with only a log line.
    """
    found: list[str] = []
    if intermediates:
        for name in intermediates:
            kept = {item["id"] for item in read_jsonl(pass_dir / name)}
            missing = [i for i in corpus_ids if i not in kept]
            if missing:
                found.append(f"{name}: {len(missing)} instance(s) missing, first {missing[0]}")
        records = Counter(r["meta"]["instance_id"] for r in read_jsonl(pass_dir / "dataset.jsonl"))
        for item in read_jsonl(pass_dir / intermediates[-1]):
            if records[item["id"]] != len(item["selected"]):
                found.append(f"instance {item['id']}: {records[item['id']]} record(s) "
                             f"for {len(item['selected'])} selected negative(s)")
    else:
        report = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))
        found += [f"corpus line {d['line']} dropped: {d['reason']}" for d in report["line_drops"]]
        found += [f"instance {s['id']} dropped: {s['drop']}" for s in report["instances"] if s.get("drop")]
        if report["instances_total"] != len(corpus_ids):
            found.append(f"report counts {report['instances_total']} instances, corpus has {len(corpus_ids)}")
    log = (pass_dir / "program.log").read_text(encoding="utf-8")
    found += [line for line in log.splitlines() if "negative rationale failed" in line]
    return found
