"""Dataset loading, exact match, batch evaluation, CLI surface."""

import dataclasses
import json
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kgqa_engine import pruning
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import BackendUnavailable, ParseError
from kgqa_engine.harness import (
    QaExample,
    evaluate_run,
    exact_match,
    load_dataset,
    normalize_answer,
)
from kgqa_engine.orchestrator import Engine, load_trace_jsonl, write_trace
from kgqa_engine.pruning import HashingEmbedder

from conftest import JsonStub, StageBackend, make_store, random_kg
from scenarios import FIXTURES, SCENARIOS, build_engine, load_meta, strip_timestamps

HAPPY = FIXTURES / "happy_path"
# ids that are not one plain file name: a trace named after them would land
# outside --out-dir, or be no file name at all
NOT_PLAIN_IDS = ["../escaped", "a/b", "a\\b", ".", "..", ""]


def write_simple(tmp_path, examples):
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(examples))
    return path


SIMPLE_TWO = [
    {
        "id": "q1",
        "question": "capital of France?",
        "topic_entities": [{"id": "m.0f", "label": "France"}],
        "answers": ["Paris"],
    },
    {"id": "q2", "question": "who?", "topic_entities": [], "answers": ["Someone", "Else"]},
]


class TestLoadDataset:
    def test_simple_in_file_order(self, tmp_path):
        examples = load_dataset(write_simple(tmp_path, SIMPLE_TWO), "simple")
        assert [e.id for e in examples] == ["q1", "q2"]
        assert examples[0].topic_entities == [("m.0f", "France")]
        assert examples[1].gold_answers == ["Someone", "Else"]

    def test_empty_gold_rejected(self, tmp_path):
        bad = [{"id": "x", "question": "q", "topic_entities": [], "answers": []}]
        with pytest.raises(ParseError):
            load_dataset(write_simple(tmp_path, bad), "simple")

    def test_simple_number_answers_kept_as_text(self, tmp_path):
        examples = load_dataset(write_simple(tmp_path, [dict(SIMPLE_TWO[0], answers=[1945, 2.5])]), "simple")
        assert examples[0].gold_answers == ["1945", "2.5"]

    def test_wrong_type_error_names_example_and_field(self, tmp_path):
        with pytest.raises(ParseError, match=r"^example 1: answers is str, not a list$"):
            load_dataset(write_simple(tmp_path, [SIMPLE_TWO[0], dict(SIMPLE_TWO[1], answers="Else")]), "simple")
        with pytest.raises(ParseError, match=r"^example 0 \('q1'\): gold answer None is not a string$"):
            load_dataset(write_simple(tmp_path, [dict(SIMPLE_TWO[0], answers=[None])]), "simple")
        with pytest.raises(ParseError, match=r"^example 0 \(None\): id None is not a string$"):
            load_dataset(write_simple(tmp_path, [dict(SIMPLE_TWO[0], id=None)]), "simple")

    def test_duplicate_ids_rejected_by_name(self, tmp_path):
        bad = SIMPLE_TWO + [SIMPLE_TWO[0]]
        with pytest.raises(ParseError, match="q1"):
            load_dataset(write_simple(tmp_path, bad), "simple")

    def test_grailqa_mapping(self, tmp_path):
        doc = [
            {
                "qid": 2102902009000,
                "question": "what river?",
                "answer": [{"answer_argument": "m.0x", "entity_name": "The River"}],
                "graph_query": {
                    "nodes": [
                        {"node_type": "entity", "id": "m.0topic", "friendly_name": "Topic"},
                        {"node_type": "class", "id": "river"},
                    ]
                },
            }
        ]
        (tmp_path / "g.json").write_text(json.dumps(doc))
        examples = load_dataset(tmp_path / "g.json", "grailqa")
        assert examples[0].id == "2102902009000"
        assert examples[0].topic_entities == [("m.0topic", "Topic")]
        assert examples[0].gold_answers == ["The River"]

    def test_cwq_mapping_includes_aliases(self, tmp_path):
        doc = [
            {
                "ID": "c1",
                "question": "who?",
                "topic_entity": {"m.0a": "Alpha"},
                "answers": [{"answer": "Bob", "aliases": ["Robert"]}],
            }
        ]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        examples = load_dataset(tmp_path / "c.json", "cwq")
        assert examples[0].gold_answers == ["Bob", "Robert"]
        assert examples[0].topic_entities == [("m.0a", "Alpha")]

    def test_webqsp_mapping(self, tmp_path):
        doc = {
            "Questions": [
                {
                    "QuestionId": "w1",
                    "RawQuestion": "where?",
                    "Parses": [
                        {
                            "TopicEntityMid": "m.0t",
                            "TopicEntityName": "Topic",
                            "Answers": [{"EntityName": "Paris", "AnswerArgument": "m.0p"}],
                        }
                    ],
                }
            ]
        }
        (tmp_path / "w.json").write_text(json.dumps(doc))
        examples = load_dataset(tmp_path / "w.json", "webqsp")
        assert examples[0].topic_entities == [("m.0t", "Topic")]
        assert examples[0].gold_answers == ["Paris"]

    @pytest.mark.parametrize("bad_id", NOT_PLAIN_IDS)
    def test_id_must_be_a_plain_file_name(self, tmp_path, bad_id):
        bad = [dict(SIMPLE_TWO[0], id=bad_id)]
        with pytest.raises(ParseError, match="not a plain file name"):
            load_dataset(write_simple(tmp_path, bad), "simple")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(write_simple(tmp_path, SIMPLE_TWO), "nope")


def oracle_normalize(text):
    """Independent reference normalization written with str methods only."""
    s = text.strip()
    while len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
        s = s[1:-1].strip()
    return " ".join(s.split()).lower()


class TestExactMatch:
    def test_case_fold(self):
        assert exact_match("Barack Obama", ["barack obama"]) == 1

    def test_miss(self):
        assert exact_match("Paris", ["London"]) == 0

    def test_whitespace_collapse(self):
        assert exact_match("  Niagara  Falls ", ["Niagara Falls"]) == 1
        assert oracle_normalize("  Niagara  Falls ") == normalize_answer("  Niagara  Falls ")

    def test_quote_stripping(self):
        assert exact_match('"Paris"', ["Paris"]) == 1
        assert exact_match("'Paris'", ["paris"]) == 1

    def test_agrees_with_oracle_on_fuzzed_pairs(self):
        import random

        rng = random.Random(11)
        alphabet = " \t'\"abcXYZ  09-"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 20)))
            assert normalize_answer(text) == oracle_normalize(text)


class TestEvaluateRun:
    def scripted_engine_factory(self, answers):
        """Each example gets a fresh engine answering from a canned map."""

        def factory(example):
            backend = StageBackend(
                {
                    "evaluate": f"DECISION: Finish\nANSWER: {answers[example.id]}",
                    "answer": f"ANSWER: {answers[example.id]}",
                }
            )
            store = make_store([("e", "r", "x")], labels={"e": "E"})
            return Engine(backend=backend, kg=store, embedder=HashingEmbedder(), config=EngineConfig())

        return factory

    def dataset(self, tmp_path, n=4):
        examples = [
            {
                "id": f"q{i}",
                "question": f"question {i}?",
                "topic_entities": [{"id": "e", "label": "E"}],
                "answers": [f"gold{i}"],
            }
            for i in range(n)
        ]
        return load_dataset(write_simple(tmp_path, examples), "simple")

    def test_aggregate_is_mean(self, tmp_path):
        examples = self.dataset(tmp_path, 4)
        answers = {"q0": "gold0", "q1": "gold1", "q2": "gold2", "q3": "wrong"}
        report = evaluate_run(examples, engine_factory=self.scripted_engine_factory(answers))
        assert report.hits_at_1 == pytest.approx(0.75)
        assert [r.hit for r in report.results] == [1, 1, 1, 0]

    def test_failing_example_isolated(self, tmp_path):
        examples = self.dataset(tmp_path, 3)

        def factory(example):
            if example.id == "q1":
                raise RuntimeError("engine exploded")
            return self.scripted_engine_factory({e.id: f"gold{e.id[1:]}" for e in examples})(example)

        report = evaluate_run(examples, engine_factory=factory)
        by_id = {r.id: r for r in report.results}
        assert by_id["q1"].hit == 0 and "exploded" in by_id["q1"].error
        assert by_id["q0"].hit == 1 and by_id["q2"].hit == 1

    def test_unprintable_failure_isolated(self, tmp_path):
        class Unprintable(RuntimeError):
            def __str__(self):
                raise ValueError("cannot format")

        examples = self.dataset(tmp_path, 2)

        def factory(example):
            if example.id == "q1":
                raise Unprintable()
            return self.scripted_engine_factory({"q0": "gold0"})(example)

        by_id = {r.id: r for r in evaluate_run(examples, engine_factory=factory).results}
        assert by_id["q1"].error == "<unprintable Unprintable object>"
        assert by_id["q0"].hit == 1

    @pytest.mark.parametrize("fault", ["score", "trace"])
    def test_unscorable_or_untraceable_example_isolated(self, tmp_path, fault):
        examples = self.dataset(tmp_path, 2)
        if fault == "score":
            examples[1].gold_answers = [5]
        else:
            (tmp_path / "traces" / "q1.trace.jsonl").mkdir(parents=True)
        factory = self.scripted_engine_factory({"q0": "gold0", "q1": "gold1"})
        report = evaluate_run(examples, engine_factory=factory, trace_dir=str(tmp_path / "traces"))
        by_id = {r.id: r for r in report.results}
        assert by_id["q0"].hit == 1 and by_id["q0"].error is None
        assert by_id["q1"].hit == 0 and by_id["q1"].error

    def test_empty_dataset_flagged_undefined(self):
        report = evaluate_run([], engine_factory=lambda e: None)
        assert report.undefined

    def test_trace_files_written(self, tmp_path):
        examples = self.dataset(tmp_path, 2)
        answers = {"q0": "gold0", "q1": "gold1"}
        report = evaluate_run(
            examples,
            engine_factory=self.scripted_engine_factory(answers),
            trace_dir=str(tmp_path / "traces"),
        )
        for r in report.results:
            assert (tmp_path / "traces" / f"{r.id}.trace.jsonl").exists()

    def test_trace_never_written_outside_trace_dir(self, tmp_path):
        # an example built in code skips load_dataset's id check
        example = QaExample(id="../escaped", question="q?", topic_entities=[("e", "E")], gold_answers=["g"])
        factory = self.scripted_engine_factory({"../escaped": "g"})
        report = evaluate_run([example], engine_factory=factory, trace_dir=str(tmp_path / "traces"))
        assert "not a plain file name" in report.results[0].error
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    def test_concurrent_matches_serial(self, tmp_path):
        examples = self.dataset(tmp_path, 6)
        answers = {f"q{i}": f"gold{i}" for i in range(6)}
        serial = evaluate_run(examples, engine_factory=self.scripted_engine_factory(answers))
        threaded = evaluate_run(
            examples, engine_factory=self.scripted_engine_factory(answers), concurrency=4
        )
        assert [r.to_dict() | {"trace_path": None} for r in serial.results] == [
            r.to_dict() | {"trace_path": None} for r in threaded.results
        ]

    def test_concurrency_changes_no_trace_of_a_shared_engine(self, tmp_path, monkeypatch):
        # a small memo clears while other threads score through it
        monkeypatch.setattr(pruning, "TOKEN_MEMO_SIZE", 16)
        store, entities = random_kg(random.Random(7), n_entities=40)

        def plan(prompt):
            question = re.search(r"Question: (.*)", prompt).group(1)
            return "\n".join(f"STEP: {word} {question} | hop {i}" for i, word in enumerate(("find", "then", "last")))

        backend = StageBackend({"decompose": plan})
        engine = Engine(backend, store, HashingEmbedder(), EngineConfig(prune_threshold=3))
        examples = [QaExample(f"q{i}", f"r{i % 12} of Entity e{i}", [(entity, "")], ["x"])
                    for i, entity in enumerate(entities)]
        traces = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads take turns within a run, not only between runs
        try:
            for concurrency in (4, 1):
                report = evaluate_run(examples, lambda example: engine, concurrency=concurrency,
                                      trace_dir=str(tmp_path / str(concurrency)))
                assert all(r.error is None for r in report.results)
                traces[concurrency] = [strip_timestamps(Path(r.trace_path).read_text(encoding="utf-8"))
                                       for r in report.results]
        finally:
            sys.setswitchinterval(switch)
        assert traces[4] == traces[1]
        assert sum(trace.count('"frontier_entity"') for trace in traces[1]) > len(examples)


class TestCli:
    def test_run_command(self, capsys):
        from kgqa_engine.cli import main

        fixture = FIXTURES / "happy_path"
        code = main(
            [
                "run",
                "--question",
                load_meta("happy_path")["question"],
                "--topic-entity",
                "m.0nile",
                "--kg-file",
                str(fixture / "kg.tsv"),
                "--script",
                str(fixture / "script.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "Cairo"

    def test_bench_command_and_report(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        fixture = FIXTURES / "path_fix"
        dataset = [
            {
                "id": "eiffel",
                "question": load_meta("path_fix")["question"],
                "topic_entities": [{"id": "m.0eiffel", "label": "Eiffel Tower"}],
                "answers": ["Paris"],
            }
        ]
        ds = write_simple(tmp_path, dataset)
        code = main(
            [
                "bench",
                "--dataset",
                str(ds),
                "--format",
                "simple",
                "--kg-file",
                str(fixture / "kg.tsv"),
                "--script",
                str(fixture / "script.json"),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Hits@1: 1.0000" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["hits_at_1"] == 1.0
        assert (tmp_path / "out" / "eiffel.trace.jsonl").exists()

    def test_bench_empty_dataset_exit_2(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        ds = write_simple(tmp_path, [])
        code = main(["bench", "--dataset", str(ds), "--kg-file", "unused", "--script", "unused"])
        assert code == 2

    @pytest.mark.parametrize(
        "format, text",
        [
            ("simple", "{not json"),
            ("simple", json.dumps(["abc"])),
            ("simple", json.dumps([{"question": "q?", "answers": ["a"]}])),
            ("grailqa", json.dumps(["abc"])),
            ("grailqa", json.dumps([{"question": "q?", "answer": [{"entity_name": "a"}]}])),
            (
                "grailqa",
                json.dumps(
                    [
                        {
                            "qid": "g1",
                            "question": "q?",
                            "answer": [{"entity_name": "a"}],
                            "graph_query": {"nodes": ["m.0x"]},
                        }
                    ]
                ),
            ),
            ("cwq", json.dumps(["abc"])),
            ("cwq", json.dumps([{"question": "q?", "answers": [{"answer": "a"}]}])),
            ("webqsp", json.dumps({"Questions": ["abc"]})),
            ("webqsp", json.dumps({"Questions": [{"RawQuestion": "q?", "Parses": []}]})),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], id="../escaped")])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], id="..")])),
            ("simple", "[" * 100_000 + "]" * 100_000),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], answers="Cairo")])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], answers=[None])])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], question=["capital of France?"])])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], topic_entities=[{"id": 7}])])),
            (
                "cwq",
                json.dumps(
                    [{"ID": "c1", "question": "q?", "answers": [{"answer": "Cairo", "aliases": "Al-Qahira"}]}]
                ),
            ),
            ("grailqa", json.dumps([{"qid": "g1", "question": "q?", "answer": [{"entity_name": 5}]}])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], id=None)])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], id=["q", 2])])),
            ("simple", json.dumps([dict(SIMPLE_TWO[0], id=True)])),
            ("grailqa", json.dumps([{"qid": None, "question": "q?", "answer": [{"entity_name": "a"}]}])),
            (
                "webqsp",
                json.dumps(
                    {
                        "Questions": [
                            {
                                "QuestionId": "w1",
                                "RawQuestion": "q?",
                                "Parses": [{"Answers": [{"EntityName": None, "AnswerArgument": 12}]}],
                            }
                        ]
                    }
                ),
            ),
        ],
        ids=[
            "not-json",
            "simple-not-object",
            "simple-no-id",
            "grailqa-not-object",
            "grailqa-no-qid",
            "grailqa-string-node",
            "cwq-not-object",
            "cwq-no-ID",
            "webqsp-not-object",
            "webqsp-no-QuestionId",
            "simple-id-escapes-out-dir",
            "simple-id-dotdot",
            "too-deep",
            "simple-answers-a-string",
            "simple-null-answer",
            "simple-list-question",
            "simple-int-topic-entity",
            "cwq-aliases-a-string",
            "grailqa-int-entity-name",
            "simple-null-id",
            "simple-list-id",
            "simple-bool-id",
            "grailqa-null-qid",
            "webqsp-int-answer-argument",
        ],
    )
    def test_bench_invalid_dataset_exit_2(self, tmp_path, capsys, format, text):
        from kgqa_engine.cli import main

        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["bench", "--dataset", str(path), "--format", format, "--kg-file", "x", "--script", "x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid dataset: ")

    @pytest.mark.parametrize(
        "text",
        [None, "{not json", json.dumps({"expect_stage": "decompose"}), "[" * 100_000 + "]" * 100_000],
        ids=["missing", "not-json", "not-a-record-list", "too-deep"],
    )
    def test_bench_invalid_script_exit_2(self, tmp_path, capsys, text):
        from kgqa_engine.cli import main

        script = tmp_path / "script.json"
        if text is not None:
            script.write_text(text)
        dataset = write_simple(tmp_path, SIMPLE_TWO[:1])
        code = main(
            ["bench", "--dataset", str(dataset), "--kg-file", str(FIXTURES / "path_fix" / "kg.tsv"),
             "--script", str(script)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid script: ")
        assert "Hits@1" not in captured.out

    @pytest.mark.parametrize(
        "flags, files, prefix",
        [
            (["--script", "{tmp}/missing.json"], {}, "invalid script: "),
            (["--script", "{tmp}/s.json"], {"s.json": "{not json"}, "invalid script: "),
            (["--script", "{tmp}/s.json"], {"s.json": "[" * 100_000 + "]" * 100_000}, "invalid script: "),
            (["--script", "{tmp}/s.json"], {"s.json": json.dumps({"expect_stage": "decompose"})},
             "invalid script: "),
            (["--config", "{tmp}/missing.cfg"], {}, "invalid config: "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "nonsense = 1\n"}, "invalid config: "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "# limits\nconcurrency = abc\n"},
             "invalid config: config file line 2: concurrency: "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "expand_unlabeled = ture\n"},
             "invalid config: config file line 1: expand_unlabeled: 'ture' is not a boolean"),
            (["--max-total-cycles", "3"], {}, "invalid config: "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "http_timeout = 0\n"}, "invalid config: http_timeout "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "http_timeout = nan\n"}, "invalid config: http_timeout "),
            (["--config", "{tmp}/c.cfg"], {"c.cfg": "entity_id_pattern = [\n"},
             "invalid config: entity_id_pattern "),
            (["--kg-file", "{tmp}/missing.tsv"], {}, "invalid graph: "),
            (["--kg-file", "{tmp}/g.tsv"], {"g.tsv": "m.0a\tr\n"}, "invalid graph: "),
            (["--kg-file", None], {}, "no knowledge graph configured: "),
            (["--kg-file", None, "--script", None], {}, "no reasoning backend configured: "),
            (["--out-dir", "{tmp}/taken"], {"taken": "a file"}, "invalid out-dir: "),
            (["--out-dir", "{tmp}/taken/traces"], {"taken": "a file"}, "invalid out-dir: "),
            (["--question", ""], {}, "invalid question: "),
        ],
        ids=[
            "script-missing", "script-not-json", "script-too-deep", "script-not-a-record-list",
            "config-missing", "config-unknown-key", "config-value-not-int", "config-value-not-bool",
            "config-value-out-of-range", "http-timeout-zero", "http-timeout-nan", "id-pattern-not-a-regex",
            "graph-missing", "graph-malformed", "no-graph", "no-graph-no-backend",
            "out-dir-is-a-file", "out-dir-under-a-file", "question-empty",
        ],
    )
    def test_run_invalid_input_exit_2(self, tmp_path, capsys, monkeypatch, flags, files, prefix):
        from kgqa_engine.cli import main

        for name in ("KGQA_SPARQL_URL", "KGQA_CHAT_URL"):
            monkeypatch.delenv(name, raising=False)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        # a case's flags replace these defaults; a None value drops the flag
        given = {"--kg-file": str(HAPPY / "kg.tsv"), "--script": str(HAPPY / "script.json")}
        for flag, value in zip(flags[::2], flags[1::2]):
            given[flag] = value and value.format(tmp=tmp_path)
        argv = ["run", "--question", load_meta("happy_path")["question"], "--topic-entity", "m.0nile"]
        for flag, value in given.items():
            if value is not None:
                argv += [flag, value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(prefix)
        assert captured.out == ""

    def test_bench_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        taken = tmp_path / "taken"
        taken.write_text("a file")
        dataset = write_simple(tmp_path, SIMPLE_TWO[:1])
        code = main(
            ["bench", "--dataset", str(dataset), "--kg-file", str(HAPPY / "kg.tsv"),
             "--script", str(HAPPY / "script.json"), "--out-dir", str(taken)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid out-dir: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        [None, "{not json\n", json.dumps({"stage": "act", "payload": {}}) + "\n", "[1]\n", "",
         "[" * 100_000 + "]" * 100_000 + "\n"],
        ids=["missing", "not-json", "no-decompose-first", "not-an-event", "empty", "too-deep"],
    )
    def test_replay_invalid_trace_exit_2(self, tmp_path, capsys, text):
        from kgqa_engine.cli import main

        trace = tmp_path / "run.trace.jsonl"
        if text is not None:
            trace.write_text(text)
        code = main(["replay", "--trace", str(trace), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid trace: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag",
        ["--config", "--script", "--sparql-url", "--chat-url", "--replan-limit",
         "--max-path-corrections", "--max-total-cycles", "--prune-threshold"],
    )
    def test_replay_rejects_engine_flags(self, capsys, flag):
        from kgqa_engine.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["replay", "--trace", str(HAPPY / "trace.golden.jsonl"), "--kg-file", str(HAPPY / "kg.tsv"),
                  flag, "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_bench_chat_backend(self, tmp_path, capsys, json_stub):
        from kgqa_engine.cli import main

        fixture = FIXTURES / "path_fix"
        script = json.loads((fixture / "script.json").read_text())
        JsonStub.responses = [
            (200, json.dumps({"choices": [{"message": {"content": r["response"]}}]}).encode())
            for r in script
        ]
        dataset = [
            {
                "id": "eiffel",
                "question": load_meta("path_fix")["question"],
                "topic_entities": [{"id": "m.0eiffel", "label": "Eiffel Tower"}],
                "answers": ["Paris"],
            }
        ]
        code = main(
            [
                "bench",
                "--dataset",
                str(write_simple(tmp_path, dataset)),
                "--kg-file",
                str(fixture / "kg.tsv"),
                "--chat-url",
                json_stub,
            ]
        )
        assert code == 0
        assert "Hits@1: 1.0000" in capsys.readouterr().out
        assert len(JsonStub.seen) == len(script)

    def test_replay_command(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        fixture = FIXTURES / "replan"
        meta = load_meta("replan")
        code = main(
            [
                "run",
                "--question",
                meta["question"],
                "--topic-entity",
                "m.0danube",
                "--kg-file",
                str(fixture / "kg.tsv"),
                "--script",
                str(fixture / "script.json"),
                "--out-dir",
                str(tmp_path),
                "--max-path-corrections",
                "1",
            ]
        )
        assert code == 0
        code = main(
            [
                "replay",
                "--trace",
                str(tmp_path / "run.trace.jsonl"),
                "--kg-file",
                str(fixture / "kg.tsv"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "Romania"

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_replay_golden_reproduces_every_event(self, capsys, name):
        from kgqa_engine.cli import main

        fixture = FIXTURES / name
        code = main(["replay", "--trace", str(fixture / "trace.golden.jsonl"), "--kg-file", str(fixture / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.strip() == load_meta(name)["gold"]

    def test_replay_names_first_differing_event(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        events = [json.loads(line) for line in (HAPPY / "trace.golden.jsonl").read_text().splitlines()]
        observe = next(e for e in events if e["stage"] == "observe")
        observe["payload"]["observation"]["candidates_total"] += 1
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        code = main(["replay", "--trace", str(trace), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == f"replay diverged: event {observe['sequence']} (observe) differs"

    def test_answer_stdout_cannot_encode_is_escaped_after_the_trace(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        records = json.loads((HAPPY / "script.json").read_text(encoding="utf-8"))
        for record in records:
            if record["expect_stage"] == "answer":
                record["response"] = "ANSWER: Ca\ud800iro"
        script = tmp_path / "surrogate.json"
        script.write_text(json.dumps(records), encoding="utf-8")
        argv = ["--kg-file", str(HAPPY / "kg.tsv"), "--out-dir", str(tmp_path)]
        meta = load_meta("happy_path")
        code = main(["run", "--question", meta["question"], "--topic-entity", "m.0nile", "--script", str(script),
                     *argv])
        captured = capsys.readouterr()  # capsys encodes stdout as strict UTF-8
        assert code == 0, captured.err
        assert captured.out == "Ca\\ud800iro\n"
        assert captured.err == f"trace: {tmp_path / 'run.trace.jsonl'}\n"
        trace = load_trace_jsonl(tmp_path / "run.trace.jsonl")
        assert trace[-1]["payload"]["answer"] == "Ca\ud800iro"
        code = main(["replay", "--trace", str(tmp_path / "run.trace.jsonl"), *argv])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "Ca\\ud800iro\n"
        assert (tmp_path / "replay.trace.jsonl").read_bytes() != b""

    def test_answer_stdout_can_encode_is_printed_as_it_is(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        records = json.loads((HAPPY / "script.json").read_text(encoding="utf-8"))
        for record in records:
            if record["expect_stage"] == "answer":
                record["response"] = "ANSWER: Caïro \\ud800"
        script = tmp_path / "accented.json"
        script.write_text(json.dumps(records), encoding="utf-8")
        code = main(["run", "--question", load_meta("happy_path")["question"], "--topic-entity", "m.0nile",
                     "--script", str(script), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == "Caïro \\ud800\n"

    def test_failed_decompose_trace_replays(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        script = tmp_path / "junk.json"
        script.write_text(json.dumps([{"expect_stage": "decompose", "response": "junk"}] * 3))
        code = main(["run", "--question", "q?", "--topic-entity", "m.0nile", "--kg-file", str(HAPPY / "kg.tsv"),
                     "--script", str(script), "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "unknown"
        code = main(["replay", "--trace", str(tmp_path / "run.trace.jsonl"), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.strip() == "unknown"

    def test_replay_of_a_raised_backend_call_matches(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        engine, meta = build_engine("happy_path"), load_meta("happy_path")
        scripted = engine.backend

        def complete(prompt, stage):
            if stage == "evaluate":
                raise BackendUnavailable("connection refused")
            return scripted.complete(prompt, stage)

        engine.backend = SimpleNamespace(complete=complete)
        result = engine.run(meta["question"], meta["topic_entities"])
        assert result.error_note.startswith("evaluate failed")
        # the trace records the raised call, and the replay raises it again
        finish = result.trace[-1].payload
        assert finish["backend_calls"] == [{"stage": "evaluate", "error": "BackendUnavailable",
                                            "message": "connection refused"}]
        trace = write_trace(result.trace, tmp_path, "run")
        code = main(["replay", "--trace", trace, "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.strip() == result.answer

    @pytest.mark.parametrize(
        "error", ["ValueError", "ScriptMismatch", "errors", 5], ids=["builtin", "not-engine", "module", "int"]
    )
    def test_replay_of_a_call_raising_no_engine_error_exit_2(self, tmp_path, capsys, error):
        from kgqa_engine.cli import main

        events = [json.loads(line) for line in (HAPPY / "trace.golden.jsonl").read_text().splitlines()]
        events[0]["payload"]["backend_calls"] = [{"stage": "decompose", "error": error, "message": "m"}]
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        code = main(["replay", "--trace", str(trace), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid trace: script record 0: ")
        assert captured.out == ""

    def test_replay_of_a_wrongly_typed_config_exit_2(self, tmp_path, capsys):
        from kgqa_engine.cli import main

        events = [json.loads(line) for line in (HAPPY / "trace.golden.jsonl").read_text().splitlines()]
        events[0]["payload"]["config"]["context_chain_limit"] = 0.5
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        code = main(["replay", "--trace", str(trace), "--kg-file", str(HAPPY / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "invalid trace: context_chain_limit must be int, not float\n"
        assert captured.out == ""


class TestConfig:
    def test_snapshot_is_a_fresh_dict_equal_to_asdict(self):
        config = EngineConfig(prune_threshold=5, expand_unlabeled=True, chat_model="m")
        snapshot = config.snapshot()
        assert list(snapshot.items()) == list(dataclasses.asdict(config).items())
        snapshot["prune_threshold"] = 6
        assert config.snapshot()["prune_threshold"] == config.prune_threshold == 5

    def test_file_env_flag_precedence(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("replan_limit = 4\nprune_threshold = 10\n# comment\n")
        config = EngineConfig.load(
            str(cfg),
            env={"KGQA_PRUNE_THRESHOLD": "20"},
            overrides={"max_total_cycles": 9},
        )
        assert config.replan_limit == 4
        assert config.prune_threshold == 20  # env beats file
        assert config.max_total_cycles == 9  # flag beats both

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            EngineConfig.load(str(cfg), env={})

    def test_env_float_and_str(self):
        config = EngineConfig.load(env={"KGQA_HTTP_TIMEOUT": "2.5", "KGQA_CHAT_MODEL": " Model-7b "})
        assert config.http_timeout == 2.5 and isinstance(config.http_timeout, float)
        assert config.chat_model == " Model-7b "

    @pytest.mark.parametrize(
        "raw, expected",
        [("1", True), ("true", True), ("yes", True), ("on", True), ("0", False), ("no", False),
         ("false", False), ("off", False), (" TRUE ", True)],
    )
    def test_env_bool(self, raw, expected):
        assert EngineConfig.load(env={"KGQA_EXPAND_UNLABELED": raw}).expand_unlabeled is expected

    @pytest.mark.parametrize("raw", ["ture", "", "2", "y", "enabled"])
    def test_env_bool_misspelling_rejected(self, raw):
        with pytest.raises(ValueError, match=f"^KGQA_EXPAND_UNLABELED: {raw!r} is not a boolean"):
            EngineConfig.load(env={"KGQA_EXPAND_UNLABELED": raw})

    def test_env_value_error_names_variable(self):
        with pytest.raises(ValueError, match="^KGQA_CONCURRENCY: invalid literal for int"):
            EngineConfig.load(env={"KGQA_CONCURRENCY": "abc"})
        with pytest.raises(ValueError, match="^KGQA_HTTP_TIMEOUT: could not convert"):
            EngineConfig.load(env={"KGQA_HTTP_TIMEOUT": "soon"})

    def test_file_value_error_names_line_and_key(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("replan_limit = 4\n\nmax_total_cycles = many\n")
        with pytest.raises(ValueError, match="^config file line 3: max_total_cycles: invalid literal"):
            EngineConfig.load(str(cfg), env={})

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retry counts"):
            EngineConfig.load(env={}, overrides={"http_retries": -1})

    def test_negative_context_chain_limit_rejected(self):
        with pytest.raises(ValueError, match="context_chain_limit"):
            EngineConfig(context_chain_limit=-1).validate()
        EngineConfig(context_chain_limit=0).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("prune_threshold", 2.5), ("context_chain_limit", 0.5), ("max_total_cycles", "40"),
         ("replan_limit", True), ("http_retries", None), ("http_timeout", True), ("http_timeout", "30"),
         ("expand_unlabeled", "no"), ("expand_unlabeled", 1), ("chat_url", None), ("entity_id_pattern", 5)],
    )
    def test_wrongly_typed_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            EngineConfig(**{field: value}).validate()

    def test_whole_number_timeout_accepted(self):
        EngineConfig(http_timeout=5).validate()

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(replan_limit=0).validate()
        with pytest.raises(ValueError):
            EngineConfig(max_total_cycles=3).validate()
        for timeout in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^http_timeout "):
                EngineConfig(http_timeout=timeout).validate()
        with pytest.raises(ValueError, match="^entity_id_pattern "):
            EngineConfig(entity_id_pattern="[").validate()
