"""Tests for batch manifests and the CLI's batch subcommand / error handling."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.engine.manifest import ManifestEntry, load_jobs, load_manifest, parse_manifest
from repro.errors import ManifestError

SCHEMA_TEXT = """
Bug -> descr :: Lit, related :: Bug*
Lit -> eps
"""

GOOD_TURTLE = """
@prefix ex: <http://example.org/> .
ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .
ex:b2 ex:descr ex:l2 .
"""

BAD_TURTLE = """
@prefix ex: <http://example.org/> .
ex:b1 ex:related ex:b2 .
"""

GOOD_NTRIPLES = (
    "<http://example.org/b1> <http://example.org/descr> <http://example.org/l1> .\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "schema.shex").write_text(SCHEMA_TEXT)
    (tmp_path / "good.ttl").write_text(GOOD_TURTLE)
    (tmp_path / "bad.ttl").write_text(BAD_TURTLE)
    (tmp_path / "data.nt").write_text(GOOD_NTRIPLES)
    return tmp_path


class TestManifest:
    def test_plain_manifest_parses_and_resolves(self, workspace):
        manifest = workspace / "jobs.txt"
        manifest.write_text("# comment\n\ngood.ttl schema.shex\nbad.ttl  schema.shex\n")
        entries = load_manifest(str(manifest))
        assert len(entries) == 2
        assert entries[0].data == str(workspace / "good.ttl")
        assert entries[0].schema == str(workspace / "schema.shex")

    def test_plain_manifest_rejects_bad_line(self):
        with pytest.raises(ManifestError, match="expected 'data-path schema-path'"):
            parse_manifest("only-one-column\n", name="m.txt")

    def test_json_manifest(self, workspace):
        manifest = workspace / "jobs.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"data": "good.ttl", "schema": "schema.shex", "label": "smoke"},
                        {"data": "data.nt", "schema": "schema.shex"},
                    ]
                }
            )
        )
        entries = load_manifest(str(manifest))
        assert entries[0].label == "smoke"
        assert entries[1].data_is_ntriples  # autodetected from .nt

    def test_json_manifest_rejects_malformed(self):
        with pytest.raises(ManifestError, match="invalid JSON"):
            parse_manifest("{nope", name="m.json")
        with pytest.raises(ManifestError, match="'jobs' list"):
            parse_manifest(json.dumps({"not-jobs": []}), name="m.json")
        with pytest.raises(ManifestError, match="'data' and 'schema'"):
            parse_manifest(json.dumps({"jobs": [{"data": "x"}]}), name="m.json")
        with pytest.raises(ManifestError, match="must be a boolean"):
            parse_manifest(
                json.dumps({"jobs": [{"data": "x", "schema": "y", "ntriples": "yes"}]}),
                name="m.json",
            )

    def test_ntriples_flag_overrides_extension(self):
        entry = ManifestEntry(data="data.nt", schema="s.shex", ntriples=False)
        assert not entry.data_is_ntriples

    def test_load_jobs_caches_file_loads(self, workspace):
        entries = load_manifest_text(workspace, "good.ttl schema.shex\ngood.ttl schema.shex\n")
        jobs = load_jobs(entries)
        assert jobs[0].graph is jobs[1].graph
        assert jobs[0].schema is jobs[1].schema


def load_manifest_text(workspace, text):
    manifest = workspace / "jobs.txt"
    manifest.write_text(text)
    return load_manifest(str(manifest))


class TestBatchCommand:
    def test_batch_all_valid(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\ndata.nt schema.shex\n")
        code = main(["batch", "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("VALID") >= 2
        # The summary is human diagnostics: stderr only, so stdout stays
        # machine-parseable (one line per job).
        assert "job(s)" in captured.err and "job(s)" not in captured.out
        assert len(captured.out.strip().splitlines()) == 2

    def test_batch_with_invalid_job(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\nbad.ttl schema.shex\n")
        code = main(["batch", "--manifest", str(manifest), "--show-untyped"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out and "untyped" in out

    def test_batch_duplicate_jobs_hit_cache(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\ngood.ttl schema.shex\n")
        code = main(["batch", "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[cache]" in out

    def test_batch_thread_backend(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\nbad.ttl schema.shex\n")
        code = main(["batch", "--manifest", str(manifest), "--backend", "thread", "--jobs", "2"])
        assert code == 1
        assert "thread" in capsys.readouterr().err

    def test_batch_empty_manifest(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("# nothing here\n")
        code = main(["batch", "--manifest", str(manifest)])
        assert code == 0
        assert "no jobs" in capsys.readouterr().err


class TestCLIErrorHandling:
    def test_missing_schema_file_exits_2(self, workspace, capsys):
        code = main(
            ["validate", "--schema", str(workspace / "nope.shex"), "--data", str(workspace / "good.ttl")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "nope.shex" in err

    def test_missing_data_file_exits_2(self, workspace, capsys):
        code = main(
            ["validate", "--schema", str(workspace / "schema.shex"), "--data", str(workspace / "nope.ttl")]
        )
        assert code == 2
        assert "nope.ttl" in capsys.readouterr().err

    def test_malformed_schema_exits_2(self, workspace, capsys):
        broken = workspace / "broken.shex"
        broken.write_text("A -> x :: Undefined\n")
        code = main(["validate", "--schema", str(broken), "--data", str(workspace / "good.ttl")])
        assert code == 2
        assert "undefined type" in capsys.readouterr().err

    def test_malformed_data_exits_2(self, workspace, capsys):
        broken = workspace / "broken.ttl"
        broken.write_text("this is not turtle @@@\n")
        code = main(["validate", "--schema", str(workspace / "schema.shex"), "--data", str(broken)])
        assert code == 2

    def test_missing_manifest_exits_2(self, workspace, capsys):
        code = main(["batch", "--manifest", str(workspace / "nope.txt")])
        assert code == 2

    def test_malformed_manifest_exits_2(self, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("just-one-column\n")
        code = main(["batch", "--manifest", str(manifest)])
        assert code == 2

    def test_nt_extension_autodetected(self, workspace, capsys):
        code = main(
            ["validate", "--schema", str(workspace / "schema.shex"), "--data", str(workspace / "data.nt")]
        )
        assert code == 0
        assert "VALID" in capsys.readouterr().out


class TestClosedStdout:
    """``validate --show-typing ... | head -1``: the reader leaves early."""

    @pytest.mark.parametrize("valid", [True, False])
    def test_closed_stdout_is_quiet_and_keeps_the_verdict_status(self, tmp_path, valid):
        # 5,000 bugs print far more than a pipe buffer holds, so the child is
        # still writing when the reader closes its end.  With a ``note`` for
        # the ``descr`` of the last bug, every bug is untyped and INVALID
        # lists them all.
        count = 5000
        lines = ["@prefix ex: <http://example.org/> ."]
        for i in range(count):
            facts = [f"ex:related ex:b{i + 1}"] if i + 1 < count else []
            last = "descr" if valid or i + 1 < count else "note"
            facts.append(f"ex:{last} ex:l{i}")
            lines.append(f"ex:b{i} " + " ; ".join(facts) + " .")
        data = tmp_path / "bugs.ttl"
        data.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "schema.shex"
        schema.write_text("Bug -> descr :: Lit, related :: Bug?\nLit -> eps\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "validate", "--show-typing",
             "--schema", str(schema), "--data", str(data)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert first.startswith(b"VALID:" if valid else b"INVALID: 5000 node(s)")
        assert stderr == b""
        assert code == (0 if valid else 1)
