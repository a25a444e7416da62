"""The public API surface: everything advertised in ``repro.__all__`` exists and works."""

import importlib
import json
import os
import subprocess
import sys

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a one-shot ``shex-containment validate`` must never import.
VALIDATE_NEVER_LOADS = (
    "numpy",
    "scipy",
    "networkx",
    "asyncio",
    "repro.serve",
    "repro.persist",
    "repro.containment",
    "repro.workloads",
)

_FOOTPRINT_PROGRAM = """
import contextlib, io, json, sys
import repro.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["validate", "--schema", sys.argv[1], "--data", sys.argv[2]])
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


_DAEMON_FOOTPRINT_PROGRAM = """
import json, sys
import repro.serve.cli
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread
address, data_dir, schema, data = sys.argv[1:5]
with start_in_thread(socket_path=address, data_dir=data_dir):
    with DaemonClient.connect(address) as client:
        if schema:
            client.load_schema("bug", text=schema)
            client.update_graph("bugs", data_text=data)
        answer = client.revalidate("bugs", "bug")
print(json.dumps({"verdict": answer["verdict"], "mode": answer["mode"],
                  "numpy": "numpy" in sys.modules}))
"""


def _cyclic_bugs(count: int) -> str:
    """Turtle for ``count`` bugs in one ``related`` ring, each with a literal."""
    lines = ["@prefix ex: <http://example.org/> ."]
    lines += [
        f'ex:b{i} ex:descr "d{i}" ; ex:related ex:b{(i + 1) % count} .'
        for i in range(count)
    ]
    return "\n".join(lines) + "\n"


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackages_import(self):
        for module in (
            "repro.core",
            "repro.rbe",
            "repro.graphs",
            "repro.rdf",
            "repro.schema",
            "repro.presburger",
            "repro.embedding",
            "repro.containment",
            "repro.reductions",
            "repro.workloads",
            "repro.util",
            "repro.obs",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_readme_quickstart_snippet(self):
        """The README quickstart must keep working verbatim."""
        schema = repro.parse_schema(
            """
            Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*
            User -> name :: Literal, email :: Literal?
            Employee -> name :: Literal, email :: Literal
            Literal -> isLiteral :: Marker
            Marker -> eps
            """
        )
        evolved = repro.parse_schema(
            """
            Bug -> descr :: Literal, reportedBy :: User, reproducedBy :: Employee*, related :: Bug*
            User -> name :: Literal, email :: Literal?
            Employee -> name :: Literal, email :: Literal
            Literal -> isLiteral :: Marker
            Marker -> eps
            """
        )
        result = repro.contains(schema, evolved)
        assert result.verdict is repro.Verdict.CONTAINED
        assert result.method == "detshex0-minus-embedding"

    def test_docstring_example_in_init(self):
        old = repro.parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = repro.parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        assert repro.contains(old, new).verdict is repro.Verdict.CONTAINED

    def test_exceptions_form_a_hierarchy(self):
        from repro import errors

        for name in (
            "IntervalError",
            "RBESyntaxError",
            "SchemaSyntaxError",
            "SchemaClassError",
            "GraphError",
            "NotSimpleGraphError",
            "RDFSyntaxError",
            "PresburgerError",
            "ReductionError",
            "BudgetExceededError",
        ):
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError)


class TestImportFootprint:
    def test_one_shot_validate_loads_only_what_it_runs(self, tmp_path):
        schema = tmp_path / "schema.shex"
        schema.write_text("Bug -> descr :: Lit, related :: Bug*\nLit -> eps\n")
        data = tmp_path / "bugs.ttl"
        data.write_text(
            "@prefix ex: <http://example.org/> .\n"
            "ex:b1 ex:descr ex:l1 ; ex:related ex:b2, ex:b3 .\n"
            "ex:b2 ex:descr ex:l2 .\n"
            "ex:b3 ex:related ex:b1 .\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        completed = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_PROGRAM, str(schema), str(data)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["code"] == 1
        assert report["out"].startswith("INVALID: 2 node(s)")
        loaded = [
            module for module in report["modules"]
            if any(module == banned or module.startswith(banned + ".")
                   for banned in VALIDATE_NEVER_LOADS)
        ]
        assert loaded == []

    def test_one_shot_validate_through_the_kind_view_loads_no_numpy(self, tmp_path):
        # 120 bugs in a ring: past the view floor, typed as a 2-kind quotient
        # by the object kernel.
        schema = tmp_path / "schema.shex"
        schema.write_text("Bug -> descr :: Lit, related :: Bug\nLit -> isLiteral :: M\nM -> eps\n")
        data = tmp_path / "ring.ttl"
        data.write_text(_cyclic_bugs(120))
        completed = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_PROGRAM, str(schema), str(data)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert (report["code"], report["out"].split(":")[0]) == (0, "VALID")
        assert "numpy" not in report["modules"]

    def test_daemon_restart_on_a_durable_store_loads_no_numpy(self, tmp_path):
        # One daemon persists a store; a second opens it (snapshot decode,
        # seeded typings) and revalidates.  Neither region reaches the
        # vectorised kernel's size floor, so numpy is never imported.
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        address, data_dir = str(tmp_path / "d.sock"), str(tmp_path / "data")
        schema = "Bug -> descr :: Lit, related :: Bug*\nLit -> isLiteral :: M\nM -> eps\n"
        reports = []
        for phase_schema in (schema, ""):
            completed = subprocess.run(
                [sys.executable, "-c", _DAEMON_FOOTPRINT_PROGRAM, address, data_dir,
                 phase_schema, _cyclic_bugs(120)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            reports.append(json.loads(completed.stdout))
        assert [report["verdict"] for report in reports] == ["valid", "valid"]
        assert reports[1]["mode"] != "full"  # the restart reused its typing
        assert [report["numpy"] for report in reports] == [False, False]

    def test_daemon_start_loads_no_containment_code(self, tmp_path):
        # The containment engine imports its solver on the first ``contains``
        # request: a daemon that restarts and revalidates never loads it.
        program = (
            "import sys, repro.serve.cli\n"
            "from repro.serve.daemon import ValidationDaemon\n"
            "ValidationDaemon(socket_path=sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m == 'repro.containment'"
            " or m.startswith('repro.containment.')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program, str(tmp_path / "s.sock")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_store_layer_does_not_import_numpy(self):
        # The versioned store and its partition maintainer are pure Python,
        # so they behave the same whether or not numpy is installed.
        program = (
            "import sys, repro.graphs.store, repro.graphs.partition; "
            "print('numpy' in sys.modules)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
