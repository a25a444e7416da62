"""repro — Containment of Shape Expression Schemas for RDF.

A reference implementation of the decision procedures, constructions, and
complexity separations of *"Containment of Shape Expression Schemas for RDF"*
(S. Staworko and P. Wieczorek, PODS 2019 / arXiv:1803.07303):

* regular bag expressions, shape expression schemas, and their validation
  semantics over (RDF) graphs;
* shape graphs, embeddings, and the polynomial witness search of Theorem 3.4;
* the tractable containment procedure for DetShEx0- (Corollary 4.4) with
  characterizing graphs (Lemma 4.2);
* counter-example search, kind-based compression, compressed-graph validation
  via Presburger arithmetic (Section 6);
* executable versions of the paper's hardness reductions (Theorems 3.5, 4.5,
  Lemma 5.1).

The most common entry points are re-exported here::

    from repro import parse_schema, contains, satisfies

    old = parse_schema("Bug -> descr :: Lit, related :: Bug*\\nLit -> eps")
    new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\\nLit -> eps")
    result = contains(old, new)      # old ⊆ new ?
    print(result.verdict)            # Verdict.CONTAINED
"""

from repro._lazy import lazy_exports

# Each name's defining module is imported on first access, so importing one
# submodule (``repro.cli`` for a one-shot ``validate``) does not load them all.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.bags": ("Bag",),
    "repro.core.intervals": ("Interval", "ONE", "OPT", "PLUS", "STAR", "ZERO"),
    "repro.rbe.ast": ("RBE", "atom", "concat", "disj"),
    "repro.rbe.parser": ("parse_rbe",),
    "repro.rbe.membership": ("rbe_matches",),
    "repro.graphs.graph": ("Edge", "Graph"),
    "repro.graphs.compressed": ("CompressedGraph", "pack_simple_graph"),
    "repro.graphs.store": ("Delta", "GraphStore", "kind_compress"),
    "repro.rdf.model": ("IRI", "Literal", "BlankNode", "Triple", "RDFGraph"),
    "repro.rdf.parser": ("parse_ntriples", "parse_turtle_lite"),
    "repro.rdf.convert": ("load_graph", "rdf_to_simple_graph"),
    "repro.schema.shex": ("ShExSchema",),
    "repro.schema.parser": ("parse_schema",),
    "repro.schema.classes": ("SchemaClass", "schema_class"),
    "repro.schema.convert": ("schema_to_shape_graph", "shape_graph_to_schema"),
    "repro.schema.typing": ("Typing", "maximal_typing"),
    "repro.schema.validation": ("satisfies", "satisfies_compressed", "validate"),
    "repro.embedding.simulation": ("embeds", "find_embedding", "maximal_simulation"),
    "repro.containment.api": ("Verdict", "ContainmentResult", "contains", "equivalent"),
    "repro.containment.characterizing": (
        "characterizing_graph",
        "characterizing_graph_for_schema",
    ),
    "repro.containment.counterexample": ("find_counterexample",),
    "repro.containment.detshex": ("contains_detshex0_minus",),
    "repro.engine.compiled": ("CompiledSchema", "compile_schema"),
    "repro.engine.containment": ("ContainmentEngine",),
    "repro.engine.jobs": ("EngineReport", "JobResult"),
    "repro.engine.fixpoint": (
        "FixpointStats",
        "maximal_typing_fixpoint",
        "retype_incremental",
    ),
    "repro.engine.validation": ("RevalidationOutcome", "ValidationEngine"),
    "repro.serve.async_engine": ("AsyncContainmentEngine", "AsyncValidationEngine"),
    "repro.serve.client": ("DaemonClient",),
})

__version__ = "1.9.0"

__all__ += ["__version__"]
