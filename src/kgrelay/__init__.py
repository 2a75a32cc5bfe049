"""Knowledge-graph question answering with reasoning-path repair.

The pipeline: a specialized model drafts a reasoning path (topic entity,
relation chain, typed constraints); the graph checks whether the chain
can execute; unreachable chains are rebuilt by a KG-guided beam search
that consults a general model; the final path runs with progressive
constraint relaxation. A bridge converts paths to and from a small
SPARQL subset, and an evaluation harness scores answers and cost.
"""
