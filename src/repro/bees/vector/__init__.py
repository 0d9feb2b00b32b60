"""Vector bees: the columnar NumPy execution tier.

Fused pipelines (:class:`~repro.bees.pipeline.codegen.PipelineSpec`)
compiled into whole-column kernels over chunk-cached typed arrays —
see ``docs/VECTOR.md`` for the tier's design and contracts.
"""

from repro.bees.drivers import fuse_vector_plan
from repro.bees.pipeline.codegen import PipelineSpec
from repro.bees.vector.chunks import Chunk, ChunkCache, chunk_from_rows, decode_relation
from repro.bees.vector.codegen import VectorSpec, generate_vector

__all__ = [
    "Chunk",
    "ChunkCache",
    "PipelineSpec",
    "VectorSpec",
    "chunk_from_rows",
    "decode_relation",
    "fuse_vector_plan",
    "generate_vector",
]
