"""Pipeline bees: fused, batch-at-a-time compilation of plan pipelines.

See :mod:`repro.bees.pipeline.fusion` for what fuses,
:mod:`repro.bees.pipeline.codegen` for the generated loop,
:mod:`repro.bees.drivers` for the driver node every tier shares, and
``docs/PIPELINE.md`` for the design overview.
"""

from repro.bees.pipeline.codegen import PipelineSpec, generate_pipeline
from repro.bees.pipeline.fusion import fuse_plan

__all__ = [
    "PipelineSpec",
    "generate_pipeline",
    "fuse_plan",
]
