"""In-memory data pipelines and synthetic production-traffic generators."""

from .batch import Batch
from .pipeline import (
    PipelineExhausted,
    PipelineProtocolError,
    SingleStepPipeline,
    TwoStreamPipeline,
)
from .synthetic import (
    CtrTaskConfig,
    CtrTeacher,
    LmTaskConfig,
    LmTeacher,
    NullSource,
    SequenceTaskConfig,
    SequenceTeacher,
    VisionTaskConfig,
    VisionTeacher,
)

__all__ = [
    "Batch",
    "CtrTaskConfig",
    "CtrTeacher",
    "LmTaskConfig",
    "LmTeacher",
    "NullSource",
    "PipelineExhausted",
    "PipelineProtocolError",
    "SequenceTaskConfig",
    "SequenceTeacher",
    "SingleStepPipeline",
    "TwoStreamPipeline",
    "VisionTaskConfig",
    "VisionTeacher",
]
