"""PEVPM: the Performance Evaluating Virtual Parallel Machine.

The paper's primary contribution (Sections 5-6): an execution-driven
performance model that simulates a message-passing program's time
structure by interleaved sweep/match phases, sampling operation times
from MPIBench distributions conditioned on the contention scoreboard.

Typical use::

    from repro.pevpm import parse_annotations, predict, timing_from_db

    model = parse_annotations(open("jacobi.c").read())
    timing = timing_from_db(db, mode="distribution")
    prediction = predict(model, nprocs=64, timing=timing, runs=10)
    prediction.mean_time
"""

from .directives import (
    COLLECTIVE_OPS,
    Block,
    Collective,
    Loop,
    Message,
    MessageKind,
    ModelError,
    Runon,
    Serial,
    validate_model,
)
from .compile import (
    CompiledProgram,
    clear_compile_cache,
    compile_program,
    compiled_program_for,
)
from .expr import ExprError, evaluate
from .interpreter import compile_model, lower_collective, model_messages
from .machine import ANY_SOURCE, MachineResult, ModelDeadlock, ProcContext, VirtualMachine
from .parallel import (
    VECTOR_BATCH,
    RunGroup,
    RunOutcome,
    as_seed_sequence,
    chunk_seed,
    evaluate_groups,
    run_seeds,
)
from .vector import BatchedVirtualMachine
from . import patterns
from .parser import ParseError, parse_annotations
from ..stats import PrecisionTarget
from .predict import (
    AdaptiveResult,
    Prediction,
    PredictionCache,
    build_prediction,
    compare_timing_modes,
    evaluate_with_precision,
    predict,
    predict_speedups,
    prediction_doc,
    prediction_from_doc,
)
from .scoreboard import Scoreboard, ScoreboardEntry
from .symbolic import StaticProfile, SymbolicModel, extract_symbolic_model, static_profile
from .timeline import iteration_profile, render_run_spread, render_timeline
from .timing import (
    AverageTiming,
    DistributionTiming,
    HockneyTiming,
    MinimumTiming,
    ParametricTiming,
    TimingModel,
    clamp_times,
    timing_from_db,
)
from .trace import LossReport, TraceEvent, TraceRecorder

__all__ = [
    "ANY_SOURCE",
    "AdaptiveResult",
    "AverageTiming",
    "BatchedVirtualMachine",
    "Block",
    "COLLECTIVE_OPS",
    "Collective",
    "CompiledProgram",
    "DistributionTiming",
    "ExprError",
    "HockneyTiming",
    "Loop",
    "LossReport",
    "MachineResult",
    "Message",
    "MessageKind",
    "MinimumTiming",
    "ModelDeadlock",
    "ModelError",
    "ParametricTiming",
    "ParseError",
    "PrecisionTarget",
    "Prediction",
    "PredictionCache",
    "ProcContext",
    "RunGroup",
    "RunOutcome",
    "Runon",
    "Scoreboard",
    "ScoreboardEntry",
    "Serial",
    "StaticProfile",
    "SymbolicModel",
    "TimingModel",
    "TraceEvent",
    "TraceRecorder",
    "VECTOR_BATCH",
    "VirtualMachine",
    "as_seed_sequence",
    "build_prediction",
    "chunk_seed",
    "clamp_times",
    "compare_timing_modes",
    "prediction_doc",
    "prediction_from_doc",
    "clear_compile_cache",
    "compile_model",
    "compile_program",
    "compiled_program_for",
    "evaluate",
    "evaluate_groups",
    "evaluate_with_precision",
    "lower_collective",
    "run_seeds",
    "extract_symbolic_model",
    "static_profile",
    "model_messages",
    "parse_annotations",
    "patterns",
    "predict",
    "predict_speedups",
    "render_timeline",
    "render_run_spread",
    "iteration_profile",
    "timing_from_db",
    "validate_model",
]
