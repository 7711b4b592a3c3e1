"""Scene-graph-grounded preference data construction and DPO evaluation."""

from .dpo import (
    DpoConfig,
    PreferenceRecord,
    ToyPolicy,
    build_preference_records,
    dpo_loss,
    export_jsonl,
    import_jsonl,
    toy_policy_gradient,
)
from .embed import EmbedConfig, Embedding, embed_texts, pairwise_distance
from .generate import (
    GeneratorConfig,
    Instance,
    generate_rationale,
    render_negative_cot_prompt,
    render_positive_cot_prompt,
    render_scene_graph_prompt,
)
from .grounding import ResidualPool, extract_grounded_subgraph, residual_pool
from .perturb import (
    EditTrace,
    NegativeCandidate,
    PerturbationOp,
    apply_operator,
    generate_negatives,
    recompose,
)
from .pipeline import PipelineConfig, RunReport, instance_seed, run_pipeline
from .rationale import Rationale
from .scene_graph import (
    SceneGraph,
    element_universe,
    jaccard_overlap,
    parse_scene_graph,
    serialize_scene_graph,
)
from .selection import SelectionConfig, select_diverse

__version__ = "0.1.0"

__all__ = [
    "DpoConfig",
    "EditTrace",
    "EmbedConfig",
    "Embedding",
    "GeneratorConfig",
    "Instance",
    "NegativeCandidate",
    "PerturbationOp",
    "PipelineConfig",
    "PreferenceRecord",
    "Rationale",
    "ResidualPool",
    "RunReport",
    "SceneGraph",
    "SelectionConfig",
    "ToyPolicy",
    "apply_operator",
    "build_preference_records",
    "dpo_loss",
    "element_universe",
    "embed_texts",
    "export_jsonl",
    "extract_grounded_subgraph",
    "generate_negatives",
    "generate_rationale",
    "import_jsonl",
    "instance_seed",
    "jaccard_overlap",
    "pairwise_distance",
    "parse_scene_graph",
    "recompose",
    "render_negative_cot_prompt",
    "render_positive_cot_prompt",
    "render_scene_graph_prompt",
    "residual_pool",
    "run_pipeline",
    "select_diverse",
    "serialize_scene_graph",
    "toy_policy_gradient",
]
