"""Semantic novelty scoring for scientific texts.

Scores documents against a query in a pretrained word-embedding space
with the Relaxed Word Mover's Distance, then applies a nonparametric
significance protocol (Kruskal-Wallis plus pairwise exact Wilcoxon
rank-sum tests) to separate redundant literature from novel
contributions.
"""

__version__ = "0.1.0"

from .claimselect import (
    DEFAULT_CUE_WORDS,
    LdaModel,
    SentenceRecord,
    fit_lda,
    lda_select,
    ma_select,
    moving_average,
    split_sentences,
)
from .embeddings import (
    EmbeddingTable,
    cosine_similarity,
    load_embeddings,
    similarity_matrix,
    vector_of,
)
from .errors import (
    ClaimdistError,
    ConfigError,
    DataError,
    EmbeddingParseError,
    EmptyDocumentError,
    InternalInvariantError,
    OracleSizeError,
    OutOfVocabularyError,
)
from .pipeline import (
    CorpusManifest,
    ExperimentReport,
    SelectorConfig,
    bench_scaling,
    emit_report,
    load_corpus,
    load_manifest,
    run_experiment,
)
from .stats import (
    GroupSummary,
    HypothesisTestResult,
    chi_square_sf,
    kruskal_wallis,
    median_iqr,
    wilcoxon_rank_sum_exact,
)
from .textprep import (
    NBow,
    StopwordList,
    TokenizedDoc,
    build_nbow,
    default_stopwords,
    load_stopwords,
    normalize_and_tokenize,
    remove_stopwords,
)
from .transport import (
    DistanceResult,
    TransportPlan,
    ground_cost,
    lc_rwmd_batch,
    rwmd_distance,
    wmd_exact,
)

__all__ = [
    "__version__",
    "ClaimdistError",
    "ConfigError",
    "CorpusManifest",
    "DEFAULT_CUE_WORDS",
    "DataError",
    "DistanceResult",
    "EmbeddingParseError",
    "EmbeddingTable",
    "EmptyDocumentError",
    "ExperimentReport",
    "GroupSummary",
    "HypothesisTestResult",
    "InternalInvariantError",
    "LdaModel",
    "NBow",
    "OracleSizeError",
    "OutOfVocabularyError",
    "SelectorConfig",
    "SentenceRecord",
    "StopwordList",
    "TokenizedDoc",
    "TransportPlan",
    "bench_scaling",
    "build_nbow",
    "chi_square_sf",
    "cosine_similarity",
    "default_stopwords",
    "emit_report",
    "fit_lda",
    "ground_cost",
    "kruskal_wallis",
    "lc_rwmd_batch",
    "lda_select",
    "load_corpus",
    "load_embeddings",
    "load_manifest",
    "load_stopwords",
    "ma_select",
    "median_iqr",
    "moving_average",
    "normalize_and_tokenize",
    "remove_stopwords",
    "run_experiment",
    "rwmd_distance",
    "similarity_matrix",
    "split_sentences",
    "vector_of",
    "wilcoxon_rank_sum_exact",
    "wmd_exact",
]
