"""Interest-aligned transcreation of reading-comprehension items.

The package covers the whole workflow: ingesting RACE-style items, measuring
passages, running the five-step LLM transcreation pipeline, judging and
reviewing the output, and analyzing experiment results.
"""

from .corpus import (
    BloomLevel,
    InterestProfile,
    Question,
    ReadingItem,
    TagSet,
    TopicTaxonomy,
    load_items,
    load_profiles,
    load_tagset,
    load_taxonomy,
    save_items,
)
from .errors import GatewayError, TranscreateError, ValidationError
from .gateway import CompletionRequest, Gateway, MockBackend, PromptTemplate, ProviderConfig
from .pipeline import (
    TaggedPassage,
    TranscreationPipeline,
    TranscreationRecord,
    Work,
    assign_topics,
    load_records,
    save_records,
    strip_tags,
)
from .stats import (
    StatTestResult,
    StudentRecord,
    balanced_split,
    experiment_report,
    likert_summary,
    mann_whitney_u,
    score_test,
    wilcoxon_signed_rank,
)
from .textmetrics import PassageReport, corpus_summary, passage_report
from .validation import (
    AgreementReport,
    BloomJudge,
    JudgeVerdict,
    ReviewDecision,
    ReviewQueue,
    agreement_report,
    cohen_kappa,
    qa_report,
)

__version__ = "0.1.0"
