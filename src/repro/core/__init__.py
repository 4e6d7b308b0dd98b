"""Core: the paper's three contributions and their shared substrate.

* data model — :class:`Table`, :class:`RangeQuery`
* shared machinery — scans, partitioning, the KD-Tree, metrics,
  the cost model
* contributions — :class:`AdaptiveKDTree`, :class:`ProgressiveKDTree`,
  :class:`GreedyProgressiveKDTree`
"""

from .table import Table
from .query import RangeQuery
from .metrics import QueryStats, PHASES
from .cost_model import CostModel, MachineProfile
from .index_base import BaseIndex, IndexTable, QueryResult
from .kdtree import KDTree, PieceMatch
from .node import Piece
from .adaptive_kdtree import AdaptiveKDTree
from .progressive_kdtree import ProgressiveKDTree
from .greedy_progressive import GreedyProgressiveKDTree
from .approximate import ApproximateAnswer, ApproximateProgressiveKDTree
from .dictionary import DictionaryColumn, EncodedTable, encode_table
from .table_partitioning import (
    AdaptiveTablePartitioner,
    PartitionedResult,
    Shard,
    ShardedIndex,
    ShardedTable,
)
from .updates import AppendableAdaptiveKDTree
from .aggregates import AggregateReader
from .histogram import EquiWidthHistogram, TableHistograms
from .inspect import TreeSummary, export_dot, render_tree, summarize_tree
from .serialize import FrozenKDIndex, load_index, save_index, snapshot_index

__all__ = [
    "AggregateReader",
    "AppendableAdaptiveKDTree",
    "EquiWidthHistogram",
    "TableHistograms",
    "TreeSummary",
    "summarize_tree",
    "render_tree",
    "export_dot",
    "FrozenKDIndex",
    "save_index",
    "load_index",
    "snapshot_index",
    "ApproximateAnswer",
    "ApproximateProgressiveKDTree",
    "DictionaryColumn",
    "EncodedTable",
    "encode_table",
    "AdaptiveTablePartitioner",
    "PartitionedResult",
    "Shard",
    "ShardedIndex",
    "ShardedTable",
    "Table",
    "RangeQuery",
    "QueryStats",
    "PHASES",
    "CostModel",
    "MachineProfile",
    "BaseIndex",
    "IndexTable",
    "QueryResult",
    "KDTree",
    "PieceMatch",
    "Piece",
    "AdaptiveKDTree",
    "ProgressiveKDTree",
    "GreedyProgressiveKDTree",
]
