"""Learnable token sparsification on a verifiable synthetic task."""

from .autodiff import Parameter, Tape, Tensor, cross_entropy_loss, softmax_with_temperature
from .data import Example, NeedleSpec, generate_dataset, load_dataset, write_dataset
from .gumbel import gumbel_max_sample, sample_standard_gumbel
from .model import TaskPerformer, TaskPerformerConfig, init_parameters
from .multimodal import ContextModel
from .rng import SeededRng
from .selection import (KeepProbPredictor, SelectionMask, StrategyConfig, apply_ste,
                        compute_keep_probabilities, deterministic_topk_select,
                        gumbel_topk_select, inference_rank_topk, ratio_controlled_select,
                        reencode_positions, selection_loss, total_loss, uniform_fixed_select)
from .train import RunConfig, train_run

__version__ = "0.1.0"
