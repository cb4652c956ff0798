"""Modality-token-guided DETR-style detection at desk scale.

Subpackages/modules:
  errors      -- the exception hierarchy (every error is a MocadetError)
  fileio      -- atomic file replacement; the one JSON-to-config-dataclass reader
  config      -- run configuration and its validation
  autodiff    -- float64 tensors with reverse-mode AD; Module, the one parameter-naming rule
  optim       -- AdamW over one flat parameter store
  tokens      -- modality-token construction, registry, silhouette analysis
  data        -- synthetic multimodality data, dataset export, batch sampler
  boxes       -- box format conversion and pairwise IoU / GIoU
  detector    -- patch encoder + decoder with modality-context attention
  losses      -- Hungarian matching and the focal/L1/GIoU set objective
  queryrepa   -- contrastive query-token alignment pretraining (g_phi is a FeedForward)
  milab       -- executable InfoNCE mutual-information bound verification
  evaluation  -- COCO-style AP metrics over one detection array
  checkpoint  -- the checkpoint file format
  train       -- the one optimizer step, the pretraining and detection loops, evaluation
  cli         -- experiment orchestration
"""

__version__ = "0.1.0"
