"""Modality-token-guided DETR-style detection at desk scale.

Subpackages/modules:
  autodiff    -- float64 tensors with reverse-mode AD
  tokens      -- modality-token construction, registry, silhouette analysis
  data        -- synthetic multimodality data, dataset export, batch sampler
  boxes       -- box format conversion and pairwise IoU / GIoU
  detector    -- patch encoder + decoder with modality-context attention
  losses      -- Hungarian matching and the focal/L1/GIoU set objective
  queryrepa   -- contrastive query-token alignment pretraining
  milab       -- executable InfoNCE mutual-information bound verification
  evaluation  -- COCO-style AP metrics
  cli         -- experiment orchestration
"""

__version__ = "0.1.0"
