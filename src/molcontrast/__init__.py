"""Contrastive pre-training of molecular graph encoders.

The pipeline runs from SMILES text to retrieval: parsing into featurized
graphs, stochastic augmentation, GIN/GCN encoding on a minimal autodiff
tape, normalized-temperature contrastive pre-training, supervised
fine-tuning behind scaffold splits, and fingerprint-based neighbor
analysis of the learned representation space.
"""

__version__ = "0.1.0"
