"""Defenses against the serialization attack.

Implements the classic size-obfuscation defenses from the literature the
paper cites (padding, morphing) and the paper's own future-work
proposals (randomized request order / priorities, server push):

* :mod:`repro.defenses.padding` -- bucket padding,
* :mod:`repro.defenses.morphing` -- distribution-targeted morphing,
* :mod:`repro.defenses.random_order` -- per-load image-order shuffling,
* :mod:`repro.defenses.push` -- push-the-images-with-the-HTML,
* :mod:`repro.defenses.batching` -- single-record request batching
  (un-spaceable GET bursts).
"""

from typing import Sequence

from repro.defenses.batching import BatchingBrowser
from repro.defenses.morphing import MorphingDefense
from repro.defenses.padding import bucket_padding
from repro.defenses.push import (
    push_client_settings,
    push_defense_server_config,
)
from repro.defenses.random_order import shuffle_scripted_requests
from repro.website.isidewith import build_isidewith_site


def apply_defense(config, name: str, morph_sizes: Sequence[int]) -> None:
    """Arm the defense called ``name`` on a session config, in place.

    ``morph_sizes`` are morphing's target sizes, which depend on the
    site the caller loads.  ``"none"`` leaves the config as it is; an
    unknown name raises ``ValueError``.
    """
    if name == "padding":
        config.server.pad_object = bucket_padding(16_384)
    elif name == "morphing":
        config.server.pad_object = MorphingDefense(morph_sizes).pad_object()
    elif name == "random-order":
        config.plan_transform = shuffle_scripted_requests
    elif name == "push":
        config.server = push_defense_server_config(build_isidewith_site())
        config.client_settings = push_client_settings()
    elif name == "batching":
        config.browser_class = BatchingBrowser
    elif name != "none":
        raise ValueError(f"unknown defense {name!r}")


__all__ = [
    "BatchingBrowser",
    "MorphingDefense",
    "apply_defense",
    "bucket_padding",
    "push_defense_server_config",
    "shuffle_scripted_requests",
]
