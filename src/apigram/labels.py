"""The eight-way class roster shared by every pipeline stage.

The ordinal encoding is fixed: Adware=0, Backdoor=1, Downloader=2,
Spyware=3, Trojan=4, Worm=5, Virus=6, Benign=7. Confusion matrices,
model class vectors, and CSV emission all use this order.
"""
from __future__ import annotations

from enum import Enum


class ClassLabel(Enum):
    ADWARE = "Adware"
    BACKDOOR = "Backdoor"
    DOWNLOADER = "Downloader"
    SPYWARE = "Spyware"
    TROJAN = "Trojan"
    WORM = "Worm"
    VIRUS = "Virus"
    BENIGN = "Benign"

    @property
    def ordinal(self) -> int:
        return _ORDINALS[self]

    @classmethod
    def from_name(cls, name: str) -> "ClassLabel":
        key = name.strip().lower()
        try:
            return _BY_NAME[key]
        except KeyError:
            raise ValueError(f"unknown class label: {name!r}") from None

    def __str__(self) -> str:
        return self.value


ALL_LABELS: tuple[ClassLabel, ...] = tuple(ClassLabel)
N_CLASSES = len(ALL_LABELS)

_ORDINALS = {label: i for i, label in enumerate(ALL_LABELS)}
_BY_NAME = {label.value.lower(): label for label in ALL_LABELS}
