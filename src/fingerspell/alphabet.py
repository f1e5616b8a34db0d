"""The 24 static one-hand alphabet letters (J and Z are dynamic, excluded)."""

STATIC_LETTERS = tuple("ABCDEFGHIKLMNOPQRSTUVWXY")
