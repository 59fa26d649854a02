"""Host wall-clock benchmark of the TCUDB reproduction (see README.md)."""
