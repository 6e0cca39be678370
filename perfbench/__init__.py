"""perfbench: the end-to-end + per-layer benchmark every speed claim in
this repository is measured with.  See ``perfbench/README.md``."""
