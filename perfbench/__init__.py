"""End-to-end benchmark harness for oscgeo; see README.md in this directory."""
