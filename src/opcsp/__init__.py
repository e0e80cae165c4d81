"""Toolkit for classical and operator satisfiability of CSPs over roots-of-unity domains."""
