"""kanforge: verification toolkit for finite truncated simplicial sets,
2-groups, their nerves and determinant representability."""
