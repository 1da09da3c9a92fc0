"""Self-similar group actions on rooted m-trees.

Construct tree automorphisms by wreath recursion (explicit tables, Mealy
automata, or group data made of virtual endomorphisms), act on strings,
compare to depth, enumerate states, inflate to block alphabets, and export
automata as text or DOT.  Import names from the modules (``selfsim.tree_core``
and so on): importing one loads only it and the layers below it.
"""
