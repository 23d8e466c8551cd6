"""Semantic novelty scoring for scientific texts.

Scores documents against a query in a pretrained word-embedding space
with the Relaxed Word Mover's Distance, then applies a nonparametric
significance protocol (Kruskal-Wallis plus pairwise exact Wilcoxon
rank-sum tests) to separate redundant literature from novel
contributions.
"""

__version__ = "0.1.0"
